package cliutil

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"jade"
)

func newSpecSet() (*flag.FlagSet, *SpecFlags) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs, RegisterSpecFlags(fs)
}

// TestScenarioOverrideCopiesOnlySetGroups: the override built from the
// flags set on the command line reaches exactly those flags' groups.
func TestScenarioOverrideCopiesOnlySetGroups(t *testing.T) {
	fs, sf := newSpecSet()
	if err := fs.Parse([]string{"-route.policy", "balanced", "-fault.mtbf", "300"}); err != nil {
		t.Fatal(err)
	}
	if got, want := sf.VisitedNames(), []string{"fault.mtbf", "route.policy"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("visited = %v, want %v", got, want)
	}
	override, err := sf.ScenarioOverride()
	if err != nil || override == nil {
		t.Fatalf("override set: %v, err = %v", override != nil, err)
	}
	cfg := jade.DefaultScenario(1, true)
	cfg.Net.Enabled = true // the net group is not set on the command line
	override(&cfg)
	if cfg.MTBFSeconds != 300 || cfg.Routing.App != "balanced" || cfg.Routing.DB != "balanced" || !cfg.Net.Enabled {
		t.Fatalf("override applied wrongly: mtbf=%v routing=%+v net=%v", cfg.MTBFSeconds, cfg.Routing, cfg.Net.Enabled)
	}
}

func TestScenarioOverrideNilWithoutFlags(t *testing.T) {
	fs, sf := newSpecSet()
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if override, err := sf.ScenarioOverride(); override != nil || err != nil {
		t.Fatalf("override set: %v, err = %v; want none", override != nil, err)
	}
}

// TestOldFlagSpellingsRejected: the pre-namespace spellings are no
// longer registered.
func TestOldFlagSpellingsRejected(t *testing.T) {
	for _, old := range []string{"-mtbf", "-trace-requests", "-metrics-dir", "-metrics-interval", "-http"} {
		fs, _ := newSpecSet()
		if err := fs.Parse([]string{old, "1"}); err == nil {
			t.Errorf("%s still parses", old)
		}
	}
}
