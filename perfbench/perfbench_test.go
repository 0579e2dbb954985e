package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const specPath = "../BENCHMARK.json"

// tinyScale shortens every workload's client profile so a run takes a
// fraction of a second.
const tinyScale = 0.05

type fullSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) fullSpec {
	t.Helper()
	data, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var s fullSpec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("%s: %v", specPath, err)
	}
	return s
}

// TestSpecIsWellFormed checks BENCHMARK.json against the limits of its
// format: names, units, bounds, and a setup_s metric.
func TestSpecIsWellFormed(t *testing.T) {
	s := readSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range s.Workloads {
		checkName(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", s.RunSeconds)
	}
	hasSetup := false
	for _, m := range s.EndToEnd {
		checkName(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: bad unit %q or better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("metric %s: bound must be in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range s.PerLayer {
		checkName(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: bad unit %q or better %q", m.Name, m.Unit, m.Better)
		}
	}
}

// TestTinyRunsEmitEveryMetric runs each benchmarked workload at tiny
// scale through both passes and checks every metric BENCHMARK.json names
// comes out, with its unit, from a correct run.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	s := readSpec(t)
	for _, w := range s.Workloads {
		for _, traced := range []bool{false, true} {
			rec, err := bench(io.Discard, w.Name, 1, 0.2, traced, tinyScale, specPath)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.Name, traced, err)
			}
			res := rec.Result
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (traced %v): correct %v, %d of %d ops failed", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := map[string]string{}
			if traced {
				for _, m := range s.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range s.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s (traced %v): metric %s = %+v, want unit %s", w.Name, traced, name, got, unit)
				}
			}
		}
	}
}

// TestPerturbedDigestFailsCheck makes one repeat's trajectory differ
// and expects the run to fail its output check and count as failed.
func TestPerturbedDigestFailsCheck(t *testing.T) {
	wl, err := lookupWorkload("paper-ramp")
	if err != nil {
		t.Fatal(err)
	}
	var runs []*run
	for i := 0; i < 2; i++ {
		r, err := timedRun(wl, wl.config(1, tinyScale), false)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
	}
	if res := summarize(io.Discard, runs); !res.Correct || res.Failed != 0 {
		t.Fatalf("unperturbed repeats: correct %v, %d ops failed", res.Correct, res.Failed)
	}
	for i := range runs {
		runs[i].problems = nil
	}
	runs[1].digest.DBFingerprint ^= 1
	res := summarize(io.Discard, runs)
	if res.Correct {
		t.Fatal("a perturbed digest passed the output check")
	}
	if res.Failed != runs[1].ops() {
		t.Errorf("failed = %d, want the perturbed run's %d ops", res.Failed, runs[1].ops())
	}
}

// TestCompareRefusesOtherHosts checks records from different hosts are
// not compared.
func TestCompareRefusesOtherHosts(t *testing.T) {
	dir := t.TempDir()
	a := record{Host: currentHost(), Workload: "paper-ramp", Seed: 1}
	b := a
	b.Host.GOGC = "off"
	write := func(name string, r record) string {
		data, _ := json.Marshal(r)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	pa, pb := write("a.json", a), write("b.json", b)
	if err := compare(io.Discard, []string{pa, pb}); err == nil || !strings.Contains(err.Error(), "host") {
		t.Errorf("compare across hosts: err = %v, want a host mismatch", err)
	}
	if err := compare(io.Discard, []string{pa, pa}); err != nil {
		t.Errorf("compare of a record with itself: %v", err)
	}
}

// TestTinyChaosNetReportsItsLayers runs the network workload at tiny
// scale through the per-layer pass: the network, attribution and plane
// A/B metrics apply, and both plane reruns reproduce the baseline.
func TestTinyChaosNetReportsItsLayers(t *testing.T) {
	wl, err := lookupWorkload("chaos-net")
	if err != nil {
		t.Fatal(err)
	}
	lp, err := tracedPass(wl, 3, 0, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range append([]*run{lp.base}, lp.extra...) {
		if len(r.problems) > 0 {
			t.Errorf("check failed: %v", r.problems)
		}
	}
	applies := map[string]bool{}
	for _, m := range lp.ms {
		applies[m.name] = m.ok
	}
	for _, name := range []string{"netsim.messages", "netsim.send_ns", "attrib.analyze_ns",
		"invariant.checks", "plane.trace.overhead_s", "plane.alert.overhead_s"} {
		if !applies[name] {
			t.Errorf("%s not reported on chaos-net", name)
		}
	}
}
