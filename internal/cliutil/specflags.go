// Package cliutil backs the command-line front ends: one table of
// scenario-override flags that jadectl and jadebench both register.
package cliutil

import (
	"flag"
	"fmt"

	"jade"
)

// specEntry is one scenario-override flag: its name, the group of
// jade.ScenarioConfig fields it reaches after Flatten, and typed
// register/apply hooks.
type specEntry struct {
	name, group string
	register    func(fs *flag.FlagSet) func(*jade.Spec)
}

func stringEntry(name, group, def, usage string, set func(*jade.Spec, string)) specEntry {
	return specEntry{name: name, group: group,
		register: func(fs *flag.FlagSet) func(*jade.Spec) {
			v := fs.String(name, def, usage)
			return func(s *jade.Spec) { set(s, *v) }
		}}
}

func float64Entry(name, group string, def float64, usage string, set func(*jade.Spec, float64)) specEntry {
	return specEntry{name: name, group: group,
		register: func(fs *flag.FlagSet) func(*jade.Spec) {
			v := fs.Float64(name, def, usage)
			return func(s *jade.Spec) { set(s, *v) }
		}}
}

func intEntry(name, group string, def int, usage string, set func(*jade.Spec, int)) specEntry {
	return specEntry{name: name, group: group,
		register: func(fs *flag.FlagSet) func(*jade.Spec) {
			v := fs.Int(name, def, usage)
			return func(s *jade.Spec) { set(s, *v) }
		}}
}

func boolEntry(name, group string, usage string, set func(*jade.Spec, bool)) specEntry {
	return specEntry{name: name, group: group,
		register: func(fs *flag.FlagSet) func(*jade.Spec) {
			v := fs.Bool(name, false, usage)
			return func(s *jade.Spec) { set(s, *v) }
		}}
}

// specTable is the single registry of every flag that overrides a
// jade.Spec field. jadectl and jadebench both register from here, so a
// new refreshable field needs exactly one entry to reach every CLI.
var specTable = []specEntry{
	boolEntry("sessions", "sessions", "use Markov sessions instead of i.i.d. interaction sampling",
		func(s *jade.Spec, v bool) { s.Workload.Sessions = v }),
	boolEntry("recovery", "recovery", "arm the self-recovery manager",
		func(s *jade.Spec, v bool) { s.Recovery = v }),
	stringEntry("workload.mode", "workload", "", "workload engine: discrete|fluid|auto (empty = discrete)",
		func(s *jade.Spec, v string) { s.Workload.Mode = v }),
	float64Entry("workload.tick", "workload", 0, "fluid model tick in simulated seconds (0 = default 1)",
		func(s *jade.Spec, v float64) { s.Workload.FluidTickSeconds = v }),
	float64Entry("workload.sample-rate", "workload", 0, "fraction of clients kept as real discrete chains in fluid mode (0 = default 0.02)",
		func(s *jade.Spec, v float64) { s.Workload.FluidSampleRate = v }),
	float64Entry("fault.mtbf", "fault", 0, "inject node crashes with this mean time between failures (seconds; 0 = none)",
		func(s *jade.Spec, v float64) { s.Faults.MTBFSeconds = v }),
	stringEntry("route.policy", "route", "", "routing policy for every tier: round-robin|weighted-round-robin|least-pending|balanced|rendezvous (empty = per-tier defaults)",
		func(s *jade.Spec, v string) { s.Routing.Policy = v }),
	stringEntry("route.l4", "route", "", "routing policy for the L4 switch (overrides -route.policy)",
		func(s *jade.Spec, v string) { s.Routing.L4 = v }),
	stringEntry("route.app", "route", "", "routing policy for the PLB application tier (overrides -route.policy)",
		func(s *jade.Spec, v string) { s.Routing.App = v }),
	stringEntry("route.db", "route", "", "read policy for the C-JDBC database tier (overrides -route.policy)",
		func(s *jade.Spec, v string) { s.Routing.DB = v }),
	float64Entry("route.probe-after", "route", 0, "seconds before a suspected-down backend is probed back in (0 = default)",
		func(s *jade.Spec, v float64) { s.Routing.ProbeAfterSeconds = v }),
	float64Entry("route.half-life", "route", 0, "half-life of the balanced policy's failure/latency reservoirs (seconds; 0 = default)",
		func(s *jade.Spec, v float64) { s.Routing.HalfLifeSeconds = v }),
	boolEntry("net.enable", "net", "route inter-tier calls and heartbeats over the simulated network",
		func(s *jade.Spec, v bool) { s.Faults.Network.Enabled = v }),
	float64Entry("net.latency", "net", 0.3, "default link latency (milliseconds)",
		func(s *jade.Spec, v float64) { s.Faults.Network.Default.LatencyMS = v }),
	float64Entry("net.jitter", "net", 0, "default link jitter (milliseconds)",
		func(s *jade.Spec, v float64) { s.Faults.Network.Default.JitterMS = v }),
	float64Entry("net.loss", "net", 0, "default link loss probability, in [0,1)",
		func(s *jade.Spec, v float64) { s.Faults.Network.Default.Loss = v }),
	intEntry("trace.requests", "telemetry", 0, "open a causal span for every N-th client request (0 = default 25 when tracing)",
		func(s *jade.Spec, v int) { s.Telemetry.TraceRequests = v }),
	stringEntry("metrics.dir", "telemetry", "", "write periodic metrics snapshots (Prometheus text + JSON) into this directory",
		func(s *jade.Spec, v string) { s.Telemetry.MetricsDir = v }),
	float64Entry("metrics.interval", "telemetry", 60, "snapshot period in simulated seconds",
		func(s *jade.Spec, v float64) { s.Telemetry.MetricsIntervalSeconds = v }),
	stringEntry("metrics.http", "telemetry", "", "serve the live admin endpoint on this address (e.g. :8080 or 127.0.0.1:0)",
		func(s *jade.Spec, v string) { s.Telemetry.HTTPAddr = v }),
	boolEntry("alert.off", "alert", "disable alerting-rule evaluation",
		func(s *jade.Spec, v bool) { s.Alerting.Off = v }),
	float64Entry("alert.interval", "alert", 0, "alert evaluation period in simulated seconds (0 = default 5)",
		func(s *jade.Spec, v float64) { s.Alerting.EvalIntervalSeconds = v }),
	float64Entry("alert.fast", "alert", 0, "fast burn-rate window in simulated seconds (0 = default 60)",
		func(s *jade.Spec, v float64) { s.Alerting.FastWindowSeconds = v }),
	float64Entry("alert.slow", "alert", 0, "slow burn-rate window in simulated seconds (0 = default 600)",
		func(s *jade.Spec, v float64) { s.Alerting.SlowWindowSeconds = v }),
	float64Entry("alert.page-burn", "alert", 0, "error-budget burn rate that pages (0 = default 14.4)",
		func(s *jade.Spec, v float64) { s.Alerting.PageBurn = v }),
	float64Entry("alert.warn-burn", "alert", 0, "error-budget burn rate that warns (0 = default 3)",
		func(s *jade.Spec, v float64) { s.Alerting.WarnBurn = v }),
	float64Entry("alert.z", "alert", 0, "anomaly z-score threshold (0 = default 4)",
		func(s *jade.Spec, v float64) { s.Alerting.ZThreshold = v }),
	float64Entry("alert.skew", "alert", 0, "pool-skew multiplier vs the pool median (0 = default 3)",
		func(s *jade.Spec, v float64) { s.Alerting.SkewFactor = v }),
	float64Entry("alert.hysteresis", "alert", 0, "seconds an alert's condition must stay clear before it resolves (0 = default 30)",
		func(s *jade.Spec, v float64) { s.Alerting.HysteresisSeconds = v }),
	boolEntry("alert.monitor", "alert", "arm the φ-accrual heartbeat detector as a signal source without recovery (requires -net.enable)",
		func(s *jade.Spec, v bool) { s.Alerting.MonitorReplicas = v }),
}

// scenarioGroups copies one flag group's flattened fields onto an
// already-built ScenarioConfig, for commands (jadebench) that construct
// run configs directly instead of flattening a Spec.
var scenarioGroups = map[string]func(dst *jade.ScenarioConfig, src jade.ScenarioConfig){
	"sessions": func(d *jade.ScenarioConfig, s jade.ScenarioConfig) { d.Sessions = s.Sessions },
	"recovery": func(d *jade.ScenarioConfig, s jade.ScenarioConfig) { d.Recovery = s.Recovery },
	"workload": func(d *jade.ScenarioConfig, s jade.ScenarioConfig) {
		d.WorkloadMode, d.FluidTick, d.FluidSampleRate = s.WorkloadMode, s.FluidTick, s.FluidSampleRate
	},
	"fault": func(d *jade.ScenarioConfig, s jade.ScenarioConfig) { d.MTBFSeconds = s.MTBFSeconds },
	"route": func(d *jade.ScenarioConfig, s jade.ScenarioConfig) { d.Routing = s.Routing },
	"net":   func(d *jade.ScenarioConfig, s jade.ScenarioConfig) { d.Net = s.Net },
	"alert": func(d *jade.ScenarioConfig, s jade.ScenarioConfig) { d.Alerting, d.Monitor = s.Alerting, s.Monitor },
	"telemetry": func(d *jade.ScenarioConfig, s jade.ScenarioConfig) {
		d.TraceRequests, d.MetricsDir, d.MetricsInterval, d.HTTPAddr =
			s.TraceRequests, s.MetricsDir, s.MetricsInterval, s.HTTPAddr
	},
}

// SpecFlags is a set of registered scenario-override flags bound to one
// FlagSet. Build with RegisterSpecFlags or RegisterSpecGroups.
type SpecFlags struct {
	fs      *flag.FlagSet
	apply   map[string]func(*jade.Spec)
	group   map[string]string
	ordered []string
}

// RegisterSpecFlags registers every spec-override flag on fs.
func RegisterSpecFlags(fs *flag.FlagSet) *SpecFlags {
	return RegisterSpecGroups(fs)
}

// RegisterSpecGroups registers the spec-override flags belonging to the
// named groups (all groups when none are given). Groups: sessions,
// recovery, workload, fault, route, net, alert, telemetry.
func RegisterSpecGroups(fs *flag.FlagSet, groups ...string) *SpecFlags {
	want := map[string]bool{}
	for _, g := range groups {
		want[g] = true
	}
	sf := &SpecFlags{fs: fs, apply: map[string]func(*jade.Spec){}, group: map[string]string{}}
	for _, e := range specTable {
		if len(groups) > 0 && !want[e.group] {
			continue
		}
		sf.apply[e.name] = e.register(fs)
		sf.group[e.name] = e.group
		sf.ordered = append(sf.ordered, e.name)
	}
	return sf
}

// Apply applies one flag's current value to spec, reporting
// whether the name is a registered spec flag.
func (sf *SpecFlags) Apply(spec *jade.Spec, name string) bool {
	fn, ok := sf.apply[name]
	if !ok {
		return false
	}
	fn(spec)
	return true
}

// ApplyAll applies every registered flag's current value (set or
// default) to spec, in table order.
func (sf *SpecFlags) ApplyAll(spec *jade.Spec) {
	for _, name := range sf.ordered {
		sf.apply[name](spec)
	}
}

// VisitedNames returns the names of registered spec flags that were
// explicitly set on the command line.
func (sf *SpecFlags) VisitedNames() []string {
	var out []string
	sf.fs.Visit(func(f *flag.Flag) {
		if _, ok := sf.apply[f.Name]; ok {
			out = append(out, f.Name)
		}
	})
	return out
}

// ScenarioOverride builds a mutator that imposes the explicitly-set
// spec flags onto a ScenarioConfig another command assembled itself:
// the flags are applied to a default Spec, flattened, and the flattened
// field groups of the visited flags copied over. Returns nil when no
// spec flag was set.
func (sf *SpecFlags) ScenarioOverride() (func(*jade.ScenarioConfig), error) {
	visited := sf.VisitedNames()
	if len(visited) == 0 {
		return nil, nil
	}
	spec := jade.DefaultSpec(1, true)
	for _, name := range visited {
		sf.apply[name](&spec)
	}
	flat, err := spec.Flatten()
	if err != nil {
		return nil, fmt.Errorf("scenario overrides: %w", err)
	}
	groups := map[string]bool{}
	for _, name := range visited {
		groups[sf.group[name]] = true
	}
	return func(cfg *jade.ScenarioConfig) {
		for g := range groups {
			if copyGroup, ok := scenarioGroups[g]; ok {
				copyGroup(cfg, flat)
			}
		}
	}, nil
}
