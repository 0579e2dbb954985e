package main

import (
	"fmt"
	"sort"

	"jade"
)

// workload is one benchmarked scenario: a config built from the seed,
// and whether its trajectory must show both sizing loops growing.
type workload struct {
	name string
	// config builds the scenario for a seed. scale in (0, 1] shortens
	// the client profile for tiny test runs; 1 is the benchmarked size.
	config func(seed int64, scale float64) jade.ScenarioConfig
	// mustGrow requires both sizing loops to grow past one replica.
	mustGrow bool
}

var workloads = []workload{
	{name: "paper-ramp", config: paperRamp, mustGrow: true},
	{name: "chaos-net", config: chaosNet},
	{name: "million-fluid", config: millionFluid, mustGrow: true},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// paperRamp is the paper's §5 managed experiment at speedup 1: the
// bidding mix ramping 80 -> 500 clients at 21 per minute, 120 s at peak,
// on the discrete engine with both sizing loops.
func paperRamp(seed int64, scale float64) jade.ScenarioConfig {
	cfg := jade.DefaultScenario(seed, true)
	r := jade.PaperRamp()
	r.HoldAtPeak *= scale
	r.Peak = r.Base + int(float64(r.Peak-r.Base)*scale)
	cfg.Profile = r
	return cfg
}

// chaosNet is a constant 300-client load for 900 virtual seconds over the
// simulated network (0.3 ms links with 0.05 ms jitter, 0.2% loss, 1 s
// heartbeats into the
// phi-accrual detector, as in examples/netfault.json), with
// self-recovery, the invariant harness and
// 1-in-10 request tracing on, under a partition at 200 s, a crash of
// tomcat1 at 400 s and a slow mysql1 from 600 s.
func chaosNet(seed int64, scale float64) jade.ScenarioConfig {
	cfg := jade.DefaultScenario(seed, true)
	cfg.Recovery = true
	cfg.Invariants = true
	cfg.TraceRequests = 10
	cfg.Profile = jade.ConstantProfile{Clients: 300, Length: 900 * scale}
	cfg.Net = jade.NetworkConfig{
		Enabled:   true,
		Default:   jade.LinkConfig{LatencyMS: 0.3, JitterMS: 0.05, Loss: 0.002},
		Heartbeat: jade.HeartbeatConfig{PeriodSeconds: 1, Window: 8, PhiThreshold: 3},
	}
	cfg.Chaos = jade.ChaosSchedule{
		{At: 200 * scale, Kind: jade.ChaosPartition, Duration: 30, A: []string{"tomcat1"}, B: []string{jade.ManagementEndpoint}},
		{At: 400 * scale, Kind: jade.ChaosCrash, Target: "tomcat1"},
		{At: 600 * scale, Kind: jade.ChaosSlow, Target: "mysql1", Duration: 300 * scale},
	}
	return cfg
}

// millionFluid is the full million-client ramp (100k -> 1M clients) on
// the fluid engine, run once without its cross-validation companions.
func millionFluid(seed int64, scale float64) jade.ScenarioConfig {
	cfg := jade.MillionClientScenario(seed, false)
	r := cfg.Profile.(jade.RampProfile)
	r.HoldAtPeak *= scale
	r.Peak = r.Base + int(float64(r.Peak-r.Base)*scale)
	cfg.Profile = r
	return cfg
}
