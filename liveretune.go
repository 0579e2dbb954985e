package jade

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"jade/internal/metrics"
)

// LiveRetuneResult carries the live-reconfiguration experiment's runs
// and self-check measurements (see RunLiveRetune).
type LiveRetuneResult struct {
	// Control keeps round-robin routing for the whole gray-failure run.
	Control *ScenarioResult
	// Retuned starts identically but an operator patch swaps every
	// tier's selector to "balanced" mid-run, with zero restarts.
	Retuned *ScenarioResult
	// ControlP99/RetunedP99 are client p99 latencies (seconds) over the
	// post-swap comparison window only.
	ControlP99, RetunedP99 float64
	// Improvement is ControlP99/RetunedP99.
	Improvement float64
	// ReplayIdentical reports whether a same-seed re-run of the retuned
	// variant produced a byte-identical trace and config-change log.
	ReplayIdentical bool
	// Managed is the mid-ramp threshold-retune run.
	Managed *ScenarioResult
}

// liveRetuneMinImprovement is the self-check floor: swapping the
// selector away from round-robin while a gray failure is active must at
// least halve the post-swap tail latency.
const liveRetuneMinImprovement = 2.0

// LiveRetuneScenario returns the gray-failure run used by the live-
// retune experiment: round-robin routing everywhere, with an operator
// config patch at swapAt (virtual seconds after workload start) that
// swaps every tier's selector to "balanced" — the same change an
// operator would POST to /config on a live deployment. retune=false
// omits the patch, yielding the control run.
func LiveRetuneScenario(seed int64, quick, retune bool) (cfg ScenarioConfig, swapAt, settle float64) {
	cfg = GrayFailureScenario(seed, "round-robin", quick)
	swapAt, settle = 120, 30
	if quick {
		swapAt, settle = 60, 20
	}
	if retune {
		cfg.Operator = OperatorSchedule{
			{At: swapAt, Patch: json.RawMessage(`{"routing":{"policy":"balanced"}}`)},
		}
	}
	return cfg, swapAt, settle
}

// liveRetuneManagedScenario is the threshold-retune run: a compressed
// managed ramp where an operator patch mid-ramp tightens the app tier's
// CPU thresholds — the knobs of the paper's self-optimization loop —
// without restarting the control loop.
func liveRetuneManagedScenario(seed int64) (ScenarioConfig, float64) {
	cfg := DefaultScenario(seed, true)
	cfg.Profile = RampProfile{Base: 40, Peak: 200, StepPerMinute: 150, HoldAtPeak: 60}
	retuneAt := 90.0
	cfg.Operator = OperatorSchedule{
		{At: retuneAt, Patch: json.RawMessage(`{"sizing":{"app":{"min":0.30,"max":0.60}}}`)},
	}
	return cfg, retuneAt
}

// windowP99 returns the 99th-percentile completed-request latency over
// [t0, t1) of virtual time.
func windowP99(r *ScenarioResult, t0, t1 float64) float64 {
	vs := windowValues(r.Stats.Latency, t0, t1)
	sort.Float64s(vs)
	return metrics.Percentile(vs, 0.99)
}

// traceFingerprint renders the run's full telemetry bus plus its
// config-change log as bytes, for replay byte-identity checks.
func traceFingerprint(r *ScenarioResult) ([]byte, error) {
	var buf bytes.Buffer
	if err := r.Trace().WriteJSONL(&buf); err != nil {
		return nil, err
	}
	changes, err := json.Marshal(r.ConfigChanges)
	if err != nil {
		return nil, err
	}
	buf.Write(changes)
	return buf.Bytes(), nil
}

// appliedOperatorChanges counts config changes that were accepted and
// originated from the operator schedule.
func appliedOperatorChanges(r *ScenarioResult) int {
	n := 0
	for _, c := range r.ConfigChanges {
		if c.Source == "operator" && c.Error == "" {
			n++
		}
	}
	return n
}

// RunLiveRetune is the live-reconfiguration experiment: the same
// gray-failure scenario as RunGrayFailure, except the cluster *starts*
// on the pathological round-robin policy and an operator config patch
// swaps every tier's selector to "balanced" halfway through — over the
// same code path as a POST to the admin plane's /config endpoint, with
// zero restarts. The run self-checks that
//
//   - the post-swap p99 improves at least 2x over the control run that
//     never retunes,
//   - the swap triggered no reconfigurations, repairs, or restarts,
//   - a same-seed replay (including the mid-run config change) is
//     byte-identical in both trace and config-change log, and
//   - a managed ramp accepts a mid-run sizing-threshold patch that the
//     live reactor observably adopts (trace carries the config span).
//
// quick shrinks the runs for smoke tests.
func RunLiveRetune(seed int64, quick bool) (*LiveRetuneResult, string, error) {
	controlCfg, _, _ := LiveRetuneScenario(seed, quick, false)
	retuneCfg, swapAt, settle := LiveRetuneScenario(seed, quick, true)
	replayCfg, _, _ := LiveRetuneScenario(seed, quick, true)
	managedCfg, retuneAt := liveRetuneManagedScenario(seed + 1)

	cfgs := []ScenarioConfig{controlCfg, retuneCfg, replayCfg, managedCfg}
	runs := make([]*ScenarioResult, len(cfgs))
	err := forEachPar(len(cfgs), func(i int) error {
		r, err := RunScenario(cfgs[i])
		if err != nil {
			return fmt.Errorf("liveretune run %d: %w", i, err)
		}
		runs[i] = r
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	res := &LiveRetuneResult{Control: runs[0], Retuned: runs[1], Managed: runs[3]}
	replay := runs[2]

	length := controlCfg.Profile.Duration()
	t0 := res.Retuned.WorkloadStart + swapAt + settle
	t1 := res.Retuned.WorkloadStart + length
	res.ControlP99 = windowP99(res.Control, t0, t1)
	res.RetunedP99 = windowP99(res.Retuned, t0, t1)
	if res.RetunedP99 > 0 {
		res.Improvement = res.ControlP99 / res.RetunedP99
	}

	// Self-check: the live swap must pay off without any restart.
	if res.Improvement < liveRetuneMinImprovement {
		return nil, "", fmt.Errorf("liveretune: post-swap p99 improved only %.2fx (control %.3fs vs retuned %.3fs), want >= %.1fx",
			res.Improvement, res.ControlP99, res.RetunedP99, liveRetuneMinImprovement)
	}
	for _, v := range []struct {
		name string
		r    *ScenarioResult
	}{{"control", res.Control}, {"retuned", res.Retuned}} {
		if v.r.Reconfigurations != 0 || v.r.Repairs != 0 || v.r.InjectedFailures != 0 {
			return nil, "", fmt.Errorf("liveretune: %s run restarted something (reconfigs=%d repairs=%d crashes=%d), want zero",
				v.name, v.r.Reconfigurations, v.r.Repairs, v.r.InjectedFailures)
		}
	}
	if got := appliedOperatorChanges(res.Retuned); got != 1 {
		return nil, "", fmt.Errorf("liveretune: retuned run applied %d operator config changes, want 1 (log: %+v)",
			got, res.Retuned.ConfigChanges)
	}
	if got := len(res.Control.ConfigChanges); got != 0 {
		return nil, "", fmt.Errorf("liveretune: control run logged %d config changes, want 0", got)
	}

	// Self-check: same seed + same schedule replays byte-identically.
	a, err := traceFingerprint(res.Retuned)
	if err != nil {
		return nil, "", err
	}
	b, err := traceFingerprint(replay)
	if err != nil {
		return nil, "", err
	}
	res.ReplayIdentical = bytes.Equal(a, b)
	if !res.ReplayIdentical {
		return nil, "", fmt.Errorf("liveretune: same-seed replay with mid-run config change is not byte-identical (%d vs %d bytes)", len(a), len(b))
	}

	// Self-check: the managed reactor adopted the mid-ramp thresholds
	// and the change is visible as a config span on the telemetry bus.
	if got := appliedOperatorChanges(res.Managed); got != 1 {
		return nil, "", fmt.Errorf("liveretune: managed run applied %d operator config changes, want 1", got)
	}
	reactor := res.Managed.AppManager.Reactor
	if reactor.Min != 0.30 || reactor.Max != 0.60 {
		return nil, "", fmt.Errorf("liveretune: app reactor thresholds (%.2f, %.2f) after retune, want (0.30, 0.60)",
			reactor.Min, reactor.Max)
	}
	configSpans := 0
	for _, sp := range res.Managed.Trace().Spans() {
		if sp.Kind == "config" {
			configSpans++
		}
	}
	if configSpans == 0 {
		return nil, "", fmt.Errorf("liveretune: managed run has no config span on the telemetry bus")
	}

	title := fmt.Sprintf("Live retune under gray failure (RR -> balanced at t=%.0f s, window [%.0f, %.0f) s after start)",
		swapAt, swapAt+settle, length)
	tb := &TextTable{
		Title:   title,
		Headers: []string{"variant", "window p99 (s)", "overall p99 (s)", "completed", "failed", "config changes", "restarts"},
	}
	for _, v := range []struct {
		name string
		p99  float64
		r    *ScenarioResult
	}{
		{"control (RR throughout)", res.ControlP99, res.Control},
		{"retuned (swap to balanced)", res.RetunedP99, res.Retuned},
	} {
		tb.AddRow(v.name,
			fmt.Sprintf("%.3f", v.p99),
			fmt.Sprintf("%.3f", v.r.RequestLatency.Quantile(0.99)),
			fmt.Sprintf("%d", v.r.Stats.Completed),
			fmt.Sprintf("%d", v.r.Stats.Failed),
			fmt.Sprintf("%d", len(v.r.ConfigChanges)),
			"0")
	}
	out := tb.Render()
	out += fmt.Sprintf("\npost-swap p99 improvement: %.1fx (self-check floor %.1fx); same-seed replay byte-identical: %v\n",
		res.Improvement, liveRetuneMinImprovement, res.ReplayIdentical)
	out += fmt.Sprintf("managed mid-ramp retune at t=%.0f s: app thresholds now (%.2f, %.2f), %d config span(s) traced, %d reconfigurations\n",
		retuneAt, reactor.Min, reactor.Max, configSpans, res.Managed.Reconfigurations)
	return res, out, nil
}
