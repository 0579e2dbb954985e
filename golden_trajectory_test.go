package jade

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"jade/internal/core"
)

// goldenFile holds the recorded trajectory digests of the golden runs.
// The values pin the whole assembly: every ticker registration, engine
// RNG draw and artifact byte. They are not regenerated by refactors; a
// change that moves one of them changes the simulated trajectory.
const goldenFile = "testdata/golden_trajectory.json"

// trajectoryDigest condenses one run into the figures a
// behaviour-preserving change must leave untouched.
type trajectoryDigest struct {
	Events           uint64 `json:"events"`
	Completed        uint64 `json:"completed"`
	Failed           uint64 `json:"failed"`
	Reconfigurations int    `json:"reconfigurations"`
	Repairs          uint64 `json:"repairs"`
	InjectedFailures int    `json:"injected_failures"`
	// P50Bits and P99Bits are the client latency quantiles as
	// math.Float64bits, so the comparison is exact.
	P50Bits       uint64 `json:"p50_bits"`
	P99Bits       uint64 `json:"p99_bits"`
	DBFingerprint uint64 `json:"db_fingerprint"`
	Violation     string `json:"violation,omitempty"`
	// SHA-256 digests of the run's artifacts.
	TraceJSONL    string `json:"trace_jsonl_sha256"`
	FinalProm     string `json:"final_prom_sha256"`
	AlertsJSONL   string `json:"alerts_jsonl_sha256"`
	ConfigChanges string `json:"config_changes_sha256"`
	// MetricsDir digests every file the run wrote (names and bytes).
	MetricsDir string `json:"metrics_dir_sha256"`
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// goldenRuns are short scenarios that together reach every plane of the
// scenario assembly: both sizing loops, passive observation, the network
// fabric with both detector roles, recovery, arbitration, invariants,
// every chaos kind, operator retunes, request tracing, the fluid engine
// and MTBF churn.
func goldenRuns() map[string]ScenarioConfig {
	managedRamp := DefaultScenario(1, true)
	managedRamp.Profile = RampProfile{Base: 80, Peak: 500, StepPerMinute: 105, HoldAtPeak: 24}

	unmanaged := DefaultScenario(2, false)
	unmanaged.Profile = ConstantProfile{Clients: 150, Length: 240}

	netChaos := DefaultScenario(3, true)
	netChaos.Recovery = true
	netChaos.Invariants = true
	netChaos.Arbitrate = true
	netChaos.Sessions = true
	netChaos.TraceRequests = 10
	netChaos.Profile = ConstantProfile{Clients: 80, Length: 300}
	netChaos.Net = NetworkConfig{
		Enabled:   true,
		Default:   LinkConfig{LatencyMS: 0.3, JitterMS: 0.05, Loss: 0.002},
		Heartbeat: HeartbeatConfig{PeriodSeconds: 1, Window: 8, PhiThreshold: 3},
	}
	netChaos.SLOTargets = map[string]float64{"client-latency-p95": 1.5}
	netChaos.Chaos = ChaosSchedule{
		{At: 40, Kind: ChaosPartition, Duration: 30, A: []string{"tomcat1"}, B: []string{ManagementEndpoint}},
		{At: 100, Kind: ChaosCrash, Target: "tomcat1"},
		{At: 130, Kind: ChaosConfig, Patch: json.RawMessage(`{"sizing":{"app":{"max":0.7}}}`)},
		{At: 140, Kind: ChaosConfig, Patch: json.RawMessage(`{"routing":{"app":"fastest"}}`)},
		{At: 160, Kind: ChaosSlow, Target: "mysql1", Duration: 60},
		{At: 200, Kind: ChaosPartition, A: []string{"mysql1"}},
		{At: 230, Kind: ChaosHeal},
		{At: 250, Kind: ChaosReboot, Target: "tomcat1"},
	}
	netChaos.Operator = OperatorSchedule{
		{At: 90, Patch: json.RawMessage(`{"routing":{"policy":"balanced","half_life_seconds":20}}`)},
		{At: 180, Patch: json.RawMessage(`{"alerting":{"page_burn":20,"warn_burn":8},"faults":{"network":{"rpc":{"app":{"timeout_seconds":2,"attempts":2,"backoff_seconds":0.2}}}}}`)},
	}

	monitor := DefaultScenario(4, false)
	monitor.Monitor = true
	monitor.Profile = ConstantProfile{Clients: 60, Length: 180}
	monitor.Net = NetworkConfig{
		Enabled:   true,
		Default:   LinkConfig{LatencyMS: 0.3},
		Heartbeat: HeartbeatConfig{PeriodSeconds: 1, Window: 8, PhiThreshold: 3},
	}
	monitor.Chaos = ChaosSchedule{
		{At: 60, Kind: ChaosPartition, Duration: 40, A: []string{"mysql1"}, B: []string{ManagementEndpoint}},
	}

	fluidQuick := MillionClientScenario(5, true)

	churn := DefaultScenario(6, true)
	churn.Recovery = true
	churn.MTBFSeconds = 60
	churn.FailComponent = "mysql1"
	churn.FailAt = 50
	churn.Profile = ConstantProfile{Clients: 100, Length: 400}

	return map[string]ScenarioConfig{
		"managed-ramp":       managedRamp,
		"unmanaged-constant": unmanaged,
		"net-chaos":          netChaos,
		"unmanaged-monitor":  monitor,
		"fluid-quick":        fluidQuick,
		"mtbf-churn":         churn,
	}
}

// digestRun runs cfg with a metrics directory and digests the result.
func digestRun(t *testing.T, cfg ScenarioConfig) trajectoryDigest {
	t.Helper()
	dir := t.TempDir()
	cfg.MetricsDir = dir
	res, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := trajectoryDigest{
		Events:           res.Platform.Eng.Processed(),
		Completed:        res.Stats.Completed,
		Failed:           res.Stats.Failed,
		Reconfigurations: res.Reconfigurations,
		Repairs:          res.Repairs,
		InjectedFailures: res.InjectedFailures,
		P50Bits:          math.Float64bits(res.RequestLatency.Quantile(0.50)),
		P99Bits:          math.Float64bits(res.RequestLatency.Quantile(0.99)),
	}
	if v := res.InvariantViolation; v != nil {
		d.Violation = v.Checker
	}
	c, err := res.Deployment.Component("cjdbc1")
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := c.Content().(*core.CJDBCWrapper); ok && w.Controller() != nil {
		rep := w.Controller().CheckConsistency()
		names := make([]string, 0, len(rep.Fingerprints))
		for name := range rep.Fingerprints {
			names = append(names, name)
		}
		sort.Strings(names)
		if len(names) > 0 {
			d.DBFingerprint = rep.Fingerprints[names[0]]
		}
	}
	var trace bytes.Buffer
	if err := res.Trace().WriteJSONL(&trace); err != nil {
		t.Fatal(err)
	}
	d.TraceJSONL = sha(trace.Bytes())
	changes, err := json.Marshal(res.ConfigChanges)
	if err != nil {
		t.Fatal(err)
	}
	d.ConfigChanges = sha(changes)

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	all := sha256.New()
	var lastProm string
	for _, e := range entries { // ReadDir sorts by name
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		all.Write([]byte(e.Name()))
		all.Write([]byte{0})
		all.Write(data)
		switch {
		case e.Name() == "alerts.jsonl":
			d.AlertsJSONL = sha(data)
		case strings.HasSuffix(e.Name(), ".prom"):
			lastProm = sha(data)
		}
	}
	d.FinalProm = lastProm
	d.MetricsDir = hex.EncodeToString(all.Sum(nil))
	return d
}

// TestGoldenTrajectory runs the golden scenarios and compares each
// digest with the recorded one. On a mismatch the failure prints the
// full set of observed digests.
func TestGoldenTrajectory(t *testing.T) {
	if testing.Short() {
		t.Skip("golden trajectories in -short mode")
	}
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]trajectoryDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	runs := goldenRuns()
	names := make([]string, 0, len(runs))
	for name := range runs {
		names = append(names, name)
	}
	sort.Strings(names)
	got := make(map[string]trajectoryDigest, len(runs))
	for _, name := range names {
		got[name] = digestRun(t, runs[name])
	}
	mismatch := len(want) != len(got)
	for _, name := range names {
		if w, ok := want[name]; !ok || w != got[name] {
			mismatch = true
			t.Errorf("%s: trajectory digest\n got %+v\nwant %+v", name, got[name], w)
		}
	}
	if mismatch {
		out, _ := json.MarshalIndent(got, "", "  ")
		t.Fatalf("observed digests:\n%s", out)
	}
}
