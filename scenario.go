package jade

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"jade/internal/cjdbc"
	"jade/internal/cluster"
	"jade/internal/core"
	"jade/internal/fluid"
	"jade/internal/fractal"
	"jade/internal/invariant"
	"jade/internal/metrics"
	"jade/internal/netsim"
	"jade/internal/obs"
	"jade/internal/obs/alert"
	"jade/internal/obs/attrib"
	"jade/internal/refresh"
	"jade/internal/rubis"
	"jade/internal/selector"
	"jade/internal/sim"
	"jade/internal/trace"
)

// ScenarioConfig describes one end-to-end evaluation run: deploy the
// three-tier RUBiS application on a simulated cluster, subject it to a
// workload profile, optionally under Jade's autonomic managers.
type ScenarioConfig struct {
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// Managed enables the self-optimization managers (the "with Jade"
	// runs); unmanaged runs keep the initial static configuration.
	Managed bool
	// Recovery additionally enables the self-recovery manager.
	Recovery bool
	// Profile is the client population profile (PaperRamp by default).
	Profile Profile
	// Mix is the interaction mix (BiddingMix by default).
	Mix *Mix
	// Dataset sizes the RUBiS database (DefaultDataset by default).
	Dataset *Dataset
	// ThinkTime is the mean client think time in seconds (7 by default).
	ThinkTime float64
	// Sessions switches the client emulator from independent stationary
	// sampling to RUBiS-style Markov sessions (DefaultTransitions).
	Sessions bool
	// WorkloadMode selects how client load exercises the tiers:
	// WorkloadDiscrete (default) simulates every request as a discrete
	// event chain; WorkloadFluid carries the bulk of the population as a
	// queue-theoretic rate flow (internal/fluid) on a coarse tick while a
	// sampled fraction keeps running as real request chains (traces,
	// exact percentiles, SLOs and alerts stay live); WorkloadAuto picks
	// fluid when the profile's peak population reaches FluidAutoClients.
	WorkloadMode string
	// FluidTick is the fluid model's virtual-time tick in seconds
	// (1 by default). Coarser ticks run faster but track ramps more
	// loosely.
	FluidTick float64
	// FluidSampleRate is the fraction of the client population kept as
	// real discrete request chains in fluid mode (0.02 by default).
	FluidSampleRate float64
	// FluidMinSampled floors the sampled population in fluid mode
	// (8 by default), so small phases still produce a live stream.
	FluidMinSampled int
	// NodeCPU overrides the per-node CPU capacity in abstract
	// CPU-seconds per second (1.0 by default, the paper's testbed
	// machine). Million-client runs use datacenter-class values.
	NodeCPU float64
	// MTBFSeconds, when positive, injects node crashes on random tier
	// replicas with exponentially distributed inter-failure times —
	// the availability-under-churn experiment for the self-recovery
	// manager (enable Recovery alongside).
	MTBFSeconds float64
	// Nodes is the cluster size (9 by default, as in the paper).
	Nodes int
	// AppSizing and DBSizing parameterize the two control loops.
	AppSizing, DBSizing SizingConfig
	// MaxAppReplicas / MaxDBReplicas cap the tiers (2 and 3 in the
	// paper's testbed).
	MaxAppReplicas, MaxDBReplicas int
	// ThrashThreshold / ThrashFactor configure the nodes' overload
	// regime (reproducing the database thrashing of Fig. 6/8). Zero
	// threshold disables thrashing.
	ThrashThreshold int
	ThrashFactor    float64
	// DrainSeconds extends the run after the profile ends so in-flight
	// work completes.
	DrainSeconds float64
	// FailAt (with FailComponent) crashes a component's node at the
	// given time after the workload starts; used by the self-recovery
	// demonstrations.
	FailAt        float64
	FailComponent string
	// ADL overrides the deployed architecture (ThreeTierADL by default).
	// It must contain plb1, tomcat1, cjdbc1 and mysql1.
	ADL string
	// Routing selects the per-tier backend-selection policies (the zero
	// value keeps each tier's historic default: weighted-round-robin L4,
	// round-robin PLB, least-pending C-JDBC reads).
	Routing RoutingConfig
	// AppReplicas / DBReplicas name the initial replica components of the
	// managed tiers (["tomcat1"] / ["mysql1"] by default). Every name
	// must exist in the deployed ADL; scenarios over wider architectures
	// (e.g. GrayFailureADL) list all their starting replicas here.
	AppReplicas, DBReplicas []string
	// Invariants enables the invariant-checking harness: the registered
	// checkers (C-JDBC consistency, node conservation, balancer
	// agreement, Fractal lifecycle, arbiter legality) run every
	// InvariantPeriod seconds and at every reconfiguration boundary.
	// The first violation freezes the run at the violation instant and
	// is reported in ScenarioResult.InvariantViolation.
	Invariants bool
	// InvariantPeriod is the harness ticker period (1 s by default).
	InvariantPeriod float64
	// Arbitrate replaces the shared inhibitor with the conflict
	// arbitration manager: sizing actuates at PriorityOptimization,
	// recovery at PriorityRecovery, so repairs may preempt sizing's
	// quiet window but never the reverse.
	Arbitrate bool
	// Chaos is a declarative failure schedule (crash/reboot/slow/
	// partition events), applied relative to workload start. Unlike
	// MTBFSeconds it is fully deterministic: the same schedule and seed
	// reproduce the same run.
	Chaos invariant.Schedule
	// Net enables and configures the simulated network fabric: when
	// Net.Enabled, every inter-tier call and heartbeat becomes a message
	// with latency, jitter, loss and partitionability, tier RPCs gain
	// timeout/retry budgets, and (with Recovery) the perfect failure
	// oracle is replaced by the heartbeat suspicion detector.
	Net netsim.Config
	// ChaosHandler, when set, receives Chaos events whose Kind this
	// package does not implement and reports whether it handled them.
	// Tests use it to inject deliberately broken actuations.
	ChaosHandler func(res *ScenarioResult, ev invariant.Event) bool
	// TraceRequests, when positive, opens a causal root span for every
	// N-th client request (request -> forward -> app -> sql), bounding
	// the span store on long runs. Decision/actuation spans and the
	// management event stream are always recorded regardless.
	TraceRequests int
	// TraceOff disables the telemetry bus for this run. Sweeps and
	// benchmarks use it: instrumentation becomes near-free and the
	// simulation schedule is unchanged, but the result carries no trace
	// (violation artifacts lose their event tail).
	TraceOff bool
	// MetricsDir, when set, writes a metrics snapshot in Prometheus text
	// and JSON format (metrics-t<time>.prom/.json) every MetricsInterval
	// virtual seconds, plus a final snapshot at run end.
	MetricsDir string
	// MetricsInterval is the snapshot period in virtual seconds (60 by
	// default). The snapshot ticker runs in every scenario regardless of
	// MetricsDir/HTTPAddr, so the event schedule never depends on whether
	// anyone is watching; page rendering is skipped when unused.
	MetricsInterval float64
	// HTTPAddr, when set (e.g. ":8080" or "127.0.0.1:0"), serves the live
	// admin endpoint for the duration of the run: /metrics, /metrics.json,
	// /healthz, /components and /loops. Handlers read only immutable pages
	// published by the simulation at snapshot ticks, so a scraper can
	// never perturb the run. The server stays up after RunScenario
	// returns (final pages published); close it via ScenarioResult.Admin.
	HTTPAddr string
	// AdminReady, when set with HTTPAddr, receives the bound address as
	// soon as the listener is up (useful with ephemeral ports).
	AdminReady func(addr string)
	// SLOs overrides the evaluated service-level objectives
	// (DefaultSLOs() when nil). Objectives without a Probe get the
	// standard scenario probe for their Kind/Tier.
	SLOs []SLObjective
	// SLOInterval is the objective evaluation window in virtual seconds
	// (10 by default).
	SLOInterval float64
	// Alerting configures the burn-rate/anomaly alerting plane. The zero
	// value means enabled with defaults; set Alerting.Disabled to turn
	// rule evaluation off. The evaluation ticker runs either way and the
	// rules only read existing measurement streams, so the simulation
	// trajectory is identical with alerting on or off.
	Alerting alert.Config
	// Operator is the scripted live-configuration schedule: each event
	// applies a refreshable-config patch through the run's refresh hub at
	// an exact virtual time after workload start. Headless runs use it to
	// replay live retunes byte-identically.
	Operator OperatorSchedule
	// SLOTargets overrides objective bounds by name at scenario start and
	// seeds the refreshable checks.slo_targets view, so /config patches
	// and operator events can retarget objectives mid-run.
	SLOTargets map[string]float64
	// Pace, when positive, slows the simulation to Pace virtual seconds
	// per wall-clock second (serve-mode only: it gives a human a real
	// window to curl the admin endpoint mid-run). The pacing callback
	// only sleeps — it never touches simulation state — but it does add
	// a once-per-virtual-second event, so paced runs are only
	// trajectory-comparable to other paced runs.
	Pace float64
	// Monitor arms the φ-accrual heartbeat detector purely as a signal
	// source even without Recovery: the initial app/db replicas are
	// watched, suspicions feed routing and the incident timelines, but
	// nothing repairs. Requires Net.Enabled; ignored when Recovery
	// already created a detector.
	Monitor bool
	// Logf receives management log lines (optional).
	Logf func(string, ...any)
}

// Workload modes (ScenarioConfig.WorkloadMode).
const (
	// WorkloadDiscrete simulates every client request as a discrete
	// event chain through the tiers (the default, and the seed's only
	// mode).
	WorkloadDiscrete = "discrete"
	// WorkloadFluid runs the hybrid fluid/discrete engine: tiers
	// exchange request rates and queue-theoretic latency/CPU estimates
	// each FluidTick, discrete events carry management actions, faults,
	// network messages and a sampled request stream.
	WorkloadFluid = "fluid"
	// WorkloadAuto selects fluid when the profile's peak population
	// reaches FluidAutoClients, discrete otherwise.
	WorkloadAuto = "auto"
)

// FluidAutoClients is the population at which WorkloadAuto switches
// from discrete to fluid: above a few thousand clients per-request
// event chains dominate the event budget, below it the discrete engine
// is both exact and fast enough.
const FluidAutoClients = 5000

// fluidCalibrationSamples is the Monte Carlo sample count used to
// calibrate the mix's mean per-request demand (Mix.FluidDemand).
const fluidCalibrationSamples = 4096

// resolveWorkloadMode maps a ScenarioConfig mode string to the fluid
// on/off decision.
func resolveWorkloadMode(mode string, profile Profile) (bool, error) {
	switch mode {
	case "", WorkloadDiscrete:
		return false, nil
	case WorkloadFluid:
		return true, nil
	case WorkloadAuto:
		return profile.Max() >= FluidAutoClients, nil
	}
	return false, fmt.Errorf("jade: unknown workload mode %q (want discrete, fluid or auto)", mode)
}

// DefaultSLOs returns the paper scenario's service-level objectives:
// client p95 latency under 2 s, client abandon rate under 1%, and both
// managed tiers' smoothed CPU under 0.90 (just above the reactors' 0.80
// grow threshold, so sustained saturation shows up as non-compliance).
func DefaultSLOs() []SLObjective {
	return []SLObjective{
		{Name: "client-latency-p95", Tier: "client", Kind: obs.LatencyPercentile,
			Percentile: 0.95, Max: 2.0, Min: obs.Unbounded()},
		{Name: "client-abandon-rate", Tier: "client", Kind: obs.AbandonRate,
			Max: 0.01, Min: obs.Unbounded()},
		{Name: "app-cpu-band", Tier: "app", Kind: obs.CPUBand,
			Max: 0.90, Min: obs.Unbounded()},
		{Name: "db-cpu-band", Tier: "db", Kind: obs.CPUBand,
			Max: 0.90, Min: obs.Unbounded()},
	}
}

// windowValues returns the series values with timestamps in [t0, t1),
// using binary search over the time-ordered points.
func windowValues(s *metrics.Series, t0, t1 float64) []float64 {
	if s == nil || len(s.Points) == 0 {
		return nil
	}
	pts := s.Points
	lo := sort.Search(len(pts), func(i int) bool { return pts[i].T >= t0 })
	var out []float64
	for _, p := range pts[lo:] {
		if p.T >= t1 {
			break
		}
		out = append(out, p.V)
	}
	return out
}

// sortedKeys returns the map's keys in sorted order, so map-driven
// application loops stay deterministic.
func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// DefaultScenario returns the paper's §5.2 configuration.
func DefaultScenario(seed int64, managed bool) ScenarioConfig {
	return ScenarioConfig{
		Seed:            seed,
		Managed:         managed,
		Profile:         PaperRamp(),
		ThinkTime:       7,
		Nodes:           9,
		AppSizing:       AppSizingDefaults(),
		DBSizing:        DBSizingDefaults(),
		MaxAppReplicas:  2,
		MaxDBReplicas:   3,
		ThrashThreshold: 60,
		ThrashFactor:    0.08,
		DrainSeconds:    60,
	}
}

// TierTrace holds one tier's observability for the figures.
type TierTrace struct {
	// CPURaw is the per-second spatial average CPU usage.
	CPURaw *Series
	// CPUSmoothed is the moving average the reactor sees.
	CPUSmoothed *Series
	// Replicas is the replica count over time.
	Replicas *Series
	// Min and Max are the thresholds in force (0 when unmanaged).
	Min, Max float64
}

// ScenarioResult is everything the figures and tables read.
type ScenarioResult struct {
	Config ScenarioConfig

	// Stats are the client emulator's measurements (latency, workload,
	// throughput, per-interaction aggregates).
	Stats *WorkloadStats
	// App and DB trace the two managed tiers.
	App, DB TierTrace

	// NodeCPUPercent / NodeMemPercent are run averages across the nodes
	// hosting components (Table 1's resource columns).
	NodeCPUPercent float64
	NodeMemPercent float64

	// Reconfigurations counts completed grows+shrinks (0 unmanaged).
	Reconfigurations int
	// Repairs counts completed self-recovery repairs.
	Repairs uint64
	// InjectedFailures counts chaos-injected node crashes (MTBFSeconds).
	InjectedFailures int
	// PeakNodesUsed is the high-water mark of allocated nodes.
	PeakNodesUsed int
	// NodeSeconds integrates allocated nodes over the workload — the
	// resource bill the paper's dynamic provisioning reduces.
	NodeSeconds float64
	// WorkloadStart/WorkloadEnd delimit the emulation in virtual time.
	WorkloadStart, WorkloadEnd float64

	// InvariantViolation is the first invariant violation observed, or
	// nil (always nil when Invariants is off). A violation freezes the
	// simulation, so the series and stats end at the violation instant.
	InvariantViolation *invariant.Violation
	// InvariantChecks counts individual checker evaluations performed.
	InvariantChecks uint64

	// Net summarizes the simulated network's message accounting (all
	// zero when the fabric is disabled).
	Net netsim.Stats
	// Detector summarizes the suspicion detector's behavior — including
	// its mistakes (nil unless Recovery ran over an enabled fabric).
	Detector *netsim.DetectorStats
	// RepairDiscards / RepairsConfirmedLegal count replicas discarded by
	// repairs and how many of those discards the double-repair invariant
	// verified dead (only populated with Invariants on).
	RepairDiscards        int
	RepairsConfirmedLegal uint64

	// SLOReport is the post-run compliance report over the evaluated
	// objectives.
	SLOReport *obs.SLOReport
	// Alerts is the run's alerting plane: fired alerts, correlated
	// incidents, and the deterministic alerts.jsonl / incidents.json
	// exporters (never nil; empty when Alerting.Disabled).
	Alerts *alert.Engine
	// RequestLatency is the client-perceived end-to-end latency
	// histogram (exact quantiles via RequestLatency.Quantile).
	RequestLatency *obs.Histogram
	// Fluid is the fluid network's run summary when the run used
	// WorkloadFluid (nil in discrete mode): completed flow, peak offered
	// rate and per-station peak utilization/backlog.
	Fluid *FluidReport
	// Attribution decomposes every traced request's end-to-end latency
	// into per-tier queue/service/network/retry components (nil unless
	// TraceRequests > 0 and tracing is on).
	Attribution *attrib.Analysis
	// LatencyBudget aggregates Attribution into deterministic
	// per-interaction-class budget profiles with a critical-path
	// summary; in fluid mode the stations' wait estimates are merged in
	// so million-client runs render the same report shape (nil when
	// neither source is available).
	LatencyBudget *attrib.Report
	// ConfigChanges logs every live configuration change that reached the
	// refresh hub (operator schedule, chaos config events, admin POSTs),
	// in application order; rejected patches carry their error.
	ConfigChanges []ConfigChange
	// Admin is the live admin endpoint, still serving the final published
	// pages (nil without HTTPAddr). Callers own closing it.
	Admin *obs.AdminServer
	// AdminAddr is the admin endpoint's bound address ("" without
	// HTTPAddr).
	AdminAddr string

	// Platform and Deployment stay accessible for inspection.
	Platform   *Platform
	Deployment *Deployment
	AppManager *SizingManager
	DBManager  *SizingManager
}

// Trace returns the run's telemetry bus (events, spans, exporters).
func (r *ScenarioResult) Trace() *trace.Tracer { return r.Platform.Trace() }

// MeanLatency returns the mean request latency over the workload, in
// seconds.
func (r *ScenarioResult) MeanLatency() float64 {
	return r.Stats.LatencySummary().Mean
}

// Throughput returns completed requests per second over the workload.
func (r *ScenarioResult) Throughput() float64 {
	d := r.WorkloadEnd - r.WorkloadStart
	if d <= 0 {
		return 0
	}
	return float64(r.Stats.Completed) / d
}

// RunScenario executes one full evaluation run in virtual time.
//
// The run is assembled plane by plane over one set of shared handles.
// The call order below is part of the trajectory: every installer
// registers its tickers and timers and draws from the engine RNG in
// turn, and the engine's sequence numbers break same-instant ties in
// registration order (see DESIGN.md, "Scenario assembly").
func RunScenario(cfg ScenarioConfig) (*ScenarioResult, error) {
	a, err := assemble(cfg)
	if err != nil {
		return nil, err
	}
	if err := a.installManagers(); err != nil {
		return nil, err
	}
	a.installDetection()
	a.installInvariants()
	a.installAccounting()
	if err := a.installWorkload(); err != nil {
		return nil, err
	}
	a.installSLO()
	a.installAlerting()
	a.installRefresh()
	if err := a.installPublisher(); err != nil {
		return nil, err
	}
	a.installFaults()
	return a.run()
}

// assembly is one scenario run under construction: the handles its
// plane installers share. Each installer reads what earlier planes set
// and adds its own handles.
type assembly struct {
	cfg     ScenarioConfig
	fluidOn bool
	res     *ScenarioResult
	p       *Platform
	dep     *Deployment
	fabric  *netsim.Fabric // nil unless cfg.Net.Enabled
	appTier *AppTier
	dbTier  *DBTier
	// The balancing tiers' wrappers, resolved once after deployment.
	plb   *core.PLBWrapper
	cjdbc *core.CJDBCWrapper
	l4    *core.L4Wrapper // nil without an "l4" component

	appReplicas, dbReplicas []string
	arb                     *core.Arbiter
	recMgr                  *RecoveryManager
	detector                *netsim.Detector
	harness                 *invariant.Harness
	doubleRepair            *invariant.DoubleRepair
	// Table 1 accounting: per-sample CPU and memory fraction sums.
	cpuSum, memSum float64
	samples        int
	fnet           *fluid.Network
	em             *Emulator
	slo            *obs.SLOEngine
	objs           []SLObjective
	aeng           *alert.Engine
	hub            *refresh.Hub
	crt            *configRuntime
	pub            *obs.Publisher
	artifacts      []artifact
	snapshot       func(now float64)
	writeErr       error
}

// assemble fills in the configuration's defaults, builds the platform
// (with the network fabric, so even the initial recovery-log joins
// travel over it), deploys the architecture and resolves the tiers and
// the balancing wrappers every later plane uses.
func assemble(cfg ScenarioConfig) (*assembly, error) {
	cfg.Profile = cmp.Or[Profile](cfg.Profile, PaperRamp())
	cfg.Mix = cmp.Or(cfg.Mix, BiddingMix())
	if cfg.Dataset == nil {
		d := DefaultDataset()
		cfg.Dataset = &d
	}
	cfg.ThinkTime = cmp.Or(cfg.ThinkTime, 7)
	cfg.Nodes = cmp.Or(cfg.Nodes, 9)
	if cfg.AppSizing.Period == 0 {
		cfg.AppSizing = AppSizingDefaults()
	}
	if cfg.DBSizing.Period == 0 {
		cfg.DBSizing = DBSizingDefaults()
	}
	cfg.DrainSeconds = cmp.Or(cfg.DrainSeconds, 60)
	cfg.FluidTick = cmp.Or(cfg.FluidTick, 1)
	cfg.FluidSampleRate = cmp.Or(cfg.FluidSampleRate, 0.02)
	cfg.FluidMinSampled = cmp.Or(cfg.FluidMinSampled, 8)
	cfg.NodeCPU = cmp.Or(cfg.NodeCPU, 1.0)
	fluidOn, err := resolveWorkloadMode(cfg.WorkloadMode, cfg.Profile)
	if err != nil {
		return nil, err
	}
	if cfg.FluidTick < 0 || cfg.FluidSampleRate < 0 || cfg.FluidSampleRate > 1 || cfg.NodeCPU < 0 {
		return nil, fmt.Errorf("jade: bad fluid parameters (tick %g, sample rate %g, node cpu %g)",
			cfg.FluidTick, cfg.FluidSampleRate, cfg.NodeCPU)
	}
	if err := cfg.Routing.Validate(); err != nil {
		return nil, err
	}

	popts := core.DefaultOptions()
	popts.Seed = cfg.Seed
	popts.Nodes = cfg.Nodes
	popts.Routing = cfg.Routing
	popts.NodeConfig = cluster.Config{
		CPUCapacity:     cfg.NodeCPU,
		MemoryMB:        1024,
		ThrashThreshold: cfg.ThrashThreshold,
		ThrashFactor:    cfg.ThrashFactor,
	}
	if !cfg.Managed {
		// Without Jade there are no probes and no management components.
		popts.ProbeCPUCost = 0
		popts.ManagementMemoryMB = 0
	}
	if cfg.Logf != nil {
		popts.Logf = cfg.Logf
	}
	popts.TraceDisabled = cfg.TraceOff
	a := &assembly{cfg: cfg, fluidOn: fluidOn, p: NewPlatform(popts)}
	p := a.p
	if cfg.Net.Enabled {
		a.fabric = netsim.New(p.Eng, cfg.Net, cfg.Seed)
		a.fabric.Instrument(p.Trace(), p.Metrics())
		p.Net.SetTransport(a.fabric)
	}

	dump, err := cfg.Dataset.InitialDatabase(cfg.Seed)
	if err != nil {
		return nil, err
	}
	p.RegisterDump("rubis", dump)
	def, err := ParseADL(cmp.Or(cfg.ADL, ThreeTierADL))
	if err != nil {
		return nil, err
	}
	derr := errors.New("jade: deployment did not complete")
	p.Deploy(def, func(d *Deployment, err error) { a.dep, derr = d, err })
	p.Eng.Run()
	if derr != nil {
		return nil, derr
	}

	a.appReplicas, a.dbReplicas = cfg.AppReplicas, cfg.DBReplicas
	if len(a.appReplicas) == 0 {
		a.appReplicas = []string{"tomcat1"}
	}
	if len(a.dbReplicas) == 0 {
		a.dbReplicas = []string{"mysql1"}
	}
	if a.appTier, err = NewAppTier(p, a.dep, "plb1", "cjdbc1", a.appReplicas); err != nil {
		return nil, err
	}
	if a.dbTier, err = NewDBTier(p, a.dep, "cjdbc1", a.dbReplicas); err != nil {
		return nil, err
	}
	a.plb = a.dep.MustComponent("plb1").Content().(*core.PLBWrapper)
	a.cjdbc = a.dep.MustComponent("cjdbc1").Content().(*core.CJDBCWrapper)
	if c, err := a.dep.Component("l4"); err == nil {
		a.l4, _ = c.Content().(*core.L4Wrapper)
	}

	a.res = &ScenarioResult{Config: cfg, Platform: p, Deployment: a.dep}
	a.res.App.Min, a.res.App.Max = cfg.AppSizing.Min, cfg.AppSizing.Max
	a.res.DB.Min, a.res.DB.Max = cfg.DBSizing.Min, cfg.DBSizing.Max
	return a, nil
}

// appPool is the PLB balancer's selector pool (nil while it is down).
func (a *assembly) appPool() *selector.Pool {
	if b := a.plb.Balancer(); b != nil {
		return b.Pool()
	}
	return nil
}

// dbPool is the C-JDBC controller's read pool (nil while it is down).
func (a *assembly) dbPool() *selector.Pool {
	if ctl := a.cjdbc.Controller(); ctl != nil {
		return ctl.Pool()
	}
	return nil
}

// newDetector builds the run's φ-accrual heartbeat detector.
func (a *assembly) newDetector() *netsim.Detector {
	a.detector = netsim.NewDetector(a.p.Eng, a.fabric, a.cfg.Net.Heartbeat)
	a.detector.Instrument(a.p.Trace(), a.p.Metrics())
	return a.detector
}

// installManagers starts the two self-optimization loops (with the
// arbiter and the self-recovery manager when asked for), or, unmanaged,
// the same CPU sensors as passive observers.
func (a *assembly) installManagers() error {
	p, res := a.p, a.res
	if !a.cfg.Managed {
		// Passive observation: same sensors, zero probe cost, no reactor.
		appSensor := core.NewCPUSensor(a.appTier.Nodes, a.cfg.AppSizing.Window, 0)
		dbSensor := core.NewCPUSensor(a.dbTier.Nodes, a.cfg.DBSizing.Window, 0)
		res.App.CPURaw, res.App.CPUSmoothed = appSensor.Raw, appSensor.Smoothed
		res.DB.CPURaw, res.DB.CPUSmoothed = dbSensor.Raw, dbSensor.Smoothed
		res.App.Replicas = metrics.NewSeries("application-servers-replicas")
		res.App.Replicas.Add(p.Eng.Now(), 1)
		res.DB.Replicas = metrics.NewSeries("database-backends-replicas")
		res.DB.Replicas.Add(p.Eng.Now(), 1)
		p.Eng.Every(1, "observe", func(now float64) {
			appSensor.Sample(now)
			dbSensor.Sample(now)
		})
		return nil
	}
	a.cfg.AppSizing.MaxReplicas = a.cfg.MaxAppReplicas
	a.cfg.DBSizing.MaxReplicas = a.cfg.MaxDBReplicas
	shared := &Inhibitor{}
	appMgr, err := NewSizingManager(p, "self-optimization-app", a.appTier, a.cfg.AppSizing, shared)
	if err != nil {
		return err
	}
	dbMgr, err := NewSizingManager(p, "self-optimization-db", a.dbTier, a.cfg.DBSizing, shared)
	if err != nil {
		return err
	}
	if a.cfg.Arbitrate {
		a.arb = core.NewArbiter(a.cfg.AppSizing.InhibitSeconds)
		a.arb.Trace = p.Trace()
		appMgr.Reactor.Arbiter = a.arb
		dbMgr.Reactor.Arbiter = a.arb
	}
	if err := appMgr.Loop.Start(); err != nil {
		return err
	}
	if err := dbMgr.Loop.Start(); err != nil {
		return err
	}
	res.AppManager, res.DBManager = appMgr, dbMgr
	res.App.CPURaw, res.App.CPUSmoothed = appMgr.Sensor.Raw, appMgr.Sensor.Smoothed
	res.DB.CPURaw, res.DB.CPUSmoothed = dbMgr.Sensor.Raw, dbMgr.Sensor.Smoothed
	res.App.Replicas = appMgr.Replicas
	res.DB.Replicas = dbMgr.Replicas
	if !a.cfg.Recovery {
		return nil
	}
	rec, err := NewRecoveryManager(p, "self-recovery", 1, a.appTier, a.dbTier)
	if err != nil {
		return err
	}
	rec.Arbiter = a.arb
	if a.fabric.Enabled() {
		// With a real network the perfect oracle gives way to the
		// heartbeat suspicion detector: detection is now late and
		// sometimes wrong, as on the paper's LAN.
		rec.Suspector = a.newDetector()
	}
	if err := rec.Loop.Start(); err != nil {
		return err
	}
	a.recMgr = rec
	return nil
}

// installDetection arms the monitoring-only detector when recovery did
// not create one, and feeds the detector's verdicts into the balancer
// pools once per second: suspected replicas leave rotation (probe
// requests bring them back in), cleared suspicions restore them.
func (a *assembly) installDetection() {
	if a.detector == nil && a.cfg.Monitor && a.fabric.Enabled() {
		// The detector watches the initial replicas as a signal source
		// (suspicion routing, incident timelines, the alert-latency
		// comparison) without any repair acting on it.
		det := a.newDetector()
		for _, name := range append(append([]string{}, a.appReplicas...), a.dbReplicas...) {
			if node, err := a.dep.NodeOf(name); err == nil {
				det.Monitor(name, node)
			}
		}
	}
	if a.detector == nil {
		return
	}
	a.p.Eng.Every(1, "route-suspicions", func(float64) {
		for _, pl := range []*selector.Pool{a.appPool(), a.dbPool()} {
			if pl != nil {
				pl.SyncSuspicions(a.detector)
			}
		}
	})
}

// installInvariants registers the invariant checkers, run every
// InvariantPeriod and at every reconfiguration boundary.
func (a *assembly) installInvariants() {
	if !a.cfg.Invariants {
		return
	}
	p, dep := a.p, a.dep
	a.harness = invariant.NewHarness(p.Eng)
	a.harness.Tail = p.Trace().Tail
	if a.cfg.InvariantPeriod > 0 {
		a.harness.Period = a.cfg.InvariantPeriod
	}
	componentState := func(name string) (fractal.State, error) {
		c, err := dep.Component(name)
		if err != nil {
			return fractal.Stopped, err
		}
		return c.State(), nil
	}
	appAgree := invariant.NewBalancerAgreement("plb1/"+a.appTier.TierName(), func() []string {
		b := a.plb.Balancer()
		if b == nil || !b.Running() {
			return nil
		}
		return b.Workers()
	}, a.appTier)
	appAgree.Pendings = func() map[string]int {
		if pl := a.appPool(); pl != nil {
			return pl.Pendings()
		}
		return nil
	}
	dbAgree := invariant.NewBalancerAgreement("cjdbc1/"+a.dbTier.TierName(), func() []string {
		ctl := a.cjdbc.Controller()
		if ctl == nil || !ctl.Running() {
			return nil
		}
		names := []string{}
		for _, b := range ctl.Backends() {
			if b.State == cjdbc.Active {
				names = append(names, b.Name)
			}
		}
		return names
	}, a.dbTier)
	for _, agree := range []*invariant.BalancerAgreement{appAgree, dbAgree} {
		agree.ComponentState = componentState
		agree.NodeOf = dep.NodeOf
	}
	a.harness.Register(
		invariant.NewCJDBCConsistency("cjdbc1", a.cjdbc.Controller),
		invariant.NewNodeConservation(p.Pool),
		appAgree,
		dbAgree,
		invariant.NewLifecycle(dep.Root, p.ManagementRoot()),
	)
	a.doubleRepair = invariant.NewDoubleRepair()
	p.OnRepairDiscard(a.doubleRepair.Record)
	a.harness.Register(a.doubleRepair)
	if arb := a.arb; arb != nil {
		a.harness.Register(invariant.NewArbiterLegality(arb.QuietSeconds, func() []invariant.ArbiterDecisionView {
			ds := arb.Decisions()
			out := make([]invariant.ArbiterDecisionView, len(ds))
			for i, d := range ds {
				out[i] = invariant.ArbiterDecisionView{
					T:        d.T,
					Priority: d.Priority,
					Granted:  d.Granted,
					Released: d.Reason == "released",
				}
			}
			return out
		}))
	}
	p.OnReconfiguration(func(now float64, event string) { a.harness.CheckNow(event) })
	a.harness.Start()
}

// installAccounting samples Table 1's per-second CPU and memory across
// the nodes hosting components (static and dynamically added alike),
// and integrates the allocated nodes into the resource bill.
func (a *assembly) installAccounting() {
	p, res := a.p, a.res
	readers := make(map[*Node]*cluster.UtilizationReader)
	res.PeakNodesUsed = p.Pool.AllocatedCount()
	p.Eng.Every(1, "node-accounting", func(now float64) {
		var cpu, mem float64
		var n int
		for _, name := range a.dep.ComponentNames() {
			node, err := a.dep.NodeOf(name)
			if err != nil || node.Failed() {
				continue
			}
			r, ok := readers[node]
			if !ok {
				r = cluster.NewUtilizationReader(node)
				readers[node] = r
			}
			cpu += r.Read()
			mem += node.MemoryFraction()
			n++
		}
		if n > 0 {
			a.cpuSum += cpu / float64(n)
			a.memSum += mem / float64(n)
			a.samples++
		}
		alloc := p.Pool.AllocatedCount()
		res.NodeSeconds += float64(alloc)
		res.PeakNodesUsed = max(res.PeakNodesUsed, alloc)
	})
}

// installWorkload starts the client emulator, behind the network as the
// pseudo-endpoint "client" when the fabric is on. In fluid mode the
// emulator drives only a sampled fraction of the population as real
// request chains; the rest is carried as a rate flow through the
// queue-theoretic station chain, whose per-tier utilization lands on
// the member nodes as background CPU load — the same meters the sizing
// sensors read.
func (a *assembly) installWorkload() error {
	cfg, p := a.cfg, a.p
	front := a.plb.Balancer()
	driveProfile := cfg.Profile
	if a.fluidOn {
		sampled := rubis.ScaledProfile{Inner: cfg.Profile, Rate: cfg.FluidSampleRate, Min: cfg.FluidMinSampled}
		driveProfile = sampled
		demand := cfg.Mix.FluidDemand(*cfg.Dataset, cfg.Seed, fluidCalibrationSamples)
		plbModel := front.FluidModel()
		ctlModel := a.cjdbc.Controller().FluidModel()
		single := func(m fluid.ServiceModel) func() []*cluster.Node {
			return func() []*cluster.Node {
				if m.Up == nil || m.Up() {
					return []*cluster.Node{m.Node}
				}
				return nil
			}
		}
		perQuery := demand.QueriesPerRequest * ctlModel.CostPerUnit
		fixed := func(v float64) func(int) float64 { return func(int) float64 { return v } }
		thrT, thrF := cfg.ThrashThreshold, cfg.ThrashFactor
		stations := []*fluid.Station{
			{Name: "plb", Demand: fixed(plbModel.CostPerUnit), Service: fixed(plbModel.CostPerUnit), Members: single(plbModel)},
			{
				Name:            "app",
				Demand:          func(k int) float64 { return demand.App / float64(k) },
				Service:         func(int) float64 { return demand.App },
				Members:         a.appTier.Nodes,
				ThrashThreshold: thrT,
				ThrashFactor:    thrF,
			},
			{Name: "cjdbc", Demand: fixed(perQuery), Service: fixed(perQuery), Members: single(ctlModel)},
			{
				// Reads load-balance across the k replicas; RAIDb-1
				// broadcasts every write to all of them.
				Name:            "db",
				Demand:          func(k int) float64 { return demand.DBRead/float64(k) + demand.DBWrite },
				Service:         func(int) float64 { return demand.DBRead + demand.DBWrite },
				Members:         a.dbTier.Nodes,
				ThrashThreshold: thrT,
				ThrashFactor:    thrF,
			},
		}
		start := p.Eng.Now()
		total, dur := cfg.Profile, cfg.Profile.Duration()
		pop := func(now float64) float64 {
			rel := now - start
			if rel < 0 || rel >= dur {
				return 0
			}
			return float64(max(total.Active(rel)-sampled.Active(rel), 0))
		}
		a.fnet = fluid.NewNetwork(fluid.Config{
			ThinkTime:    cfg.ThinkTime,
			Population:   pop,
			RecordSeries: true,
		}, stations...)
		barrier := sim.NewTickBarrier(p.Eng, cfg.FluidTick, "fluid:tick")
		barrier.Register("network", a.fnet.Tick)
		barrier.Start()
	}

	em := NewEmulator(p.Eng, p.Net.RemoteHTTP(netsim.ClientEndpoint, "front", front), cfg.Mix, driveProfile, *cfg.Dataset)
	em.ThinkTime = cfg.ThinkTime
	if a.fluidOn {
		// The workload series records the full (fluid + sampled)
		// population, so plots and SLO context keep paper-scale numbers.
		em.ReportProfile = cfg.Profile
	}
	if cfg.TraceRequests > 0 {
		em.Trace = p.Trace()
		em.TraceEvery = cfg.TraceRequests
	}
	if cfg.Sessions {
		em.Chain = rubis.DefaultTransitions()
	}
	if err := em.Start(); err != nil {
		return err
	}
	a.em = em
	a.res.WorkloadStart = p.Eng.Now()
	return nil
}

// installSLO adds the client latency histogram and the SLO engine. Its
// ticker runs unconditionally, so the event schedule is identical
// whether or not anyone watches the run.
func (a *assembly) installSLO() {
	reg := a.p.Metrics()
	a.em.Obs = obs.NewTierMetrics(reg, "client", "emulator")
	a.res.RequestLatency = a.em.Obs.Latency
	a.objs = a.cfg.SLOs
	if a.objs == nil {
		a.objs = DefaultSLOs()
	}
	for i := range a.objs {
		if a.objs[i].Probe == nil {
			a.objs[i].Probe = scenarioProbe(&a.objs[i], a.em, a.res)
		}
	}
	interval := a.cfg.SLOInterval
	if interval <= 0 {
		interval = 10
	}
	a.slo = obs.NewSLOEngine(reg, interval, a.objs)
	a.p.Eng.Every(interval, "slo-eval", a.slo.Evaluate)
	for _, name := range sortedKeys(a.cfg.SLOTargets) {
		a.slo.Retarget(name, a.cfg.SLOTargets[name])
	}
}

// installAlerting adds the alerting plane: burn-rate rules over the SLO
// evaluation stream, streaming anomaly detectors over the client
// series, pool-skew rules over the routing reservoirs, and the incident
// correlator fed by detector suspicions, control-loop decisions and
// routing evictions. The ticker runs unconditionally and every rule
// only reads existing measurement streams, so enabling alerting never
// changes the trajectory — Tick is a pure observer of the run.
func (a *assembly) installAlerting() {
	p, em := a.p, a.em
	aeng := alert.NewEngine(a.cfg.Alerting, p.Trace())
	aeng.Instrument(p.Metrics())
	a.aeng, a.res.Alerts = aeng, aeng
	if aeng.Enabled() {
		acfg := aeng.Config()
		burn := make(map[string]*alert.BurnRule, len(a.objs))
		for _, o := range a.objs {
			br := alert.NewBurnRule(acfg, o.Name, o.Tier)
			burn[o.Name] = br
			aeng.AddRule(br)
		}
		a.slo.Observer = func(now float64, name, _ string, value float64, met bool) {
			if br := burn[name]; br != nil {
				br.Observe(now, value, met)
			}
		}
		latP99 := sinceLast(scenarioProbe(&SLObjective{Kind: obs.LatencyPercentile, Percentile: 0.99}, em, a.res))
		abandonRate := sinceLast(scenarioProbe(&SLObjective{Kind: obs.AbandonRate}, em, a.res))
		aeng.AddRule(alert.NewZScoreRule(acfg, "anomaly:client-latency-p99", "client", "client", true, 0.3, latP99))
		aeng.AddRule(alert.NewRateRule(acfg, "anomaly:client-abandon-rate", "client", "client", true, 0.02, abandonRate))
		poolStats := func(pool func() *selector.Pool) func() []alert.BackendStat {
			return func() []alert.BackendStat {
				pl := pool()
				if pl == nil {
					return nil
				}
				snap := pl.Snapshot()
				out := make([]alert.BackendStat, 0, len(snap))
				for _, s := range snap {
					out = append(out, alert.BackendStat{
						Name: s.Name, MeanLatency: s.MeanLatency,
						LatencySamples: s.LatencySamples,
						Failures:       s.DecayedFails, InFlight: s.InFlight,
					})
				}
				return out
			}
		}
		aeng.AddRule(alert.NewSkewRule(acfg, "skew:app-pool", "app", 0.1, poolStats(a.appPool)))
		aeng.AddRule(alert.NewSkewRule(acfg, "skew:db-pool", "db", 0.05, poolStats(a.dbPool)))
		// Causal context for the incident timelines.
		p.OnReconfiguration(func(now float64, event string) {
			aeng.Observe(now, "loop.reconfig", "control-loop", "", event, 0)
		})
		for _, tier := range []struct {
			name string
			pool *selector.Pool
		}{{"app", a.appPool()}, {"db", a.dbPool()}} {
			if tier.pool != nil {
				tier.pool.OnEvict(func(name string) {
					aeng.Observe(p.Eng.Now(), "route.evict", "router", name, tier.name+" pool evicted "+name, 0)
				})
			}
		}
		if a.detector != nil {
			a.detector.OnTransition(func(now float64, target string, suspected, falsePositive bool) {
				kind, detail := "detector.suspect", fmt.Sprintf("phi over threshold (false positive: %v)", falsePositive)
				if !suspected {
					kind, detail = "detector.clear", "phi back under threshold"
				}
				aeng.Observe(now, kind, "detector", target, detail, 0)
			})
		}
	}
	p.Eng.Every(aeng.Config().EvalIntervalSeconds, "alert-eval", aeng.Tick)
}

// installRefresh adds live refreshable configuration: typed views over
// the refreshable sub-configs, a hub every change funnels through
// (operator schedule, chaos config events, admin POSTs), and
// subscriptions wiring each view to the live managers. Changes land at
// exact virtual ticks on the simulation goroutine and emit "config"
// trace spans, so retunes replay byte-identically with the same seed
// and schedule.
func (a *assembly) installRefresh() {
	a.hub = refresh.NewHub(a.p.Trace())
	a.crt = newConfigRuntime(a.hub, a.cfg.AppSizing, a.cfg.DBSizing, a.cfg.Routing,
		a.fabric.RPCBudgets(), a.slo.Targets(), a.aeng.Config())
	if a.cfg.Managed {
		a.res.AppManager.Watch(a.crt.appSizing)
		a.res.DBManager.Watch(a.crt.dbSizing)
	}
	a.crt.routing.Subscribe(func(now float64, old, cur RoutingConfig) {
		// Future (re)starts build pools with the new policies; live pools
		// are swapped and retuned in place, keeping backend bookkeeping.
		a.p.UpdateRouting(cur)
		retune := func(pl *selector.Pool, name string, def selector.Policy) {
			if pl == nil {
				return
			}
			if parsed, err := selector.ParsePolicy(name); name != "" && err == nil {
				def = parsed
			}
			pl.SetPolicy(def)
			pl.Retune(cur.HalfLifeSeconds, cur.ProbeAfterSeconds)
		}
		retune(a.appPool(), cur.App, selector.RoundRobin)
		retune(a.dbPool(), cur.DB, selector.LeastPending)
		if a.l4 != nil && a.l4.Switch() != nil {
			retune(a.l4.Switch().Pool(), cur.L4, selector.WeightedRoundRobin)
		}
	})
	a.crt.rpc.Subscribe(func(now float64, old, cur map[string]RPCBudget) {
		a.fabric.SetRPCBudgets(cur)
	})
	a.crt.sloTargets.Subscribe(func(now float64, old, cur map[string]float64) {
		for _, name := range sortedKeys(cur) {
			a.slo.Retarget(name, cur[name])
		}
	})
	a.crt.alerting.Subscribe(func(now float64, old, cur AlertConfig) {
		a.aeng.Retune(cur)
	})
}

// artifact is one rendered document of the run: an admin page refreshed
// at every snapshot tick, a file written into MetricsDir at run end, or
// both.
type artifact struct {
	page, file string
	// render returns the document; nil means there is no file to write.
	render func(now float64) []byte
}

// artifactTable lists every published page and end-of-run file.
func (a *assembly) artifactTable() []artifact {
	fluidFile := ""
	if a.fnet != nil {
		fluidFile = "fluid.json"
	}
	return []artifact{
		{page: "/components", render: a.componentsPage},
		{page: "/loops", render: a.loopsPage},
		{page: "/healthz", render: a.healthPage},
		{page: "/alerts", render: a.aeng.AlertsPage},
		// Copied so a run without alerts still writes an empty file.
		{file: "alerts.jsonl", render: func(float64) []byte { return append([]byte{}, a.aeng.AlertsJSONL()...) }},
		{page: "/incidents", file: "incidents.json", render: a.aeng.IncidentsJSON},
		{file: "slo_report.json", render: func(float64) []byte { return jsonDoc(a.res.SLOReport) }},
		{file: "latency_budget.json", render: func(float64) []byte {
			if a.res.LatencyBudget == nil {
				return nil
			}
			return a.res.LatencyBudget.Marshal()
		}},
		{page: "/fluid", file: fluidFile, render: a.fluidPage},
		{page: "/config", file: "config.json", render: a.crt.renderPage},
	}
}

// writeFile writes one artifact into MetricsDir, keeping the first error.
func (a *assembly) writeFile(name string, data []byte) {
	if err := os.WriteFile(filepath.Join(a.cfg.MetricsDir, name), data, 0o644); err != nil && a.writeErr == nil {
		a.writeErr = err
	}
}

// installPublisher adds the admin plane: the config-drain ticker, the
// live admin endpoint and the snapshot publisher, which refreshes the
// plane gauges, the admin pages and the metrics-dir snapshots.
func (a *assembly) installPublisher() error {
	cfg, p, res := a.cfg, a.p, a.res
	if cfg.MetricsDir != "" {
		if err := os.MkdirAll(cfg.MetricsDir, 0o755); err != nil {
			return err
		}
	}
	a.pub = obs.NewPublisher()
	a.pub.SetPostHandler("/config", a.crt.handleConfigPost)
	// The drain ticker runs unconditionally (like every other plane's
	// ticker) so the event schedule never depends on HTTPAddr; without an
	// admin endpoint no submission can ever be pending, so headless runs
	// drain nothing. Live POSTs are wall-clock-timed — headless replays
	// script the same changes via cfg.Operator instead.
	p.Eng.Every(1, "config-drain", func(now float64) {
		if a.hub.Drain(now) > 0 {
			// Refresh the /config page right away so a live `jadectl
			// config get` sees its own set without waiting for the next
			// metrics snapshot. Only live submissions reach this branch,
			// so headless trajectories are untouched.
			a.pub.Set("/config", a.crt.renderPage(now))
		}
	})
	if cfg.HTTPAddr != "" {
		admin, err := obs.StartAdmin(cfg.HTTPAddr, a.pub)
		if err != nil {
			return err
		}
		res.Admin, res.AdminAddr = admin, admin.Addr()
		if cfg.AdminReady != nil {
			cfg.AdminReady(admin.Addr())
		}
	}
	interval := cfg.MetricsInterval
	if interval <= 0 {
		interval = 60
	}
	// Trace-plane loss counters: silent span/event drops would undermine
	// any attribution built on spans, so they are first-class metrics.
	reg := p.Metrics()
	traceDropped := reg.Counter("jade_trace_dropped_spans_total", "Spans refused because the span store was full.")
	traceEvicted := reg.Counter("jade_trace_evicted_events_total", "Events evicted from the trace ring buffer.")
	var prevDropped, prevEvicted uint64
	// Fluid-engine internals: per-station utilization/backlog/wait gauges
	// refreshed at every snapshot tick (flat zeros in discrete mode keep
	// the exposition shape identical across workload engines).
	type fluidGauge struct {
		g    *obs.Gauge
		read func() float64
	}
	var gauges []fluidGauge
	if a.fnet != nil {
		for _, s := range a.fnet.Stations() {
			lbl := obs.L("station", s.Name)
			for _, m := range []struct {
				name, help string
				read       func() float64
			}{
				{"jade_fluid_rho", "Fluid station member utilization last tick.", s.Rho},
				{"jade_fluid_backlog", "Fluid station backlog beyond capacity (requests).", s.Backlog},
				{"jade_fluid_wait_seconds", "Fluid station per-request latency estimate.", s.Wait},
				{"jade_fluid_peak_rho", "Fluid station peak member utilization.", s.PeakRho},
				{"jade_fluid_peak_wait_seconds", "Fluid station peak latency estimate.", s.PeakWait},
			} {
				gauges = append(gauges, fluidGauge{reg.Gauge(m.name, m.help, lbl), m.read})
			}
		}
	}
	a.artifacts = a.artifactTable()
	a.snapshot = func(now float64) {
		st := p.Trace().Stat()
		traceDropped.Add(st.SpansDropped - prevDropped)
		traceEvicted.Add(st.EventsEvicted - prevEvicted)
		prevDropped, prevEvicted = st.SpansDropped, st.EventsEvicted
		for _, g := range gauges {
			g.g.Set(g.read())
		}
		if res.Admin == nil && cfg.MetricsDir == "" {
			return // nobody watching: skip rendering, keep the schedule
		}
		snap := reg.Snapshot()
		prom, js := obs.PrometheusText(snap), obs.MetricsJSON(snap)
		a.pub.Set("/metrics", prom)
		a.pub.Set("/metrics.json", js)
		for _, art := range a.artifacts {
			if art.page != "" {
				a.pub.Set(art.page, art.render(now))
			}
		}
		if cfg.MetricsDir != "" {
			base := fmt.Sprintf("metrics-t%08d", int64(math.Round(now)))
			a.writeFile(base+".prom", prom)
			a.writeFile(base+".json", js)
		}
	}
	a.snapshot(p.Eng.Now())
	p.Eng.Every(interval, "obs-snapshot", a.snapshot)
	return nil
}

// installFaults schedules the fault planes — the one-off failure, the
// chaos schedule, the operator retunes and MTBF churn — and the
// optional wall-clock pacing.
func (a *assembly) installFaults() {
	cfg, p, start := a.cfg, a.p, a.res.WorkloadStart
	if cfg.FailComponent != "" {
		p.Eng.After(cfg.FailAt, "inject-failure", func() {
			if node, err := a.dep.NodeOf(cfg.FailComponent); err == nil {
				node.Fail()
			}
		})
	}
	crashed := map[string]*cluster.Node{}
	for _, ev := range cfg.Chaos.Sorted() {
		p.Eng.At(start+ev.At, "chaos:"+string(ev.Kind), func() { a.chaos(ev, crashed) })
	}
	for _, ev := range cfg.Operator.Sorted() {
		p.Eng.At(start+ev.At, "config:operator", func() { a.applyPatch(refresh.SourceOperator, ev.Patch) })
	}
	if cfg.Pace > 0 {
		wallStart := time.Now()
		p.Eng.Every(1, "pace", func(now float64) {
			target := time.Duration(float64(time.Second) * (now - start) / cfg.Pace)
			if ahead := target - time.Since(wallStart); ahead > 0 {
				time.Sleep(ahead)
			}
		})
	}
	if cfg.MTBFSeconds > 0 {
		a.scheduleCrash()
	}
}

// applyPatch applies one live-configuration patch through the refresh
// hub and logs the outcome under its source.
func (a *assembly) applyPatch(source string, patch json.RawMessage) {
	if err := a.hub.Apply(a.p.Eng.Now(), source, patch); err != nil {
		a.p.Logf("%s: config patch rejected: %v", source, err)
	} else {
		a.p.Logf("%s: applied config patch %s", source, patch)
	}
}

// crash fails node (nil or already failed: nothing happens) and counts
// the injected failure.
func (a *assembly) crash(node *cluster.Node, target string) bool {
	if node == nil || node.Failed() {
		return false
	}
	a.p.Logf("chaos: crashing %s (%s)", node.Name(), target)
	node.Fail()
	a.res.InjectedFailures++
	return true
}

// chaos fires one chaos event. Targets resolve at fire time: a
// component discarded by a repair no longer resolves, and a Reboot names
// the node its earlier Crash actually hit.
func (a *assembly) chaos(ev invariant.Event, crashed map[string]*cluster.Node) {
	p, fabric := a.p, a.fabric
	resolve := func(target string) *cluster.Node {
		if node, err := a.dep.NodeOf(target); err == nil {
			return node
		}
		if node, ok := p.Pool.Lookup(target); ok {
			return node
		}
		return nil
	}
	switch ev.Kind {
	case invariant.Crash:
		if node := resolve(ev.Target); a.crash(node, ev.Target) {
			crashed[ev.Target] = node
		}
	case invariant.Reboot:
		node := crashed[ev.Target]
		if node == nil {
			node = resolve(ev.Target)
		}
		if node != nil && node.Failed() {
			p.Logf("chaos: rebooting %s (%s)", node.Name(), ev.Target)
			node.Reboot()
		}
	case invariant.Slow:
		node := resolve(ev.Target)
		if node == nil || node.Failed() {
			return
		}
		dur := ev.Duration
		if dur <= 0 {
			dur = 60
		}
		p.Logf("chaos: slowing %s (%s) for %.0f s", node.Name(), ev.Target, dur)
		if hog := node.Submit(1e12, nil, nil); hog != nil {
			p.Eng.After(dur, "chaos:slow-end", func() { node.Cancel(hog) })
		}
	case invariant.Partition:
		if !fabric.Enabled() {
			p.Logf("chaos: partition event ignored (network fabric disabled)")
			return
		}
		groupA, groupB := resolveEndpoints(a.dep, ev.A), resolveEndpoints(a.dep, ev.B)
		p.Logf("chaos: partitioning %v | %v", groupA, groupB)
		id := fabric.Partition(groupA, groupB)
		if ev.Duration > 0 {
			p.Eng.After(ev.Duration, "chaos:partition-heal", func() {
				p.Logf("chaos: healing partition %v | %v", groupA, groupB)
				fabric.Heal(id)
			})
		}
	case invariant.Heal:
		if fabric.Enabled() {
			p.Logf("chaos: healing all partitions")
			fabric.HealAll()
		}
	case invariant.Config:
		a.applyPatch(refresh.SourceChaos, ev.Patch)
	default:
		if a.cfg.ChaosHandler == nil || !a.cfg.ChaosHandler(a.res, ev) {
			p.Logf("chaos: unhandled event kind %q on %s", ev.Kind, ev.Target)
		}
	}
}

// scheduleCrash arms the next MTBF crash after an exponential delay:
// a random currently deployed replica node (app or db tier; balancers
// and the controller are spared so availability stays attributable to
// replica repair), until the workload ends.
func (a *assembly) scheduleCrash() {
	p := a.p
	p.Eng.After(p.Eng.Exponential(a.cfg.MTBFSeconds), "chaos", func() {
		if p.Eng.Now() >= a.res.WorkloadStart+a.cfg.Profile.Duration() {
			return // workload over, stop injecting
		}
		victims := append(append([]string(nil), a.appTier.ReplicaNames()...), a.dbTier.ReplicaNames()...)
		if len(victims) > 0 {
			victim := victims[p.Eng.Rand().Intn(len(victims))]
			if node, _ := a.dep.NodeOf(victim); a.crash(node, victim) {
				// The node is later repaired off-pool; reboot it so the
				// pool does not starve under long churn.
				p.Eng.After(60, "chaos:reboot", node.Reboot)
			}
		}
		a.scheduleCrash()
	})
}

// run drives the engine through the workload and the drain window, then
// collects the result and writes the end-of-run artifacts.
func (a *assembly) run() (*ScenarioResult, error) {
	cfg, p, res := a.cfg, a.p, a.res
	p.Eng.RunUntil(res.WorkloadStart + cfg.Profile.Duration() + cfg.DrainSeconds)
	a.hub.Close() // freeze the configuration: late POSTs get ErrClosed
	res.ConfigChanges = a.crt.changes()
	a.em.Stop()
	res.WorkloadEnd = res.WorkloadStart + cfg.Profile.Duration()
	if a.harness != nil {
		a.harness.Stop()
		res.InvariantViolation = a.harness.Violation()
		res.InvariantChecks = a.harness.Checks()
	}
	res.Stats = a.em.Stats()
	if a.fnet != nil {
		rep := a.fnet.Report()
		res.Fluid = &rep
	}
	if a.samples > 0 {
		res.NodeCPUPercent = 100 * a.cpuSum / float64(a.samples)
		res.NodeMemPercent = 100 * a.memSum / float64(a.samples)
	}
	if a.recMgr != nil {
		res.Repairs = a.recMgr.Repairs
	}
	res.Net = a.fabric.Stats()
	if a.detector != nil {
		stats := a.detector.Stats()
		res.Detector = &stats
	}
	if a.doubleRepair != nil {
		res.RepairDiscards = a.doubleRepair.Discards()
		res.RepairsConfirmedLegal = a.doubleRepair.Confirmed()
	}
	if cfg.Managed {
		res.Reconfigurations = int(res.AppManager.Reactor.Grows + res.AppManager.Reactor.Shrinks +
			res.DBManager.Reactor.Grows + res.DBManager.Reactor.Shrinks)
	}
	res.SLOReport = a.slo.Report()
	// Latency attribution: walk the traced span forest into per-request
	// component breakdowns, and aggregate (with the fluid stations' wait
	// estimates when the run was fluid) into the budget report.
	if cfg.TraceRequests > 0 && !cfg.TraceOff {
		res.Attribution = attrib.FromTracer(p.Trace())
	}
	if res.Attribution != nil || a.fnet != nil {
		analysis := res.Attribution
		if analysis == nil {
			analysis = &attrib.Analysis{}
		}
		res.LatencyBudget = attrib.BuildReport(analysis, fluidBudgetTiers(a.fnet))
	}
	a.snapshot(p.Eng.Now())
	if cfg.MetricsDir != "" {
		for _, art := range a.artifacts {
			if art.file == "" {
				continue
			}
			if data := art.render(p.Eng.Now()); data != nil {
				a.writeFile(art.file, data)
			}
		}
	}
	if a.writeErr != nil {
		return nil, a.writeErr
	}
	return res, nil
}

// scenarioProbe returns the standard probe for an objective's Kind/Tier,
// reading the scenario's own measurement streams over [t0, t1).
func scenarioProbe(obj *SLObjective, em *Emulator, res *ScenarioResult) func(t0, t1 float64) (float64, bool) {
	switch obj.Kind {
	case obs.LatencyPercentile:
		pct := obj.Percentile
		return func(t0, t1 float64) (float64, bool) {
			vs := windowValues(em.Stats().Latency, t0, t1)
			if len(vs) == 0 {
				return 0, false
			}
			sort.Float64s(vs)
			return metrics.Percentile(vs, pct), true
		}
	case obs.AbandonRate:
		var prevC, prevF uint64
		return func(t0, t1 float64) (float64, bool) {
			st := em.Stats()
			dc, df := st.Completed-prevC, st.Failed-prevF
			prevC, prevF = st.Completed, st.Failed
			if dc+df == 0 {
				return 0, false
			}
			return float64(df) / float64(dc+df), true
		}
	case obs.CPUBand:
		var s *Series
		switch obj.Tier {
		case "app":
			s = res.App.CPUSmoothed
		case "db":
			s = res.DB.CPUSmoothed
		}
		return func(t0, t1 float64) (float64, bool) {
			vs := windowValues(s, t0, t1)
			if len(vs) == 0 {
				return 0, false
			}
			return metrics.SpatialMean(vs), true
		}
	}
	return func(float64, float64) (float64, bool) { return 0, false }
}

// sinceLast adapts a window probe to an alert probe over the window
// since its previous call. The first call primes the probe (a rate
// probe's counters) and reports nothing.
func sinceLast(probe func(t0, t1 float64) (float64, bool)) alert.Probe {
	prev := -1.0
	return func(now float64) (float64, bool) {
		t0 := prev
		prev = now
		if v, ok := probe(t0, now); ok && t0 >= 0 {
			return v, true
		}
		return 0, false
	}
}

// Introspection document schemas.
const (
	// ComponentsSchema identifies the /components Fractal-tree document.
	ComponentsSchema = "jade-components/v1"
	// LoopsSchema identifies the /loops control-loop status document.
	LoopsSchema = "jade-loops/v1"
	// FluidSchema identifies the /fluid workload-engine document.
	FluidSchema = "jade-fluid/v1"
)

// fluidStationDoc is one station's row on the /fluid page.
type fluidStationDoc struct {
	Name        string  `json:"name"`
	Rho         float64 `json:"rho"`
	Backlog     float64 `json:"backlog"`
	WaitSec     float64 `json:"wait_sec"`
	SvcSec      float64 `json:"svc_sec"`
	PeakRho     float64 `json:"peak_rho"`
	PeakBacklog float64 `json:"peak_backlog"`
	PeakWaitSec float64 `json:"peak_wait_sec"`
}

// fluidPage renders the fluid workload engine's internals: the offered
// rate, response estimate, and every station's ρ/backlog/wait with
// peaks. Discrete runs serve the same document with Enabled false, so
// scrapers need no mode awareness.
func (a *assembly) fluidPage(now float64) []byte {
	doc := struct {
		Schema      string            `json:"schema"`
		Time        float64           `json:"time"`
		Enabled     bool              `json:"enabled"`
		RatePerSec  float64           `json:"rate_per_sec"`
		ResponseSec float64           `json:"response_sec"`
		Completed   float64           `json:"completed"`
		Stations    []fluidStationDoc `json:"stations"`
	}{Schema: FluidSchema, Time: now, Stations: []fluidStationDoc{}}
	if fnet := a.fnet; fnet != nil {
		doc.Enabled = true
		doc.RatePerSec = fnet.Rate()
		doc.ResponseSec = fnet.Response()
		doc.Completed = fnet.Completed()
		for _, s := range fnet.Stations() {
			doc.Stations = append(doc.Stations, fluidStationDoc{
				Name:        s.Name,
				Rho:         s.Rho(),
				Backlog:     s.Backlog(),
				WaitSec:     s.Wait(),
				SvcSec:      s.Svc(),
				PeakRho:     s.PeakRho(),
				PeakBacklog: s.PeakBacklog(),
				PeakWaitSec: s.PeakWait(),
			})
		}
	}
	return jsonDoc(doc)
}

// ValidateFluidPage checks a jade-fluid/v1 document (/fluid,
// fluid.json): schema, non-negative station figures, and names present
// whenever the engine is enabled.
func ValidateFluidPage(doc []byte) error {
	var page struct {
		Schema   string            `json:"schema"`
		Enabled  bool              `json:"enabled"`
		Stations []fluidStationDoc `json:"stations"`
	}
	if err := json.Unmarshal(doc, &page); err != nil {
		return fmt.Errorf("fluid: not valid JSON: %w", err)
	}
	if page.Schema != FluidSchema {
		return fmt.Errorf("fluid: schema %q, want %q", page.Schema, FluidSchema)
	}
	if page.Stations == nil {
		return fmt.Errorf("fluid: missing stations array")
	}
	if page.Enabled && len(page.Stations) == 0 {
		return fmt.Errorf("fluid: enabled engine published no stations")
	}
	for i, s := range page.Stations {
		if s.Name == "" {
			return fmt.Errorf("fluid: stations[%d]: missing name", i)
		}
		if s.Rho < 0 || s.Backlog < 0 || s.WaitSec < 0 || s.PeakRho < s.Rho || s.PeakWaitSec < 0 {
			return fmt.Errorf("fluid: stations[%d] %s: implausible figures (rho=%g peak=%g wait=%g)",
				i, s.Name, s.Rho, s.PeakRho, s.WaitSec)
		}
	}
	return nil
}

// fluidBudgetTiers renders the fluid stations' current wait estimates
// in latency-budget form (queue = wait − ideal service), so fluid and
// discrete runs share one report shape.
func fluidBudgetTiers(fnet *fluid.Network) []attrib.FluidTier {
	if fnet == nil {
		return nil
	}
	out := make([]attrib.FluidTier, 0, len(fnet.Stations()))
	for _, s := range fnet.Stations() {
		q := s.Wait() - s.Svc()
		if q < 0 {
			q = 0
		}
		out = append(out, attrib.FluidTier{
			Station:    s.Name,
			Rho:        s.Rho(),
			PeakRho:    s.PeakRho(),
			QueueSec:   q,
			ServiceSec: s.Svc(),
			PeakSec:    s.PeakWait(),
		})
	}
	return out
}

// jsonDoc renders v as an indented JSON document, or nil when v does
// not marshal.
func jsonDoc(v any) []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil
	}
	return append(b, '\n')
}

// componentsPage renders the deployed application and management trees.
func (a *assembly) componentsPage(now float64) []byte {
	return jsonDoc(struct {
		Schema string         `json:"schema"`
		Time   float64        `json:"time"`
		Roots  []fractal.View `json:"roots"`
	}{ComponentsSchema, now, []fractal.View{a.dep.Root.View(), a.p.ManagementRoot().View()}})
}

// loopsPage renders the sizing control loops' live status.
func (a *assembly) loopsPage(now float64) []byte {
	loops := []obs.LoopStatus{}
	for _, m := range []*SizingManager{a.res.AppManager, a.res.DBManager} {
		if m != nil {
			loops = append(loops, m.Status(now))
		}
	}
	return jsonDoc(struct {
		Schema string           `json:"schema"`
		Time   float64          `json:"time"`
		Loops  []obs.LoopStatus `json:"loops"`
	}{LoopsSchema, now, loops})
}

// healthPage renders the liveness + compliance document: the status
// degrades to "degraded" (with the burning objective names) while any
// SLO objective's latest evaluated window missed its bound.
func (a *assembly) healthPage(now float64) []byte {
	violation := a.harness != nil && a.harness.Violation() != nil
	return obs.RenderHealth(now, a.p.Eng.Processed(), len(a.dep.ComponentNames()),
		violation, a.slo.Burning(), a.aeng.ActiveCount())
}

// resolveEndpoints maps a chaos partition group to fabric endpoint
// names: component names resolve to their current node, anything else
// (node names, "client", "jade") passes through literally.
func resolveEndpoints(dep *Deployment, names []string) []string {
	out := make([]string, 0, len(names))
	for _, name := range names {
		if node, err := dep.NodeOf(name); err == nil {
			out = append(out, node.Name())
			continue
		}
		out = append(out, name)
	}
	return out
}

// mustScenario is a helper for the experiment runners.
func mustScenario(cfg ScenarioConfig) (*ScenarioResult, error) {
	r, err := RunScenario(cfg)
	if err != nil {
		return nil, fmt.Errorf("jade: scenario (managed=%v): %w", cfg.Managed, err)
	}
	return r, nil
}
