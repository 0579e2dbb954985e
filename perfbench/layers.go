package main

import (
	"math/rand"
	"runtime/metrics"
	"sort"
	"time"

	"jade"
	"jade/internal/cjdbc"
	"jade/internal/cluster"
	"jade/internal/netsim"
	"jade/internal/obs/attrib"
	"jade/internal/rubis"
	"jade/internal/sim"
	"jade/internal/sqlengine"
)

// metric is one reported number. ok is false where the workload does not
// use the layer; the value is then 0 and the table prints n/a.
type metric struct {
	name, unit string
	value      float64
	ok         bool
}

// minProbe is the least wall time each timed layer probe runs for.
const minProbe = 250 * time.Millisecond

// timedProbes is how many timed probes share the window left after the
// plain run (read, early read, parse, fingerprint, consistency, cluster,
// selector, netsim, attribution).
const timedProbes = 9

// timePer calls fn in rounds until budget has passed (at least three
// rounds) and returns the median over rounds of nanoseconds per call,
// where one round of fn performs calls operations.
func timePer(budget time.Duration, calls int, fn func()) float64 {
	var per []float64
	start := time.Now()
	for len(per) < 3 || time.Since(start) < budget {
		t0 := time.Now()
		fn()
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(calls))
	}
	return median(per)
}

// runtimeSample reads the process's GC CPU and allocation counters.
type runtimeSample struct {
	gcCPU          float64
	allocB, allocN uint64
}

func sampleRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.allocB = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		out.allocN = s[2].Value.Uint64()
	}
	return out
}

// layerPass is the traced pass: one plain run of the workload, its
// layer counts read from public accessors, and each layer's public
// functions timed on workload-shaped inputs or the run's end state.
type layerPass struct {
	w     workload
	cfg   jade.ScenarioConfig
	seed  int64
	base  *run
	rt    runtimeSample // runtime counters over the plain run
	ctl   *cjdbc.Controller
	ms    []metric
	probe time.Duration // wall time each timed probe runs for
	est   float64       // sum of the layers' est_s
	extra []*run        // plane A/B reruns
	// replicaWrites counts the writes the DB replicas executed: every
	// query a replica served is a controller read or one replica's copy
	// of a broadcast (or replayed) write.
	replicaWrites float64
}

func (lp *layerPass) add(name, unit string, v float64, ok bool) {
	if !ok {
		v = 0
	}
	lp.ms = append(lp.ms, metric{name, unit, v, ok})
}

// estimate records a layer's calls x ns/call as its share of wall time.
func (lp *layerPass) estimate(layer string, calls, ns float64, ok bool) {
	s := calls * ns / 1e9
	lp.add(layer+".est_s", "s", s, ok)
	if ok {
		lp.est += s
	}
}

// tracedPass runs the plain run and every layer probe. The probes share
// what is left of seconds after the plain run (and, with the network on,
// its two plane reruns), each running at least minProbe.
func tracedPass(w workload, seed int64, seconds, scale float64) (*layerPass, error) {
	cfg := w.config(seed, scale)
	start := time.Now()
	rt0 := sampleRuntime()
	base, err := timedRun(w, cfg, scale == 1)
	if err != nil {
		return nil, err
	}
	rt1 := sampleRuntime()
	lp := &layerPass{w: w, cfg: cfg, seed: seed, base: base, rt: runtimeSample{
		gcCPU:  rt1.gcCPU - rt0.gcCPU,
		allocB: rt1.allocB - rt0.allocB,
		allocN: rt1.allocN - rt0.allocN,
	}}
	if lp.ctl, err = controller(base.res); err != nil {
		return nil, err
	}
	lp.replicaWrites = max(tierRequests(base.res, "db")-float64(lp.ctl.Reads()), 0)
	left := seconds - time.Since(start).Seconds()
	if cfg.Net.Enabled {
		left -= 2 * base.wall
	}
	lp.probe = max(minProbe, time.Duration(left/timedProbes*float64(time.Second)))
	if err := lp.sqlLayer(); err != nil {
		return nil, err
	}
	lp.cjdbcLayer()
	lp.simLayer()
	lp.clusterLayer()
	lp.selectorLayer()
	lp.netsimLayer()
	lp.traceLayer()
	lp.runtimeLayer()
	lp.coreLayer()
	if err := lp.planes(scale); err != nil {
		return nil, err
	}
	lp.add("layers.unattributed_share", "ratio", 1-lp.est/base.wall, true)
	return lp, nil
}

// tierRequests sums the requests every instance of a tier served over
// the run, instances since removed included (the registry keeps them).
func tierRequests(res *jade.ScenarioResult, tier string) float64 {
	sum := 0.0
	for _, f := range res.Platform.Metrics().Snapshot().Families {
		if f.Name != "jade_tier_requests_total" {
			continue
		}
		for _, sr := range f.Series {
			for _, l := range sr.Labels {
				if l.Key == "tier" && l.Value == tier {
					sum += sr.Value
				}
			}
		}
	}
	return sum
}

// readStatements draws n read statements from the workload's mix, the
// way the emulator generates them.
func readStatements(cfg jade.ScenarioConfig, seed int64, n int) []string {
	ds := datasetOf(cfg)
	mix := cfg.Mix
	if mix == nil {
		mix = rubis.BiddingMix()
	}
	g := &rubis.GenContext{DS: ds, RNG: rand.New(rand.NewSource(seed)), Counters: rubis.NewCounters(ds)}
	var out []string
	for len(out) < n {
		it := mix.Pick(g.RNG)
		if it.Queries == nil {
			continue
		}
		for _, q := range it.Queries(g) {
			if !sqlengine.IsWrite(q.SQL) && len(out) < n {
				out = append(out, q.SQL)
			}
		}
	}
	return out
}

func execAll(db *sqlengine.Engine, stmts []string) {
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			panic("perfbench: read statement failed: " + err.Error())
		}
	}
}

func (lp *layerPass) sqlLayer() error {
	end, _, err := lp.ctl.AnyActiveSnapshot()
	if err != nil {
		return err
	}
	initial, err := datasetOf(lp.cfg).InitialDatabase(lp.seed)
	if err != nil {
		return err
	}
	stmts := readStatements(lp.cfg, lp.seed, 200)
	readNS := timePer(lp.probe, len(stmts), func() { execAll(end, stmts) })
	earlyNS := timePer(lp.probe, len(stmts), func() { execAll(initial, stmts) })
	parseNS := timePer(lp.probe, len(stmts), func() {
		for _, s := range stmts {
			if _, err := sqlengine.Parse(s); err != nil {
				panic("perfbench: parse failed: " + err.Error())
			}
		}
	})

	// Replay the run's own writes, in log order, into the initial
	// database. Without the network fabric every write reaches each
	// replica exactly once, so the replay must land on the run's final
	// database. Network RPCs are at-least-once: a retried write may run
	// twice on a replica, and the replay is only timed.
	log := lp.ctl.Log().From(0)
	t0 := time.Now()
	for _, rec := range log {
		if _, err := initial.Exec(rec.Query.SQL); err != nil && !lp.cfg.Net.Enabled {
			lp.base.problems = append(lp.base.problems, "write replay failed: "+err.Error())
			break
		}
	}
	writeNS := float64(time.Since(t0).Nanoseconds()) / float64(max(len(log), 1))
	if fp := initial.Fingerprint(); fp != lp.base.digest.DBFingerprint && !lp.cfg.Net.Enabled {
		lp.base.problems = append(lp.base.problems, "replaying the recovery log does not reproduce the final database")
	}

	reads, replicaWrites := float64(lp.ctl.Reads()), lp.replicaWrites
	rows := 0
	for _, name := range end.Tables() {
		t, _ := end.Table(name)
		rows += len(t.Rows)
	}
	fpNS := timePer(lp.probe, 1, func() { end.Fingerprint() })

	lp.add("sqlengine.read_ns", "ns", readNS, true)
	lp.add("sqlengine.parse_ns", "ns", parseNS, true)
	lp.add("sqlengine.write_ns", "ns", writeNS, len(log) > 0)
	lp.add("sqlengine.late_over_early", "ratio", readNS/earlyNS, true)
	lp.add("sqlengine.reads", "count", reads, true)
	lp.add("sqlengine.writes", "count", replicaWrites, true)
	lp.add("sqlengine.rows_end", "count", float64(rows), true)
	lp.add("sqlengine.fingerprint_ns", "ns", fpNS, true)
	// Tables grow about linearly over a run, so a read costs on average
	// the mean of its cost on the initial and on the final database.
	lp.estimate("sqlengine", 1, reads*(readNS+earlyNS)/2+replicaWrites*writeNS, true)
	return nil
}

func datasetOf(cfg jade.ScenarioConfig) rubis.Dataset {
	if cfg.Dataset != nil {
		return *cfg.Dataset
	}
	return rubis.DefaultDataset()
}

func (lp *layerPass) cjdbcLayer() {
	consNS := timePer(lp.probe, 1, func() { lp.ctl.CheckConsistency() })
	fanout := 0.0
	if w := lp.ctl.Writes(); w > 0 {
		fanout = lp.replicaWrites / float64(w)
	}
	lp.add("cjdbc.consistency_ns", "ns", consNS, true)
	lp.add("cjdbc.write_fanout", "ratio", fanout, lp.ctl.Writes() > 0)
	lp.add("cjdbc.log_len", "count", float64(lp.ctl.Log().Len()), true)
	lp.add("cjdbc.failures", "count", float64(lp.ctl.Failures()), true)
	if lp.cfg.Invariants {
		// The harness checks once a virtual second and fingerprints the
		// replicas on every fifth check; tables grow about linearly, so
		// a fingerprinting check costs half the final one on average.
		fingerprints := lp.base.res.Platform.Eng.Now() / 5
		lp.estimate("invariant", fingerprints, consNS/2, true)
	}
}

// simLayer times the event engine alone: At+Step of an empty callback,
// as many events as the run processed, with the queue held at the run's
// final pending depth.
func (lp *layerPass) simLayer() {
	eng := lp.base.res.Platform.Eng
	events := eng.Processed()
	depth := max(eng.Pending(), 1)
	rng := rand.New(rand.NewSource(lp.seed))
	noop := func() {}
	probe := sim.NewEngine(lp.seed)
	for i := 0; i < depth; i++ {
		probe.At(rng.Float64(), "probe", noop)
	}
	n := int(min(events, 2_000_000))
	t0 := time.Now()
	for i := 0; i < n; i++ {
		probe.At(probe.Now()+rng.Float64(), "probe", noop)
		probe.Step()
	}
	dispatchNS := float64(time.Since(t0).Nanoseconds()) / float64(max(n, 1))
	lp.add("sim.events", "count", float64(events), true)
	lp.add("sim.ns_per_event", "ns", lp.base.wall*1e9/float64(max(events, 1)), true)
	lp.add("sim.dispatch_ns", "ns", dispatchNS, true)
	lp.estimate("sim", float64(events), dispatchNS, true)
}

// clusterLayer times a processor-sharing node: jobs submitted to a node
// in a private engine, each completion submitting the next, at the
// workload's mean in-flight jobs per database node (Little's law over
// its request stats).
func (lp *layerPass) clusterLayer() {
	res := lp.base.res
	var jobs uint64
	for _, n := range res.Platform.Pool.Nodes() {
		jobs += n.JobsCompleted()
	}
	dur := res.WorkloadEnd - res.WorkloadStart
	inflight := 1
	if dur > 0 {
		lambda := float64(res.Stats.Completed) / dur
		perNode := lambda * res.MeanLatency() / max(peak(res.DB.Replicas), 1)
		inflight = max(int(perNode+0.5), 1)
	}
	const completions = 20000
	jobNS := timePer(lp.probe, completions, func() {
		eng := sim.NewEngine(lp.seed)
		node := cluster.NewNode(eng, "probe", cluster.DefaultConfig())
		left := completions
		var submit func()
		submit = func() {
			if left == 0 {
				return
			}
			left--
			node.Submit(0.001, submit, nil)
		}
		for i := 0; i < inflight; i++ {
			node.Submit(0.001, submit, nil)
		}
		eng.Run()
	})
	lp.add("cluster.jobs", "count", float64(jobs), true)
	lp.add("cluster.inflight", "count", float64(inflight), true)
	lp.add("cluster.job_ns", "ns", jobNS, true)
	lp.estimate("cluster", float64(jobs), jobNS, true)
}

// selectorLayer times Pick+Acquire+Release on the run's final C-JDBC
// pool (the run is over, so its bookkeeping may change freely).
func (lp *layerPass) selectorLayer() {
	pool := lp.ctl.Pool()
	const calls = 1000
	pickNS := timePer(lp.probe, calls, func() {
		for i := 0; i < calls; i++ {
			name, _ := pool.Pick("")
			pool.Acquire(name)
			pool.Release(name, 0.01, false)
		}
	})
	picks := float64(lp.ctl.Reads() + lp.base.ops())
	lp.add("selector.pick_ns", "ns", pickNS, true)
	lp.estimate("selector", picks, pickNS, true)
}

// netsimLayer times Fabric.Send on a fabric configured like the run's.
func (lp *layerPass) netsimLayer() {
	st := lp.base.res.Net
	on := lp.cfg.Net.Enabled
	sendNS := 0.0
	if on {
		const calls = 10000
		sendNS = timePer(lp.probe, calls, func() {
			eng := sim.NewEngine(lp.seed)
			fab := netsim.New(eng, lp.cfg.Net, lp.seed)
			noop := func() {}
			for i := 0; i < calls; i++ {
				fab.Send("a", "b", "probe", noop)
			}
			eng.Run()
		})
	}
	lp.add("netsim.messages", "count", float64(st.Messages), on)
	lp.add("netsim.rpcs", "count", float64(st.RPCs), on)
	lp.add("netsim.dropped", "count", float64(st.DroppedLoss+st.DroppedPartition), on)
	lp.add("netsim.send_ns", "ns", sendNS, on)
	lp.estimate("netsim", float64(st.Messages), sendNS, on)
}

// traceLayer reads the telemetry bus's retention counters and times
// latency attribution (Analyze + BuildReport) per traced request.
func (lp *layerPass) traceLayer() {
	tr := lp.base.res.Trace()
	st := tr.Stat()
	lp.add("trace.spans", "count", float64(st.Spans), true)
	lp.add("trace.dropped", "count", float64(st.SpansDropped), true)
	on := lp.cfg.TraceRequests > 0 && !lp.cfg.TraceOff
	analyzeNS, traced := 0.0, 0.0
	if on {
		roots := tr.SpanTree()
		traced = float64(len(roots))
		analyzeNS = timePer(lp.probe, max(len(roots), 1), func() {
			attrib.BuildReport(attrib.Analyze(roots), nil)
		})
	}
	lp.add("attrib.analyze_ns", "ns", analyzeNS, on)
	lp.estimate("attrib", traced, analyzeNS, on)
}

func (lp *layerPass) runtimeLayer() {
	events := float64(max(lp.base.digest.Events, 1))
	lp.add("runtime.gc_cpu_s", "s", lp.rt.gcCPU, true)
	lp.add("runtime.alloc_mb", "MB", float64(lp.rt.allocB)/1e6, true)
	lp.add("runtime.allocs_per_event", "allocs/event", float64(lp.rt.allocN)/events, true)
}

func (lp *layerPass) coreLayer() {
	res := lp.base.res
	ticks, fluidOn := 0.0, res.Fluid != nil
	if fluidOn {
		ticks = float64(res.Fluid.Ticks)
	}
	lp.add("fluid.ticks", "count", ticks, fluidOn)
	lp.add("core.reconfigurations", "count", float64(res.Reconfigurations), true)
	lp.add("core.repairs", "count", float64(res.Repairs), true)
	lp.add("invariant.checks", "count", float64(res.InvariantChecks), lp.cfg.Invariants)
}

// planes reruns network workloads with tracing off and with alerting
// disabled. Both planes leave the trajectory unchanged, so each rerun
// must reproduce the baseline digest (summarize fails a rerun that does
// not); the wall-time difference is then the plane's in-run cost. A
// rerun that diverges reports no overhead.
func (lp *layerPass) planes(scale float64) error {
	variants := []struct {
		name   string
		mutate func(*jade.ScenarioConfig)
	}{
		{"plane.trace.overhead_s", func(c *jade.ScenarioConfig) { c.TraceOff = true }},
		{"plane.alert.overhead_s", func(c *jade.ScenarioConfig) { c.Alerting.Disabled = true }},
	}
	for _, v := range variants {
		if !lp.cfg.Net.Enabled {
			lp.add(v.name, "s", 0, false)
			continue
		}
		cfg := lp.cfg
		v.mutate(&cfg)
		r, err := timedRun(lp.w, cfg, scale == 1)
		if err != nil {
			return err
		}
		lp.extra = append(lp.extra, r)
		lp.add(v.name, "s", lp.base.wall-r.wall, r.digest == lp.base.digest)
	}
	return nil
}

// sortedMetrics orders metrics by name.
func sortedMetrics(ms []metric) []metric {
	out := append([]metric(nil), ms...)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
