package jade

import "fmt"

// GrayFailureADL is the gray-failure testbed: PLB balancing three Tomcat
// replicas over C-JDBC with two mirrored MySQL backends. Wide enough
// that one slow replica per tier leaves healthy capacity for a policy to
// route around.
const GrayFailureADL = `<?xml version="1.0"?>
<definition name="rubis-grayfail">
  <component name="plb1" wrapper="plb"/>
  <composite name="app-tier">
    <component name="tomcat1" wrapper="tomcat"/>
    <component name="tomcat2" wrapper="tomcat"/>
    <component name="tomcat3" wrapper="tomcat"/>
  </composite>
  <composite name="db-tier">
    <component name="cjdbc1" wrapper="cjdbc"/>
    <component name="mysql1" wrapper="mysql">
      <attribute name="dump" value="rubis"/>
    </component>
    <component name="mysql2" wrapper="mysql">
      <attribute name="dump" value="rubis"/>
    </component>
  </composite>
  <binding client="plb1.workers" server="tomcat1.http"/>
  <binding client="plb1.workers" server="tomcat2.http"/>
  <binding client="plb1.workers" server="tomcat3.http"/>
  <binding client="tomcat1.jdbc" server="cjdbc1.jdbc"/>
  <binding client="tomcat2.jdbc" server="cjdbc1.jdbc"/>
  <binding client="tomcat3.jdbc" server="cjdbc1.jdbc"/>
  <binding client="cjdbc1.backends" server="mysql1.sql"/>
  <binding client="cjdbc1.backends" server="mysql2.sql"/>
</definition>
`

// GrayFailVariant is one routing policy's run of the gray-failure
// experiment (see RunGrayFailure).
type GrayFailVariant struct {
	Name   string
	Policy string
	// P99 is the client-perceived 99th-percentile latency in seconds.
	P99    float64
	Result *ScenarioResult
}

// GrayFailureScenario returns the shared configuration of the
// gray-failure experiment for one routing policy: an unmanaged,
// invariant-checked constant-load run over GrayFailureADL where chaos
// degrades (but never kills) one replica per tier. tomcat2 is slowed
// severely (fifteen stacked CPU hogs leave it ~1/16 speed) and mysql2
// moderately (writes broadcast to every backend, so a crawling replica
// would stall both policies equally); heartbeats stay CPU-free, so no
// failure detector would ever suspect either replica — the definition of
// a gray failure. Only the routing policy distinguishes variants.
func GrayFailureScenario(seed int64, policy string, quick bool) ScenarioConfig {
	cfg := DefaultScenario(seed, false)
	clients, length := 60, 240.0
	if quick {
		clients, length = 40, 120.0
	}
	cfg.Profile = ConstantProfile{Clients: clients, Length: length}
	cfg.ADL = GrayFailureADL
	cfg.AppReplicas = []string{"tomcat1", "tomcat2", "tomcat3"}
	cfg.DBReplicas = []string{"mysql1", "mysql2"}
	cfg.Invariants = true
	cfg.DrainSeconds = 30
	cfg.Routing = RoutingConfig{App: policy, DB: policy}
	slowAt := 20.0
	cfg.Chaos = ChaosSchedule{
		{At: slowAt, Kind: ChaosSlow, Target: "mysql2", Duration: length - slowAt},
	}
	for i := 0; i < 15; i++ {
		cfg.Chaos = append(cfg.Chaos,
			ChaosEvent{At: slowAt, Kind: ChaosSlow, Target: "tomcat2", Duration: length - slowAt})
	}
	return cfg
}

// RunGrayFailure runs the gray-failure experiment once per routing
// policy and reports the client-perceived tail latency of each. Under
// round-robin every third request lands on the crawling Tomcat and p99
// collapses; the balanced scorer sees the slow replica's latency
// reservoir grow and organically routes around it — no detector, no
// membership change. quick shrinks the run for smoke tests. Variants
// fan out over Parallelism() workers; results are deterministic per
// seed regardless of the fan-out width.
func RunGrayFailure(seed int64, quick bool) ([]GrayFailVariant, string, error) {
	variants := []GrayFailVariant{
		{Name: "round-robin", Policy: "round-robin"},
		{Name: "least-pending", Policy: "least-pending"},
		{Name: "balanced", Policy: "balanced"},
	}
	err := forEachPar(len(variants), func(i int) error {
		r, err := RunScenario(GrayFailureScenario(seed, variants[i].Policy, quick))
		if err != nil {
			return fmt.Errorf("grayfail %q: %w", variants[i].Name, err)
		}
		variants[i].Result = r
		variants[i].P99 = r.RequestLatency.Quantile(0.99)
		return nil
	})
	if err != nil {
		return nil, "", err
	}

	title := "Routing under gray failure (one slow Tomcat + one slow MySQL, constant 60 clients, 240 s)"
	if quick {
		title = "Routing under gray failure (one slow Tomcat + one slow MySQL, constant 40 clients, 120 s, quick)"
	}
	tb := &TextTable{
		Title:   title,
		Headers: []string{"policy", "p50 (s)", "p95 (s)", "p99 (s)", "mean (s)", "completed", "failed", "violation"},
	}
	for _, v := range variants {
		r := v.Result
		violation := "none"
		if r.InvariantViolation != nil {
			violation = r.InvariantViolation.Checker
		}
		tb.AddRow(v.Name,
			fmt.Sprintf("%.3f", r.RequestLatency.Quantile(0.50)),
			fmt.Sprintf("%.3f", r.RequestLatency.Quantile(0.95)),
			fmt.Sprintf("%.3f", v.P99),
			fmt.Sprintf("%.3f", r.MeanLatency()),
			fmt.Sprintf("%d", r.Stats.Completed),
			fmt.Sprintf("%d", r.Stats.Failed),
			violation)
	}
	return variants, tb.Render(), nil
}
