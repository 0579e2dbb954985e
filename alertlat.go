package jade

import "fmt"

// AlertLatVariant is one fault mode's run of the alert-latency
// experiment (see RunAlertLatency).
type AlertLatVariant struct {
	Name string
	// FaultAt is the virtual time of the injection (absolute).
	FaultAt float64
	// PageAfter is how long after the fault the alert plane raised its
	// first page (-1: never paged).
	PageAfter float64
	// PageComponent is the component the first page named.
	PageComponent string
	// Suspect is the causal suspect of the first incident.
	Suspect string
	// PhiAfter is how long after the fault the φ-accrual detector first
	// suspected anyone (-1: never — the definition of a gray failure).
	PhiAfter float64
	// Suspicions is the detector's total suspect-transition count.
	Suspicions uint64
	Result     *ScenarioResult
}

// AlertLatencyScenario returns the alert-latency experiment's
// configuration for one fault mode. Both modes start from the PR-6
// gray-failure scenario (round-robin, so nothing routes around the
// fault) with the simulated network enabled and the φ detector armed in
// monitor-only mode — detector and alert plane watch the same run
// side by side, and neither repairs anything.
//
//   - "gray":  the original schedule — tomcat2 crawls at ~1/16 speed and
//     mysql2 is moderately slowed, but heartbeats stay CPU-free, so φ
//     never fires and only the alert plane can see the failure.
//   - "crash": tomcat2's node dies outright at the same instant, the
//     case classic failure detection was built for — both φ and the
//     alert plane must fire.
func AlertLatencyScenario(seed int64, fault string, quick bool) ScenarioConfig {
	cfg := GrayFailureScenario(seed, "round-robin", quick)
	cfg.Net.Enabled = true
	cfg.Monitor = true
	if fault == "crash" {
		cfg.Chaos = ChaosSchedule{{At: alertLatFaultAt, Kind: ChaosCrash, Target: "tomcat2"}}
	}
	return cfg
}

// alertLatFaultAt is when (relative to workload start) both fault modes
// strike — the gray schedule in GrayFailureScenario uses the same
// instant.
const alertLatFaultAt = 20.0

// alertLatPageBound is the virtual-time window (seconds after the
// fault) within which the alert plane must page on the gray-degraded
// replica. Generous against the actual ~15-25 s the skew rule needs
// (two 5 s evaluation ticks once the reservoirs warm), tight against
// the 100+ s a slow-window-only burn alert would take.
const alertLatPageBound = 120.0

// RunAlertLatency measures virtual-time-to-first-page of the alerting
// plane against the φ-accrual failure detector on the same faults. The
// experiment is self-checking: it errors unless (gray) the alert plane
// pages within alertLatPageBound of the fault, names tomcat2, and φ
// records zero suspicions; and (crash) both the detector and the alert
// plane fire on the dead replica. quick shrinks the runs for smoke
// tests; variants fan out over Parallelism() workers and results are
// deterministic per seed regardless of the fan-out width.
func RunAlertLatency(seed int64, quick bool) ([]AlertLatVariant, string, error) {
	variants := []AlertLatVariant{{Name: "gray"}, {Name: "crash"}}
	err := forEachPar(len(variants), func(i int) error {
		r, err := RunScenario(AlertLatencyScenario(seed, variants[i].Name, quick))
		if err != nil {
			return fmt.Errorf("alertlat %q: %w", variants[i].Name, err)
		}
		v := &variants[i]
		v.Result = r
		v.FaultAt = r.WorkloadStart + alertLatFaultAt
		v.PageAfter, v.PhiAfter = -1, -1
		if t := r.Alerts.FirstPageTime(); t >= 0 {
			v.PageAfter = t - v.FaultAt
		}
		if a := r.Alerts.FirstPage(); a != nil {
			v.PageComponent = a.Component
		}
		if incs := r.Alerts.Incidents(); len(incs) > 0 {
			v.Suspect = incs[0].Suspect
		}
		if t := r.Alerts.FirstContextTime("detector.suspect"); t >= 0 {
			v.PhiAfter = t - v.FaultAt
		}
		if r.Detector != nil {
			v.Suspicions = r.Detector.Suspicions
		}
		return nil
	})
	if err != nil {
		return nil, "", err
	}

	for _, v := range variants {
		if viol := v.Result.InvariantViolation; viol != nil {
			return nil, "", fmt.Errorf("alertlat %q: invariant %q violated: %s", v.Name, viol.Checker, viol.Detail)
		}
	}
	gray, crash := &variants[0], &variants[1]
	if gray.Suspicions != 0 || gray.PhiAfter >= 0 {
		return nil, "", fmt.Errorf("alertlat gray: φ detector suspected a replica (%d suspicions) — the fault is not gray", gray.Suspicions)
	}
	if gray.PageAfter < 0 {
		return nil, "", fmt.Errorf("alertlat gray: alert plane never paged on the degraded replica")
	}
	if gray.PageAfter > alertLatPageBound {
		return nil, "", fmt.Errorf("alertlat gray: first page %.1f s after the fault, want <= %.0f s", gray.PageAfter, alertLatPageBound)
	}
	if gray.PageComponent != "tomcat2" || gray.Suspect != "tomcat2" {
		return nil, "", fmt.Errorf("alertlat gray: paged %q / suspected %q, want tomcat2 for both", gray.PageComponent, gray.Suspect)
	}
	if crash.Suspicions == 0 || crash.PhiAfter < 0 {
		return nil, "", fmt.Errorf("alertlat crash: φ detector never suspected the dead replica")
	}
	if crash.PageAfter < 0 {
		return nil, "", fmt.Errorf("alertlat crash: alert plane never paged on the dead replica")
	}

	title := "Alert latency vs φ-accrual detection (fault at t+20 s, constant 60 clients, 240 s)"
	if quick {
		title = "Alert latency vs φ-accrual detection (fault at t+20 s, constant 40 clients, 120 s, quick)"
	}
	tb := &TextTable{
		Title:   title,
		Headers: []string{"fault", "first page (s after fault)", "paged", "incident suspect", "φ first suspicion (s)", "φ suspicions", "p99 (s)", "completed", "failed"},
	}
	fmtAfter := func(v float64) string {
		if v < 0 {
			return "never"
		}
		return fmt.Sprintf("%.1f", v)
	}
	for _, v := range variants {
		r := v.Result
		tb.AddRow(v.Name,
			fmtAfter(v.PageAfter),
			orNone(v.PageComponent),
			orNone(v.Suspect),
			fmtAfter(v.PhiAfter),
			fmt.Sprintf("%d", v.Suspicions),
			fmt.Sprintf("%.3f", r.RequestLatency.Quantile(0.99)),
			fmt.Sprintf("%d", r.Stats.Completed),
			fmt.Sprintf("%d", r.Stats.Failed))
	}
	return variants, tb.Render(), nil
}

func orNone(s string) string {
	if s == "" {
		return "(none)"
	}
	return s
}
