package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"jade"
	"jade/internal/cjdbc"
	"jade/internal/core"
)

// digest is a run's simulated trajectory in brief. Runs of one config
// must produce identical digests; a fast path that changes any field
// changed what was simulated.
type digest struct {
	Events           uint64  `json:"events"`
	Completed        uint64  `json:"completed"`
	Failed           uint64  `json:"failed"`
	Reconfigurations int     `json:"reconfigurations"`
	Repairs          uint64  `json:"repairs"`
	P50              float64 `json:"p50_s"`
	P99              float64 `json:"p99_s"`
	DBFingerprint    uint64  `json:"db_fingerprint"`
}

func (d digest) String() string {
	return fmt.Sprintf("events=%d completed=%d failed=%d reconfigurations=%d repairs=%d p50=%.6fs p99=%.6fs db=%016x",
		d.Events, d.Completed, d.Failed, d.Reconfigurations, d.Repairs, d.P50, d.P99, d.DBFingerprint)
}

// run is one timed scenario run.
type run struct {
	res    *jade.ScenarioResult
	wall   float64 // seconds
	cpu    float64 // process user+sys seconds
	heapMB float64 // live heap after a forced GC, result still held
	digest digest
	// problems lists the output checks the run failed.
	problems []string
}

// ops is the number of simulated client requests the run issued.
func (r *run) ops() uint64 { return r.digest.Completed + r.digest.Failed }

// failedOps counts the run's failed requests, or all of its requests
// when the run failed an output check.
func (r *run) failedOps() uint64 {
	if len(r.problems) > 0 {
		return r.ops()
	}
	return r.digest.Failed
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// timedRun runs cfg once and measures it. The forced GC that reads the
// live heap happens after the wall and CPU clocks stop.
func timedRun(w workload, cfg jade.ScenarioConfig, full bool) (*run, error) {
	runtime.GC()
	c0, t0 := cpuSeconds(), time.Now()
	res, err := jade.RunScenario(cfg)
	wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-c0
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r := &run{res: res, wall: wall, cpu: cpu, heapMB: float64(ms.HeapAlloc) / 1e6}
	r.digest, r.problems = check(w, res, full)
	runtime.KeepAlive(res)
	return r, nil
}

// controller returns the run's C-JDBC controller.
func controller(res *jade.ScenarioResult) (*cjdbc.Controller, error) {
	c, err := res.Deployment.Component("cjdbc1")
	if err != nil {
		return nil, err
	}
	w, ok := c.Content().(*core.CJDBCWrapper)
	if !ok || w.Controller() == nil {
		return nil, errors.New("cjdbc1 has no controller")
	}
	return w.Controller(), nil
}

// check digests the run and applies the output checks: a clean C-JDBC
// consistency report, no invariant violation (where the harness runs),
// and (for the sizing workloads at full scale) both tiers grown past
// one replica.
func check(w workload, res *jade.ScenarioResult, full bool) (digest, []string) {
	d := digest{
		Events:           res.Platform.Eng.Processed(),
		Completed:        res.Stats.Completed,
		Failed:           res.Stats.Failed,
		Reconfigurations: res.Reconfigurations,
		Repairs:          res.Repairs,
		P50:              res.RequestLatency.Quantile(0.50),
		P99:              res.RequestLatency.Quantile(0.99),
	}
	var problems []string
	ctl, err := controller(res)
	if err != nil {
		return d, []string{err.Error()}
	}
	rep := ctl.CheckConsistency()
	if !rep.Consistent {
		problems = append(problems, fmt.Sprintf("C-JDBC replicas diverge: %v", rep.Fingerprints))
	}
	names := make([]string, 0, len(rep.Fingerprints))
	for name := range rep.Fingerprints {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		problems = append(problems, "no active C-JDBC backend at run end")
	} else {
		d.DBFingerprint = rep.Fingerprints[names[0]]
	}
	if v := res.InvariantViolation; v != nil {
		problems = append(problems, fmt.Sprintf("invariant violation: %s at t=%.3f (%s): %s", v.Checker, v.Time, v.Event, v.Detail))
	}
	if w.mustGrow && full {
		if peak(res.App.Replicas) < 2 || peak(res.DB.Replicas) < 2 {
			problems = append(problems, fmt.Sprintf("sizing loops did not both grow (peak app %g, db %g replicas)",
				peak(res.App.Replicas), peak(res.DB.Replicas)))
		}
	}
	return d, problems
}

func peak(s *jade.Series) float64 {
	if s == nil {
		return 0
	}
	return s.Max()
}

// sameTrajectory reports which runs' digests differ from the first.
func sameTrajectory(runs []*run) {
	for _, r := range runs[1:] {
		if r.digest != runs[0].digest {
			r.problems = append(r.problems, fmt.Sprintf("trajectory digest differs from the first repeat: %v vs %v",
				r.digest, runs[0].digest))
		}
	}
}

// setupConfig is cfg with its client profile cut to zero length: a run
// of it costs deployment, dataset population and (fluid) demand
// calibration, plus the idle drain.
func setupConfig(cfg jade.ScenarioConfig) jade.ScenarioConfig {
	cfg.Profile = jade.ConstantProfile{}
	return cfg
}

// setupSeconds times n set-ups and returns their median.
func setupSeconds(cfg jade.ScenarioConfig, n int) (float64, error) {
	cfg = setupConfig(cfg)
	ts := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		if _, err := jade.RunScenario(cfg); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
