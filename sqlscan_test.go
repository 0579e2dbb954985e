package jade

import (
	"testing"

	"jade/internal/core"
	"jade/internal/sqlengine"
)

// sqlWork is the WHERE-clause work of every DB replica up to one moment
// of a run, against the SELECTs the controller routed up to then.
type sqlWork struct {
	examined, matched, selects uint64
}

// TestSQLScanWorkBounded is the complexity guard on the SQL substrate. A
// short managed RUBiS ramp is sampled every virtual minute for the rows
// its replicas examine while evaluating WHERE clauses, against the
// SELECTs the controller routed. Every RUBiS statement is a single
// equality on an INT column, which an index serves, so:
//
//   - rows examined per SELECT stay under a small constant in every
//     minute, where a full-table scan visits every row of tables holding
//     hundreds to thousands;
//   - scan work, the rows examined that the WHERE clause then rejects,
//     per SELECT in the second half of the run is at most 1.2x the first
//     half, although the tables keep growing.
//
// Rows examined per SELECT still rise over the run (about 12 to 15
// here): items per category and bids per item grow with every INSERT,
// and those lookups match (before LIMIT) every row holding their key.
// Counting only rejected rows separates that growth in what the queries
// ask for from scan growth. The counters are deterministic, so nothing
// here reads a clock.
func TestSQLScanWorkBounded(t *testing.T) {
	cfg := DefaultScenario(1, true)
	ramp := PaperRamp()
	ramp.Peak, ramp.HoldAtPeak = 300, 60
	cfg.Profile = ramp
	cfg.TraceOff = true
	length := ramp.Duration()
	for at := 60.0; at <= length; at += 60 {
		cfg.Chaos = append(cfg.Chaos, ChaosEvent{At: at, Kind: "sample-sql-work"})
	}
	// Replicas come and go (and a fresh replica gets a new engine), so
	// each engine's counters are kept at their last sampled value.
	seen := map[*sqlengine.Engine]sqlWork{}
	var samples []sqlWork
	cfg.ChaosHandler = func(res *ScenarioResult, ev ChaosEvent) bool {
		if ev.Kind != "sample-sql-work" {
			return false
		}
		for _, name := range res.Deployment.ComponentNames() {
			if w, ok := res.Deployment.MustComponent(name).Content().(*core.MySQLWrapper); ok {
				db := w.Server().DB()
				seen[db] = sqlWork{examined: db.RowsExamined(), matched: db.RowsMatched()}
			}
		}
		var s sqlWork
		for _, w := range seen {
			s.examined += w.examined
			s.matched += w.matched
		}
		s.selects = res.Deployment.MustComponent("cjdbc1").Content().(*core.CJDBCWrapper).Controller().Reads()
		samples = append(samples, s)
		return true
	}
	if _, err := RunScenario(cfg); err != nil {
		t.Fatal(err)
	}
	if len(samples) < 10 {
		t.Fatalf("only %d samples", len(samples))
	}

	const maxPerSelect = 32
	for i := 1; i < len(samples); i++ {
		a, b := samples[i-1], samples[i]
		if b.selects == a.selects {
			continue
		}
		per := float64(b.examined-a.examined) / float64(b.selects-a.selects)
		if per > maxPerSelect {
			t.Errorf("minute %d: %.1f rows examined per SELECT, want <= %d", i+1, per, maxPerSelect)
		}
	}
	first, mid, last := samples[0], samples[len(samples)/2], samples[len(samples)-1]
	rejected := func(a, b sqlWork) float64 {
		return float64((b.examined-b.matched)-(a.examined-a.matched)) / float64(b.selects-a.selects)
	}
	early, late := rejected(first, mid), rejected(mid, last)
	if late > 1.2*early {
		t.Errorf("rows rejected per SELECT grew from %.3f to %.3f (> 1.2x)", early, late)
	}
	t.Logf("per SELECT, first half then second half: %.2f then %.2f rows examined, %.3f then %.3f rejected",
		float64(mid.examined-first.examined)/float64(mid.selects-first.selects),
		float64(last.examined-mid.examined)/float64(last.selects-mid.selects), early, late)
}
