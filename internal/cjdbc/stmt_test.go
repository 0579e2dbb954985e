package cjdbc

import (
	"errors"
	"fmt"
	"testing"

	"jade/internal/legacy"
	"jade/internal/sqlengine"
)

// TestUnparsableWriteFailsOnEveryBackend: a broadcast write whose text
// does not parse carries no parsed statement, so every backend fails on
// the text with the parser's error, each is marked dead, and the client
// sees the first backend's error.
func TestUnparsableWriteFailsOnEveryBackend(t *testing.T) {
	r := newRig(t, 5)
	ms := []*legacy.MySQL{r.mysql("mysql1"), r.mysql("mysql2"), r.mysql("mysql3")}
	for i, m := range ms {
		r.join(fmt.Sprintf("b%d", i+1), m)
	}
	r.mustExec("CREATE TABLE t (a INT)")
	const bad = "INSERT INTO t (a) VALUES (1"
	_, parseErr := sqlengine.Parse(bad)
	if parseErr == nil {
		t.Fatal("test statement parses")
	}
	err := r.exec(bad)
	want := fmt.Sprintf("cjdbc cjdbc: write lost on all backends: mysql mysql1: %v", parseErr)
	if err == nil || err.Error() != want {
		t.Fatalf("unparsable write: %v, want %q", err, want)
	}
	if n := r.ctl.ActiveCount(); n != 0 || len(r.ctl.Backends()) != 0 {
		t.Fatalf("%d active of %d registered backends, want every backend dead", n, len(r.ctl.Backends()))
	}
	for _, m := range ms {
		if m.Errors() != 1 || m.DB().RowCount("t") != 0 {
			t.Fatalf("%s: %d errors and %d rows, want 1 error and no row", m.Name(), m.Errors(), m.DB().RowCount("t"))
		}
	}
	if r.ctl.Log().Len() != 2 || r.ctl.Failures() != 1 {
		t.Fatalf("log holds %d records and %d requests failed, want 2 and 1", r.ctl.Log().Len(), r.ctl.Failures())
	}
}

// TestTextLogSyncMatchesSharedStatementReplicas: replicas applying live
// writes share one parsed statement, while a replica joining later
// replays the recovery log's text, including writes that arrive during
// its sync; all of them end with one fingerprint, and no log record
// holds a parsed statement.
func TestTextLogSyncMatchesSharedStatementReplicas(t *testing.T) {
	r := newRig(t, 5)
	r.join("b1", r.mysql("mysql1"))
	r.join("b2", r.mysql("mysql2"))
	r.mustExec("CREATE TABLE t (id INT, name TEXT, v FLOAT)")
	for i := 0; i < 30; i++ {
		r.mustExec(fmt.Sprintf("INSERT INTO t (id, name, v) VALUES (%d, 'n%d', %d.25)", i%7, i, i))
	}
	r.mustExec("UPDATE t SET name = 'x', v = 2 WHERE id = 3")
	r.mustExec("DELETE FROM t WHERE id = 5")

	var synced error = errors.New("pending")
	if err := r.ctl.JoinAt("b3", r.mysql("mysql3"), 0, func(err error) { synced = err }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		sql := fmt.Sprintf("UPDATE t SET v = %d, name = 'y%d' WHERE id = %d", i, i, i%7)
		r.ctl.ExecSQL(legacy.Query{SQL: sql, Cost: 0.001}, func(err error) {
			if err != nil {
				t.Errorf("%s: %v", sql, err)
			}
		})
	}
	r.env.Eng.Run()
	if synced != nil {
		t.Fatal(synced)
	}
	rep := r.ctl.CheckConsistency()
	if !rep.Consistent || len(rep.Fingerprints) != 3 {
		t.Fatalf("after sync: %+v", rep)
	}
	for _, rec := range r.ctl.Log().From(0) {
		if rec.Query.Stmt != nil {
			t.Fatalf("log record %d holds a parsed statement", rec.Index)
		}
	}
}
