package rubis

import (
	"math/rand"
	"reflect"
	"testing"

	"jade/internal/sqlengine"
)

// TestSharedStatementMatchesTextExecution backs the controller's
// parse-once write broadcast: every statement of every interaction, plus
// a multi-column UPDATE, is parsed once and executed as that one
// Statement on several replicas, while a second set of replicas parses
// the text itself. Results must agree statement by statement, and
// fingerprints after every write and at the end. Executing the shared
// Statement must leave it equal to a fresh parse (no engine writes into
// it).
func TestSharedStatementMatchesTextExecution(t *testing.T) {
	const replicas = 3
	d := DefaultDataset()
	initial, err := d.InitialDatabase(5)
	if err != nil {
		t.Fatal(err)
	}
	var shared, text []*sqlengine.Engine
	for i := 0; i < replicas; i++ {
		shared = append(shared, initial.Snapshot())
		text = append(text, initial.Snapshot())
	}
	g := &GenContext{DS: d, RNG: rand.New(rand.NewSource(17)), Counters: NewCounters(d)}
	var stmts []string
	for trial := 0; trial < 20; trial++ {
		for _, it := range Interactions() {
			for _, q := range it.Queries(g) {
				stmts = append(stmts, q.SQL)
			}
		}
	}
	stmts = append(stmts,
		"UPDATE items SET max_bid = 99.5, nb_of_bids = 7, name = 'renamed' WHERE id = 3",
		"SELECT * FROM items WHERE id = 3")
	for _, sql := range stmts {
		stmt, err := sqlengine.Parse(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		for i := 0; i < replicas; i++ {
			got, gotErr := shared[i].ExecStmt(stmt)
			want, wantErr := text[i].Exec(sql)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("replica %d, %q: error %v, text execution %v", i, sql, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("replica %d, %q: result %+v, text execution %+v", i, sql, got, want)
			}
		}
		if sqlengine.IsWrite(sql) && shared[0].Fingerprint() != text[0].Fingerprint() {
			t.Fatalf("replica 0 diverged after %q", sql)
		}
		fresh, _ := sqlengine.Parse(sql)
		if !reflect.DeepEqual(stmt, fresh) {
			t.Fatalf("executing %q changed its statement: %+v, fresh parse %+v", sql, stmt, fresh)
		}
	}
	for i := 0; i < replicas; i++ {
		if shared[i].Fingerprint() != text[i].Fingerprint() {
			t.Fatalf("replica %d diverged", i)
		}
	}
}
