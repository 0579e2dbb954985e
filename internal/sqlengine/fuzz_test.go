package sqlengine

import (
	"fmt"
	"strings"
	"testing"
)

// fuzzDB returns the indexed engine and the row-scanning reference
// holding the same small RUBiS-shaped tables (buy_now empty), with the
// indexes on items already built so a fuzzed statement also meets index
// upkeep.
func fuzzDB(t *testing.T) (*Engine, *refEngine) {
	e, ref := New(), newRef()
	// The first row's NULL name lets a DELETE delete it and then fail
	// on a later row, stopping its compaction midway.
	stmts := []string{genSchema, genSchema2, "CREATE TABLE buy_now (id INT, item_id INT)",
		"INSERT INTO items (id, seller) VALUES (9, 1)"}
	for i := 0; i < 8; i++ {
		stmts = append(stmts,
			fmt.Sprintf("INSERT INTO items (id, name, seller, category, price) VALUES (%d, 'n%d', %d, %d, %d.5)", i, i, i%3, i%2, i),
			fmt.Sprintf("INSERT INTO bids (id, item_id, bid, date) VALUES (%d, %d, 1.5, %d)", i, i%4, i))
	}
	stmts = append(stmts, "INSERT INTO items (id) VALUES (8)", "SELECT * FROM items WHERE id = 1 AND seller = 1 AND category = 1")
	for _, sql := range stmts {
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.ExecStmt(stmt); err != nil {
			t.Fatal(err)
		}
		ref.execStmt(stmt)
	}
	return e, ref
}

// FuzzParse feeds arbitrary text to Parse. It must never panic, and a
// statement it accepts must execute (or fail with an error) without
// panicking, with the same result, error and state as the row-scanning
// reference executor. Each accepted statement runs twice, so a second
// lookup meets whatever the first left in the indexes.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"SELECT * FROM items WHERE id = 3",
		"SELECT name, id FROM items WHERE category = 1 AND price >= 2.5 ORDER BY id DESC LIMIT 2",
		"SELECT COUNT(*) FROM bids WHERE item_id = 3.0",
		"UPDATE items SET category = 1, price = NULL WHERE seller = 2",
		"DELETE FROM bids WHERE item_id = 1; ",
		"INSERT INTO items (id, name) VALUES (-4, 'it''s')",
		"SELECT * FROM items WHERE ghost = 1",
		"CREATE TABLE t (a VARCHAR(10), b BIGINT)",
		"DROP TABLE bids",
		"select * from ITEMS where NAME <> 'x'",
		"SELECT * FROM items WHERE id = '3'",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := Parse(sql)
		if err != nil {
			return
		}
		e, ref := fuzzDB(t)
		for i := 0; i < 2; i++ {
			got, gotErr := e.ExecStmt(stmt)
			want, wantErr := ref.execStmt(stmt)
			checkSame(t, fmt.Sprintf("run %d of %q", i, sql), e, ref, got, want, gotErr, wantErr)
		}
	})
}

// isWriteFields is IsWrite's previous definition: upper-case the first
// strings.Fields field and compare it with the write keywords.
func isWriteFields(sql string) bool {
	fields := strings.Fields(sql)
	if len(fields) == 0 {
		return false
	}
	switch strings.ToUpper(fields[0]) {
	case "INSERT", "UPDATE", "DELETE", "CREATE", "DROP":
		return true
	}
	return false
}

// FuzzIsWrite requires IsWrite, which scans only the first word, to
// classify every input as the strings.Fields definition does, including
// Unicode white space, invalid UTF-8 and words whose upper case differs
// in length.
func FuzzIsWrite(f *testing.F) {
	for _, s := range []string{
		"INSERT INTO t (a) VALUES (1)",
		"  update t SET a = 1",
		"SELECT * FROM t",
		"",
		" \t\n ",
		"DELETE",
		"drop\u00a0TABLE t",
		"\u0085CREATE TABLE t (a INT)",
		"ınsert INTO t (a) VALUES (1)",
		"INSERT\xffINTO",
		"INSERTS INTO t",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		if got, want := IsWrite(sql), isWriteFields(sql); got != want {
			t.Fatalf("IsWrite(%q) = %v, strings.Fields definition says %v", sql, got, want)
		}
	})
}
