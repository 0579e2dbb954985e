package sqlengine

import (
	"fmt"
	"testing"
)

// TestIndexedSelectAllocsConstant guards the SELECT hot path: executing
// a pre-parsed indexed lookup allocates a small constant number of times
// (the result's column names, row headers and one backing array for its
// cells), independent of table size and of how many rows match.
func TestIndexedSelectAllocsConstant(t *testing.T) {
	const maxAllocs = 3
	for _, sql := range []string{
		"SELECT * FROM t WHERE id = 7",
		"SELECT name, v FROM t WHERE id = 7 ORDER BY v DESC LIMIT 5",
	} {
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, shape := range []struct{ rows, perKey int }{{100, 1}, {5000, 1}, {5000, 50}} {
			e := New()
			mustExec(t, e, "CREATE TABLE t (id INT, name TEXT, v FLOAT)")
			for i := 0; i < shape.rows; i++ {
				mustExec(t, e, fmt.Sprintf("INSERT INTO t (id, name, v) VALUES (%d, 'r%d', %d.5)", i/shape.perKey, i, i%7))
			}
			if _, err := e.ExecStmt(stmt); err != nil { // builds the index
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(100, func() {
				if _, err := e.ExecStmt(stmt); err != nil {
					t.Fatal(err)
				}
			})
			if got > maxAllocs {
				t.Errorf("%q on %d rows, %d per key: %v allocations, want at most %d",
					sql, shape.rows, shape.perKey, got, maxAllocs)
			}
		}
	}
}

// TestIsWriteDoesNotAllocate: the controller classifies every query, so
// classifying an upper-case statement must not allocate.
func TestIsWriteDoesNotAllocate(t *testing.T) {
	for _, sql := range []string{"SELECT * FROM items WHERE id = 3", "  INSERT INTO t (a) VALUES (1)", "UPDATE\tt SET a = 1"} {
		if got := testing.AllocsPerRun(100, func() { IsWrite(sql) }); got != 0 {
			t.Errorf("IsWrite(%q) allocates %v times", sql, got)
		}
	}
}
