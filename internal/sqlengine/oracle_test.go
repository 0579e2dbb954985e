package sqlengine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refEngine is the row-scanning executor the indexed engine replaced,
// kept verbatim as a differential oracle: every statement visits every
// row and resolves its WHERE columns per row. It shares the unchanged
// helpers (Table.colIndex, compare, lessValue, Fingerprint).
type refEngine struct {
	tables map[string]*Table
	writes uint64
}

func newRef() *refEngine { return &refEngine{tables: make(map[string]*Table)} }

func (e *refEngine) fingerprint() uint64 { return (&Engine{tables: e.tables}).Fingerprint() }

func (e *refEngine) snapshot() *refEngine {
	cp := newRef()
	cp.writes = e.writes
	for name, t := range e.tables {
		nt := &Table{Name: t.Name, Columns: append([]Column(nil), t.Columns...)}
		nt.Rows = make([]Row, len(t.Rows))
		for i, r := range t.Rows {
			nt.Rows[i] = append(Row(nil), r...)
		}
		cp.tables[name] = nt
	}
	return cp
}

func (e *refEngine) execStmt(stmt Statement) (Result, error) {
	switch s := stmt.(type) {
	case CreateStmt:
		if _, ok := e.tables[s.Table]; ok {
			return Result{}, fmt.Errorf("%w: %s", ErrTableExists, s.Table)
		}
		seen := map[string]bool{}
		for _, c := range s.Columns {
			if seen[c.Name] {
				return Result{}, fmt.Errorf("sql: duplicate column %q in CREATE TABLE %s", c.Name, s.Table)
			}
			seen[c.Name] = true
		}
		e.tables[s.Table] = &Table{Name: s.Table, Columns: append([]Column(nil), s.Columns...)}
		e.writes++
		return Result{}, nil
	case DropStmt:
		if _, ok := e.tables[s.Table]; !ok {
			return Result{}, fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
		}
		delete(e.tables, s.Table)
		e.writes++
		return Result{}, nil
	case InsertStmt:
		return e.execInsert(s)
	case SelectStmt:
		return e.execSelect(s)
	case UpdateStmt:
		return e.execUpdate(s)
	case DeleteStmt:
		return e.execDelete(s)
	}
	return Result{}, fmt.Errorf("sql: unknown statement type %T", stmt)
}

func refCoerce(v Value, t ColType) (Value, error) {
	if v == nil {
		return nil, nil
	}
	switch t {
	case TInt:
		if n, ok := v.(int64); ok {
			return n, nil
		}
	case TFloat:
		switch n := v.(type) {
		case float64:
			return n, nil
		case int64:
			return float64(n), nil
		}
	case TText:
		if s, ok := v.(string); ok {
			return s, nil
		}
	}
	return nil, fmt.Errorf("%w: %v (%T) is not %s", ErrTypeMismatch, v, v, t)
}

func (e *refEngine) execInsert(s InsertStmt) (Result, error) {
	t, ok := e.tables[s.Table]
	if !ok {
		return Result{}, fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
	}
	row := make(Row, len(t.Columns))
	assigned := make([]bool, len(t.Columns))
	for i, cn := range s.Columns {
		ci, err := t.colIndex(cn)
		if err != nil {
			return Result{}, err
		}
		v, err := refCoerce(s.Values[i], t.Columns[ci].Type)
		if err != nil {
			return Result{}, fmt.Errorf("column %s: %w", cn, err)
		}
		row[ci] = v
		assigned[ci] = true
	}
	for i := range row {
		if !assigned[i] {
			row[i] = nil
		}
	}
	t.Rows = append(t.Rows, row)
	e.writes++
	return Result{Affected: 1}, nil
}

func refMatches(t *Table, row Row, conds []Cond) (bool, error) {
	for _, c := range conds {
		ci, err := t.colIndex(c.Column)
		if err != nil {
			return false, err
		}
		ok, err := compare(row[ci], c.Op, c.Val)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

func (e *refEngine) execSelect(s SelectStmt) (Result, error) {
	t, ok := e.tables[s.Table]
	if !ok {
		return Result{}, fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
	}
	var matched []Row
	for _, row := range t.Rows {
		ok, err := refMatches(t, row, s.Where)
		if err != nil {
			return Result{}, err
		}
		if ok {
			matched = append(matched, row)
		}
	}
	if s.OrderBy != "" {
		ci, err := t.colIndex(s.OrderBy)
		if err != nil {
			return Result{}, err
		}
		sort.SliceStable(matched, func(i, j int) bool {
			less := lessValue(matched[i][ci], matched[j][ci])
			if s.Desc {
				return lessValue(matched[j][ci], matched[i][ci])
			}
			return less
		})
	}
	if s.Limit >= 0 && len(matched) > s.Limit {
		matched = matched[:s.Limit]
	}
	if s.Count {
		return Result{Columns: []string{"count"}, Rows: []Row{{int64(len(matched))}}}, nil
	}
	if s.Columns == nil {
		cols := make([]string, len(t.Columns))
		for i, c := range t.Columns {
			cols[i] = c.Name
		}
		out := make([]Row, len(matched))
		for i, r := range matched {
			out[i] = append(Row(nil), r...)
		}
		return Result{Columns: cols, Rows: out}, nil
	}
	idx := make([]int, len(s.Columns))
	for i, cn := range s.Columns {
		ci, err := t.colIndex(cn)
		if err != nil {
			return Result{}, err
		}
		idx[i] = ci
	}
	out := make([]Row, len(matched))
	for i, r := range matched {
		proj := make(Row, len(idx))
		for j, ci := range idx {
			proj[j] = r[ci]
		}
		out[i] = proj
	}
	return Result{Columns: append([]string(nil), s.Columns...), Rows: out}, nil
}

func (e *refEngine) execUpdate(s UpdateStmt) (Result, error) {
	t, ok := e.tables[s.Table]
	if !ok {
		return Result{}, fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
	}
	type setOp struct {
		ci int
		v  Value
	}
	cols := make([]string, 0, len(s.Set))
	for cn := range s.Set {
		cols = append(cols, cn)
	}
	sort.Strings(cols)
	ops := make([]setOp, 0, len(cols))
	for _, cn := range cols {
		ci, err := t.colIndex(cn)
		if err != nil {
			return Result{}, err
		}
		v, err := refCoerce(s.Set[cn], t.Columns[ci].Type)
		if err != nil {
			return Result{}, fmt.Errorf("column %s: %w", cn, err)
		}
		ops = append(ops, setOp{ci: ci, v: v})
	}
	affected := 0
	for i, row := range t.Rows {
		ok, err := refMatches(t, row, s.Where)
		if err != nil {
			return Result{}, err
		}
		if !ok {
			continue
		}
		for _, op := range ops {
			t.Rows[i][op.ci] = op.v
		}
		affected++
	}
	e.writes++
	return Result{Affected: affected}, nil
}

func (e *refEngine) execDelete(s DeleteStmt) (Result, error) {
	t, ok := e.tables[s.Table]
	if !ok {
		return Result{}, fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
	}
	kept := t.Rows[:0]
	affected := 0
	for _, row := range t.Rows {
		ok, err := refMatches(t, row, s.Where)
		if err != nil {
			return Result{}, err
		}
		if ok {
			affected++
		} else {
			kept = append(kept, row)
		}
	}
	t.Rows = kept
	e.writes++
	return Result{Affected: affected}, nil
}

// stmtGen draws RUBiS-shaped statements over two tables whose INT
// columns share a small value domain, so equality lookups hit, chains
// grow long and NULL cells are common.
type stmtGen struct{ rng *rand.Rand }

const (
	genSchema  = "CREATE TABLE items (id INT, name TEXT, seller INT, category INT, price FLOAT)"
	genSchema2 = "CREATE TABLE bids (id INT, item_id INT, bid FLOAT, date INT)"
)

func (g stmtGen) key() int64 { return int64(g.rng.Intn(12)) }

// intLit is an INT column's literal: usually an int, sometimes NULL or a
// float equal to an int (id = 3.0) or between two.
func (g stmtGen) intLit() string {
	switch g.rng.Intn(12) {
	case 0:
		return "NULL"
	case 1:
		return fmt.Sprintf("%d.0", g.key())
	case 2:
		return fmt.Sprintf("%d.5", g.key())
	}
	return fmt.Sprint(g.key())
}

// orNull is v, or NULL one time in five.
func (g stmtGen) orNull(v string) string {
	if g.rng.Intn(5) == 0 {
		return "NULL"
	}
	return v
}

var genOps = []string{"=", "=", "=", "!=", "<", ">=", "<>"}

// itemCond draws one WHERE condition on items: mostly index-shaped INT
// equalities, plus ordered and TEXT comparisons, unknown columns and
// literals of the wrong type.
func (g stmtGen) itemCond() string {
	switch g.rng.Intn(16) {
	case 0:
		return "ghost = 1"
	case 1:
		return fmt.Sprintf("id = '%d'", g.key()) // TEXT literal on INT
	case 2:
		return "name " + genOps[g.rng.Intn(len(genOps))] + " 5" // INT literal on TEXT
	case 3:
		return fmt.Sprintf("name %s 'n%d'", genOps[g.rng.Intn(len(genOps))], g.key())
	case 4:
		return fmt.Sprintf("price %s %d.25", genOps[g.rng.Intn(len(genOps))], g.key())
	case 5:
		return "seller = NULL"
	}
	col := []string{"id", "seller", "category"}[g.rng.Intn(3)]
	op := "="
	if g.rng.Intn(4) == 0 {
		op = genOps[g.rng.Intn(len(genOps))]
	}
	return fmt.Sprintf("%s %s %s", col, op, g.intLit())
}

func (g stmtGen) itemWhere() string {
	n := g.rng.Intn(4)
	if n == 0 {
		return ""
	}
	w := " WHERE " + g.itemCond()
	for i := 1; i < n; i++ {
		w += " AND " + g.itemCond()
	}
	return w
}

func (g stmtGen) next() string {
	switch g.rng.Intn(20) {
	case 0, 1, 2, 3:
		return fmt.Sprintf("INSERT INTO items (id, name, seller, category, price) VALUES (%d, %s, %s, %s, %s)",
			g.key(), g.orNull(fmt.Sprintf("'n%d'", g.key())), g.orNull(fmt.Sprint(g.key())),
			g.orNull(fmt.Sprint(g.key())), g.orNull(fmt.Sprintf("%d", g.key())))
	case 4, 5:
		return fmt.Sprintf("INSERT INTO bids (id, item_id, bid, date) VALUES (%d, %s, %d.5, %d)",
			g.key(), g.orNull(fmt.Sprint(g.key())), g.key(), g.rng.Intn(5))
	case 6:
		return fmt.Sprintf("INSERT INTO items (id, ghost) VALUES (%d, 1)", g.key())
	case 7:
		return fmt.Sprintf("INSERT INTO items (id) VALUES ('%d')", g.key())
	case 8, 9, 10, 11:
		return "SELECT * FROM items" + g.itemWhere()
	case 12:
		return fmt.Sprintf("SELECT name, id FROM items%s ORDER BY %s DESC LIMIT %d",
			g.itemWhere(), []string{"price", "id", "name", "ghost"}[g.rng.Intn(4)], g.rng.Intn(4))
	case 13:
		return fmt.Sprintf("SELECT * FROM bids WHERE item_id = %s ORDER BY date DESC LIMIT 3", g.intLit())
	case 14:
		return fmt.Sprintf("SELECT COUNT(*) FROM bids WHERE item_id = %s AND id = %s", g.intLit(), g.intLit())
	case 15:
		return fmt.Sprintf("UPDATE items SET price = %d.75%s", g.key(), g.itemWhere())
	case 16:
		// Assigns an indexed column (or a NULL into it), often the one
		// the WHERE clause looks up.
		col := []string{"category", "seller", "id"}[g.rng.Intn(3)]
		if g.rng.Intn(2) == 0 {
			return fmt.Sprintf("UPDATE items SET %s = %s WHERE %s = %d", col, g.orNull(fmt.Sprint(g.key())), col, g.key())
		}
		return fmt.Sprintf("UPDATE items SET %s = %s%s", col, g.orNull(fmt.Sprint(g.key())), g.itemWhere())
	case 17:
		if g.rng.Intn(2) == 0 {
			// Deletes rows with a NULL name, then fails on the first
			// matching seller with a non-NULL name: the compaction stops
			// midway and leaves rows duplicated.
			return fmt.Sprintf("DELETE FROM items WHERE seller = %d AND name != 5", g.key())
		}
		return "DELETE FROM items" + g.itemWhere()
	case 18:
		if g.rng.Intn(4) == 0 {
			return "DELETE FROM bids"
		}
		return fmt.Sprintf("DELETE FROM bids WHERE item_id = %s", g.intLit())
	}
	return "UPDATE items SET ghost = 1 WHERE id = 1"
}

// checkSame fails the test unless both executors returned the same
// result or error and hold the same state.
func checkSame(t *testing.T, where string, e *Engine, ref *refEngine, got, want Result, gotErr, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", where, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: result %+v, reference %+v", where, got, want)
	}
	if e.Fingerprint() != ref.fingerprint() || e.Writes() != ref.writes {
		t.Fatalf("%s: state diverged (writes %d vs %d)", where, e.Writes(), ref.writes)
	}
}

// TestIndexedEngineMatchesReference runs seeded random statement streams
// through the indexed engine and the row-scanning reference and requires
// identical results, error strings and fingerprints after every
// statement, including the state a statement failing midway leaves
// behind.
func TestIndexedEngineMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		g := stmtGen{rng: rand.New(rand.NewSource(seed))}
		e, ref := New(), newRef()
		for _, sql := range []string{genSchema, genSchema2} {
			mustExec(t, e, sql)
			stmt, _ := Parse(sql)
			ref.execStmt(stmt)
		}
		for i := 0; i < 400; i++ {
			sql := g.next()
			stmt, err := Parse(sql)
			if err != nil {
				t.Fatalf("seed %d: generated unparsable %q: %v", seed, sql, err)
			}
			got, gotErr := e.ExecStmt(stmt)
			want, wantErr := ref.execStmt(stmt)
			checkSame(t, fmt.Sprintf("seed %d stmt %d %q", seed, i, sql), e, ref, got, want, gotErr, wantErr)
			if g.rng.Intn(50) == 0 {
				e, ref = e.Snapshot(), ref.snapshot()
			}
		}
	}
}

// TestIndexedEngineMatchesReferenceOnUnparsableConds covers conditions
// only a hand-built statement can carry: an unknown operator and a
// literal of a type the parser never produces.
func TestIndexedEngineMatchesReferenceOnUnparsableConds(t *testing.T) {
	stmts := []Statement{
		SelectStmt{Table: "items", Limit: -1, Where: []Cond{{Column: "id", Op: "=", Val: int64(1)}, {Column: "seller", Op: "~", Val: int64(2)}}},
		SelectStmt{Table: "items", Limit: -1, Where: []Cond{{Column: "id", Op: "=", Val: int64(1)}, {Column: "seller", Op: "~", Val: nil}}},
		SelectStmt{Table: "items", Limit: -1, Where: []Cond{{Column: "id", Op: "=", Val: 1}}},
		UpdateStmt{Table: "items", Set: map[string]Value{"price": 1.5}, Where: []Cond{{Column: "category", Op: "=", Val: int64(3)}, {Column: "id", Op: "=", Val: true}}},
	}
	for _, rows := range []int{0, 1, 30} {
		e, ref := New(), newRef()
		g := stmtGen{rng: rand.New(rand.NewSource(int64(rows)))}
		mustExec(t, e, genSchema)
		schema, _ := Parse(genSchema)
		ref.execStmt(schema)
		for i := 0; i < rows; i++ {
			stmt, _ := Parse(fmt.Sprintf("INSERT INTO items (id, seller, category) VALUES (%d, %s, %d)", i%4, g.orNull("2"), i%5))
			e.ExecStmt(stmt)
			ref.execStmt(stmt)
		}
		for _, stmt := range stmts {
			// Build the index first, so a wrong index-served path would show.
			e.Exec("SELECT * FROM items WHERE id = 1 AND category = 3")
			got, gotErr := e.ExecStmt(stmt)
			want, wantErr := ref.execStmt(stmt)
			checkSame(t, fmt.Sprintf("%d rows, %+v", rows, stmt), e, ref, got, want, gotErr, wantErr)
		}
	}
}

// TestRowsExaminedIndexedLookup pins the counters: an index-served
// equality visits only the rows holding its value, a scan visits every
// row, and a failing scan stops at the failing row.
func TestRowsExaminedIndexedLookup(t *testing.T) {
	e := New()
	mustExec(t, e, "CREATE TABLE t (id INT, k INT, v TEXT)")
	for i := 0; i < 100; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO t (id, k, v) VALUES (%d, %d, 'x')", i, i%10))
	}
	cases := []struct {
		sql               string
		examined, matched uint64
	}{
		{"SELECT * FROM t WHERE id = 42", 1, 1},
		{"SELECT * FROM t WHERE k = 3 ORDER BY id DESC LIMIT 2", 10, 10},
		{"SELECT * FROM t WHERE v = 'x' AND k = 3", 10, 10},
		{"SELECT * FROM t WHERE k = 3 AND id < 50", 10, 5},
		{"SELECT * FROM t WHERE id = 42.0", 100, 1},
		{"SELECT * FROM t WHERE id >= 42", 100, 58},
		{"SELECT * FROM t", 100, 100},
		{"UPDATE t SET v = 'y' WHERE id = 7", 1, 1},
		{"DELETE FROM t WHERE k = 9", 100, 10},
	}
	for _, c := range cases {
		ex, m := e.RowsExamined(), e.RowsMatched()
		mustExec(t, e, c.sql)
		if ex, m = e.RowsExamined()-ex, e.RowsMatched()-m; ex != c.examined || m != c.matched {
			t.Errorf("%s examined %d rows and matched %d, want %d and %d", c.sql, ex, m, c.examined, c.matched)
		}
	}
	before := e.RowsExamined()
	if _, err := e.Exec("SELECT * FROM t WHERE v = 5 AND id = 42"); err == nil {
		t.Fatal("type-mismatched literal accepted")
	}
	if got := e.RowsExamined() - before; got != 1 {
		t.Errorf("failing scan examined %d rows, want 1 (stops at the first row)", got)
	}
}
