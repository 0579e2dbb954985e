package sqlengine

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
)

// Errors returned by the engine.
var (
	ErrNoSuchTable  = errors.New("sql: no such table")
	ErrNoSuchColumn = errors.New("sql: no such column")
	ErrTableExists  = errors.New("sql: table already exists")
	ErrTypeMismatch = errors.New("sql: type mismatch")
)

// Row is one table row; indices align with the table's columns.
type Row []Value

// Table is one in-memory table. Rows is exported for reading only:
// callers must not mutate it, because the table's equality indexes
// track its row positions and INT cells.
type Table struct {
	Name    string
	Columns []Column
	Rows    []Row
	// idx holds one lazily built equality index per INT column (nil
	// entries are unbuilt); the whole slice is nil until the first one.
	idx []*eqIndex
}

// eqIndex maps an INT value to the rows holding it as a chain through
// row positions: last[v] is the highest row whose cell is v, and prev[i]
// is the next lower row sharing row i's value (-1 ends a chain; NULL
// rows are never linked). prev has one entry per row, so INSERT extends
// it in O(1).
type eqIndex struct {
	last map[int64]int32
	prev []int32
}

// add links row position pos, whose indexed cell is v, into the index.
func (ix *eqIndex) add(v Value, pos int32) {
	n, ok := v.(int64)
	if !ok {
		ix.prev = append(ix.prev, -1)
		return
	}
	p, ok := ix.last[n]
	if !ok {
		p = -1
	}
	ix.prev = append(ix.prev, p)
	ix.last[n] = pos
}

// index returns the equality index on INT column ci, building it on
// first use.
func (t *Table) index(ci int) *eqIndex {
	if t.idx == nil {
		t.idx = make([]*eqIndex, len(t.Columns))
	}
	if ix := t.idx[ci]; ix != nil {
		return ix
	}
	ix := &eqIndex{last: make(map[int64]int32), prev: make([]int32, 0, len(t.Rows))}
	for i, row := range t.Rows {
		ix.add(row[ci], int32(i))
	}
	t.idx[ci] = ix
	return ix
}

func (t *Table) colIndex(name string) (int, error) {
	for i, c := range t.Columns {
		if c.Name == name {
			return i, nil
		}
	}
	return -1, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, t.Name, name)
}

// Engine is one database instance (one MySQL replica's state).
type Engine struct {
	tables   map[string]*Table
	writes   uint64 // count of successfully executed write statements
	examined uint64 // rows visited while evaluating WHERE clauses
	matched  uint64 // of those, rows the WHERE clause held for
	// Per-statement scratch, reused to keep lookups allocation-free.
	// rows holds a SELECT's matched rows and is cleared after each use,
	// so it never keeps deleted rows alive; proj holds its projection.
	conds []cond
	pos   []int32
	rows  []Row
	proj  []int
}

// New returns an empty database.
func New() *Engine { return &Engine{tables: make(map[string]*Table)} }

// Result is the outcome of executing a statement.
type Result struct {
	Columns  []string
	Rows     []Row
	Affected int
}

// Writes returns the number of write statements executed successfully.
func (e *Engine) Writes() uint64 { return e.writes }

// RowsExamined returns the number of rows visited while evaluating WHERE
// clauses (SELECT, UPDATE and DELETE; a statement without WHERE visits
// every row). An index lookup visits only the rows holding its value, and
// building an index is not counted, so the count is a deterministic
// measure of per-statement scan work.
func (e *Engine) RowsExamined() uint64 { return e.examined }

// RowsMatched returns how many of the examined rows satisfied their
// WHERE clause (before any LIMIT). RowsExamined minus RowsMatched is the
// scan work spent on rows a statement did not want.
func (e *Engine) RowsMatched() uint64 { return e.matched }

// Tables returns table names sorted.
func (e *Engine) Tables() []string {
	out := make([]string, 0, len(e.tables))
	for n := range e.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Table returns the named table.
func (e *Engine) Table(name string) (*Table, bool) {
	t, ok := e.tables[name]
	return t, ok
}

// Exec parses and executes one SQL statement.
func (e *Engine) Exec(sql string) (Result, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return Result{}, err
	}
	return e.ExecStmt(stmt)
}

// ExecStmt executes a parsed statement.
func (e *Engine) ExecStmt(stmt Statement) (Result, error) {
	switch s := stmt.(type) {
	case CreateStmt:
		return e.execCreate(s)
	case DropStmt:
		return e.execDrop(s)
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

func (e *Engine) execCreate(s CreateStmt) (Result, error) {
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
}

func (e *Engine) execDrop(s DropStmt) (Result, error) {
	if _, ok := e.tables[s.Table]; !ok {
		return Result{}, fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
	}
	delete(e.tables, s.Table)
	e.writes++
	return Result{}, nil
}

// coerce converts a literal to the column type, allowing int→float. A
// value that already has the column's type is returned as is, without
// re-boxing it.
func coerce(v Value, t ColType) (Value, error) {
	switch n := v.(type) {
	case nil:
		return nil, nil
	case int64:
		switch t {
		case TInt:
			return v, nil
		case TFloat:
			return float64(n), nil
		}
	case float64:
		if t == TFloat {
			return v, nil
		}
	case string:
		if t == TText {
			return v, nil
		}
	}
	return nil, fmt.Errorf("%w: %v (%T) is not %s", ErrTypeMismatch, v, v, t)
}

func (e *Engine) execInsert(s InsertStmt) (Result, error) {
	t, ok := e.tables[s.Table]
	if !ok {
		return Result{}, fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
	}
	row := make(Row, len(t.Columns)) // unassigned columns stay NULL
	for i, cn := range s.Columns {
		ci, err := t.colIndex(cn)
		if err != nil {
			return Result{}, err
		}
		v, err := coerce(s.Values[i], t.Columns[ci].Type)
		if err != nil {
			return Result{}, fmt.Errorf("column %s: %w", cn, err)
		}
		row[ci] = v
	}
	for ci, ix := range t.idx {
		if ix != nil {
			ix.add(row[ci], int32(len(t.Rows)))
		}
	}
	t.Rows = append(t.Rows, row)
	e.writes++
	return Result{Affected: 1}, nil
}

// cond is a WHERE condition with its column resolved once per
// statement. An unknown column leaves ci at -1 and err set; the error
// is raised only when a row reaches the condition, as a row-by-row
// evaluation of the unresolved condition would.
type cond struct {
	Cond
	ci  int
	err error
}

// bind resolves where against t into e.conds. key is the position of a
// condition the equality index can serve ("INT column = int literal"),
// or -1 when the rows must be scanned: no condition qualifies, or some
// condition could fail on a row (unknown column or operator, literal
// incomparable with the column), which only a full scan reports.
func (e *Engine) bind(t *Table, where []Cond) (conds []cond, key int) {
	conds = e.conds[:0]
	key = -1
	safe := true
	for i, c := range where {
		ci, err := t.colIndex(c.Column)
		conds = append(conds, cond{Cond: c, ci: ci, err: err})
		if err != nil || !safeCond(t.Columns[ci].Type, c.Op, c.Val) {
			safe = false
			continue
		}
		if _, isInt := c.Val.(int64); key < 0 && isInt && c.Op == "=" && t.Columns[ci].Type == TInt {
			key = i
		}
	}
	e.conds = conds
	if !safe {
		key = -1
	}
	return conds, key
}

// safeCond reports whether compare cannot fail for op and lit against
// any cell of a column of type typ (such cells hold typ's Go type or NULL).
func safeCond(typ ColType, op string, lit Value) bool {
	switch op {
	case "=", "!=", "<", ">", "<=", ">=":
	default:
		return false
	}
	switch lit.(type) {
	case nil:
		return true
	case int64, float64:
		return typ != TText
	case string:
		return typ == TText
	}
	return false
}

// matches evaluates the bound conditions on row, stopping at the first
// false or failing one.
func matches(row Row, conds []cond) (bool, error) {
	for i := range conds {
		c := &conds[i]
		if c.err != nil {
			return false, c.err
		}
		ok, err := compare(row[c.ci], c.Op, c.Val)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// rowScan yields the rows of one table that satisfy a WHERE clause, in
// ascending row order.
type rowScan struct {
	e     *Engine
	rows  []Row
	conds []cond
	// pos lists the candidate row positions, ascending, when an index
	// serves the clause; otherwise every row is a candidate.
	pos     []int32
	indexed bool
	i       int
}

// scan starts a rowScan of t for where. With an index-served condition
// it visits only the rows holding that value; otherwise it visits every
// row, and stops with the error of the first row a condition fails on.
func (e *Engine) scan(t *Table, where []Cond) rowScan {
	conds, key := e.bind(t, where)
	s := rowScan{e: e, rows: t.Rows, conds: conds}
	if key < 0 {
		return s
	}
	c := conds[key]
	ix := t.index(c.ci)
	pos := e.pos[:0]
	if p, ok := ix.last[c.Val.(int64)]; ok {
		for ; p >= 0; p = ix.prev[p] {
			pos = append(pos, p)
		}
	}
	for i, j := 0, len(pos)-1; i < j; i, j = i+1, j-1 { // chains run downwards
		pos[i], pos[j] = pos[j], pos[i]
	}
	e.pos = pos
	s.pos, s.indexed = pos, true
	return s
}

// next returns the next matching row, or ok false once the scan is done
// or has failed with err. Index-served scans cannot fail: bind only
// serves clauses whose every condition is safe.
func (s *rowScan) next() (row Row, ok bool, err error) {
	for {
		if s.indexed {
			if s.i >= len(s.pos) {
				return nil, false, nil
			}
			row = s.rows[s.pos[s.i]]
		} else {
			if s.i >= len(s.rows) {
				return nil, false, nil
			}
			row = s.rows[s.i]
		}
		s.i++
		s.e.examined++
		if ok, err = matches(row, s.conds); err != nil {
			return nil, false, err
		}
		if ok {
			s.e.matched++
			return row, true, nil
		}
	}
}

// compare evaluates "cell op literal". NULL compares equal only to NULL
// under "=" and unequal under "!="; ordered comparisons with NULL are
// false.
func compare(cell Value, op string, lit Value) (bool, error) {
	if cell == nil || lit == nil {
		switch op {
		case "=":
			return cell == nil && lit == nil, nil
		case "!=":
			return (cell == nil) != (lit == nil), nil
		default:
			return false, nil
		}
	}
	switch a := cell.(type) {
	case int64:
		var b int64
		switch l := lit.(type) {
		case int64:
			b = l
		case float64:
			return compareFloat(float64(a), op, l)
		default:
			return false, fmt.Errorf("%w: comparing INT with %T", ErrTypeMismatch, lit)
		}
		return compareInt(a, op, b)
	case float64:
		switch l := lit.(type) {
		case float64:
			return compareFloat(a, op, l)
		case int64:
			return compareFloat(a, op, float64(l))
		default:
			return false, fmt.Errorf("%w: comparing FLOAT with %T", ErrTypeMismatch, lit)
		}
	case string:
		b, ok := lit.(string)
		if !ok {
			return false, fmt.Errorf("%w: comparing TEXT with %T", ErrTypeMismatch, lit)
		}
		return compareString(a, op, b)
	}
	return false, fmt.Errorf("%w: unsupported cell type %T", ErrTypeMismatch, cell)
}

func compareInt(a int64, op string, b int64) (bool, error) {
	switch op {
	case "=":
		return a == b, nil
	case "!=":
		return a != b, nil
	case "<":
		return a < b, nil
	case ">":
		return a > b, nil
	case "<=":
		return a <= b, nil
	case ">=":
		return a >= b, nil
	}
	return false, fmt.Errorf("sql: bad operator %q", op)
}

func compareFloat(a float64, op string, b float64) (bool, error) {
	switch op {
	case "=":
		return a == b, nil
	case "!=":
		return a != b, nil
	case "<":
		return a < b, nil
	case ">":
		return a > b, nil
	case "<=":
		return a <= b, nil
	case ">=":
		return a >= b, nil
	}
	return false, fmt.Errorf("sql: bad operator %q", op)
}

func compareString(a, op, b string) (bool, error) {
	switch op {
	case "=":
		return a == b, nil
	case "!=":
		return a != b, nil
	case "<":
		return a < b, nil
	case ">":
		return a > b, nil
	case "<=":
		return a <= b, nil
	case ">=":
		return a >= b, nil
	}
	return false, fmt.Errorf("sql: bad operator %q", op)
}

func (e *Engine) execSelect(s SelectStmt) (Result, error) {
	t, ok := e.tables[s.Table]
	if !ok {
		return Result{}, fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
	}
	matched := e.rows[:0]
	sc := e.scan(t, s.Where)
	row, ok, err := sc.next()
	for ; ok; row, ok, err = sc.next() {
		matched = append(matched, row)
	}
	e.rows = matched
	defer clear(matched)
	if err != nil {
		return Result{}, err
	}
	if s.OrderBy != "" {
		ci, err := t.colIndex(s.OrderBy)
		if err != nil {
			return Result{}, err
		}
		// One column's cells share a type (or are NULL), so lessValue is a
		// strict weak order on them and every stable sort yields the same
		// sequence.
		slices.SortStableFunc(matched, func(a, b Row) int {
			x, y := a[ci], b[ci]
			if s.Desc {
				x, y = y, x
			}
			switch {
			case lessValue(x, y):
				return -1
			case lessValue(y, x):
				return 1
			}
			return 0
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
		out := carve(len(matched), len(cols))
		for i, r := range matched {
			copy(out[i], r)
		}
		return Result{Columns: cols, Rows: out}, nil
	}
	idx := e.proj[:0]
	for _, cn := range s.Columns {
		ci, err := t.colIndex(cn)
		if err != nil {
			return Result{}, err
		}
		idx = append(idx, ci)
	}
	e.proj = idx
	out := carve(len(matched), len(idx))
	for i, r := range matched {
		for j, ci := range idx {
			out[i][j] = r[ci]
		}
	}
	return Result{Columns: append([]string(nil), s.Columns...), Rows: out}, nil
}

// carve returns n result rows of width cells, cut from one backing array.
// Each row's capacity ends at its width, so appending to one reallocates
// it rather than overwriting its neighbour.
func carve(n, width int) []Row {
	cells := make(Row, n*width)
	out := make([]Row, n)
	for i := range out {
		out[i] = cells[i*width : (i+1)*width : (i+1)*width]
	}
	return out
}

// lessValue orders values of the same family; NULL sorts first.
func lessValue(a, b Value) bool {
	if a == nil {
		return b != nil
	}
	if b == nil {
		return false
	}
	switch x := a.(type) {
	case int64:
		switch y := b.(type) {
		case int64:
			return x < y
		case float64:
			return float64(x) < y
		}
	case float64:
		switch y := b.(type) {
		case float64:
			return x < y
		case int64:
			return x < float64(y)
		}
	case string:
		if y, ok := b.(string); ok {
			return x < y
		}
	}
	return false
}

func (e *Engine) execUpdate(s UpdateStmt) (Result, error) {
	t, ok := e.tables[s.Table]
	if !ok {
		return Result{}, fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
	}
	// Validate assignments before mutating anything.
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
		v, err := coerce(s.Set[cn], t.Columns[ci].Type)
		if err != nil {
			return Result{}, fmt.Errorf("column %s: %w", cn, err)
		}
		ops = append(ops, setOp{ci: ci, v: v})
	}
	// Each row is updated as soon as it matches, so a failing row stops
	// the statement with the rows before it already updated.
	affected := 0
	sc := e.scan(t, s.Where)
	row, ok, err := sc.next()
	for ; ok; row, ok, err = sc.next() {
		for _, op := range ops {
			row[op.ci] = op.v
		}
		affected++
	}
	for _, op := range ops {
		if op.ci < len(t.idx) {
			t.idx[op.ci] = nil // assigned cells no longer match their chains
		}
	}
	if err != nil {
		return Result{}, err
	}
	e.writes++
	return Result{Affected: affected}, nil
}

func (e *Engine) execDelete(s DeleteStmt) (Result, error) {
	t, ok := e.tables[s.Table]
	if !ok {
		return Result{}, fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
	}
	// Row positions shift (even on a failing row, which stops the
	// compaction midway), so every index of the table goes.
	t.idx = nil
	conds, _ := e.bind(t, s.Where)
	kept := t.Rows[:0]
	affected := 0
	for _, row := range t.Rows {
		e.examined++
		ok, err := matches(row, conds)
		if err != nil {
			return Result{}, err
		}
		if ok {
			e.matched++
			affected++
		} else {
			kept = append(kept, row)
		}
	}
	t.Rows = kept
	e.writes++
	return Result{Affected: affected}, nil
}

// Snapshot returns a deep copy of the database — the "initial known state"
// installed on a fresh replica before the recovery log replays the delta.
// Indexes are not copied; the copy builds its own on first use.
func (e *Engine) Snapshot() *Engine {
	cp := New()
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

// Fingerprint returns a content hash of the full database state
// (schema + rows, order-independent across tables, order-dependent within
// a table as row order is part of engine state). Two replicas are
// consistent iff their fingerprints are equal.
func (e *Engine) Fingerprint() uint64 {
	h := fnv.New64a()
	for _, name := range e.Tables() {
		t := e.tables[name]
		h.Write([]byte("table:" + name))
		for _, c := range t.Columns {
			h.Write([]byte(c.Name + ":" + c.Type.String()))
		}
		for _, r := range t.Rows {
			for _, v := range r {
				writeValue(h, v)
			}
			h.Write([]byte{0xFF})
		}
	}
	return h.Sum64()
}

func writeValue(h interface{ Write([]byte) (int, error) }, v Value) {
	switch x := v.(type) {
	case nil:
		h.Write([]byte("N"))
	case int64:
		h.Write([]byte("i" + strconv.FormatInt(x, 10)))
	case float64:
		h.Write([]byte("f" + strconv.FormatFloat(x, 'g', -1, 64)))
	case string:
		h.Write([]byte("s" + x))
	}
	h.Write([]byte{0})
}

// RowCount returns the number of rows in a table (0 if absent).
func (e *Engine) RowCount(table string) int {
	if t, ok := e.tables[table]; ok {
		return len(t.Rows)
	}
	return 0
}
