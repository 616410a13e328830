package r3

import (
	"fmt"

	"r3bench/internal/cost"
	"r3bench/internal/engine"
	"r3bench/internal/val"
)

// Row is one logical row delivered to a report, with named field access.
type Row struct {
	cols map[string]int
	vals []val.Value
}

// Get returns a field by name (NULL for unknown fields).
func (r Row) Get(name string) val.Value {
	if i, ok := r.cols[name]; ok {
		return r.vals[i]
	}
	return val.Null
}

// Vals exposes the raw values.
func (r Row) Vals() []val.Value { return r.vals }

// Cond is one Open SQL WHERE condition; conditions AND-combine. Op is one
// of = <> < <= > >= LIKE BETWEEN IN.
type Cond struct {
	Col  string
	Op   string
	Val  val.Value
	Hi   val.Value   // BETWEEN upper bound
	Vals []val.Value // IN list
}

// Eq builds an equality condition.
func Eq(col string, v val.Value) Cond { return Cond{Col: col, Op: "=", Val: v} }

// Lt / Le / Gt / Ge build range conditions.
func Lt(col string, v val.Value) Cond { return Cond{Col: col, Op: "<", Val: v} }

// Le builds col <= v.
func Le(col string, v val.Value) Cond { return Cond{Col: col, Op: "<=", Val: v} }

// Gt builds col > v.
func Gt(col string, v val.Value) Cond { return Cond{Col: col, Op: ">", Val: v} }

// Ge builds col >= v.
func Ge(col string, v val.Value) Cond { return Cond{Col: col, Op: ">=", Val: v} }

// Ne builds col <> v.
func Ne(col string, v val.Value) Cond { return Cond{Col: col, Op: "<>", Val: v} }

// Like builds col LIKE pattern.
func Like(col string, pat string) Cond { return Cond{Col: col, Op: "LIKE", Val: val.Str(pat)} }

// Between builds col BETWEEN lo AND hi.
func Between(col string, lo, hi val.Value) Cond {
	return Cond{Col: col, Op: "BETWEEN", Val: lo, Hi: hi}
}

// In builds col IN (vals...).
func In(col string, vals ...val.Value) Cond { return Cond{Col: col, Op: "IN", Vals: vals} }

// NotLike builds col NOT LIKE pattern.
func NotLike(col string, pat string) Cond { return Cond{Col: col, Op: "NOT LIKE", Val: val.Str(pat)} }

// OpenSQL is one work process's Open SQL connection: safe, portable,
// dictionary-mediated access (paper Section 2.3). Statements translate
// generically — every literal becomes a parameter, and the client
// (MANDT) predicate is injected automatically — which enables cursor
// caching and defeats the RDBMS optimizer's selectivity estimation
// (Section 4.1).
type OpenSQL struct {
	sys  *System
	sess *engine.Session
	sc   *stmtCache
	ph   *Phases
	sql  []byte // the statement being translated
	// Translations counts ABAP→SQL statement translations: one per
	// statement shape the connection reads, each one Translate charge.
	Translations int64
}

// OpenSQL opens an Open SQL connection charging the given meter.
func (sys *System) OpenSQL(m *cost.Meter) *OpenSQL {
	sess := sys.DB.NewSessionWithMeter(m)
	return &OpenSQL{sys: sys, sess: sess, sc: newStmtCache(sys, sess)}
}

// Meter returns the connection's virtual clock.
func (o *OpenSQL) Meter() *cost.Meter { return o.sess.Meter }

// SetPhases directs the connection's phase attribution (nil detaches).
// The caller attaches the same Phases to the meter with Phases.Attach.
func (o *OpenSQL) SetPhases(p *Phases) { o.ph = p }

// appendCond renders one condition onto sql with `?` placeholders and its
// parameters onto params.
func appendCond(sql []byte, params []val.Value, alias string, c Cond) ([]byte, []val.Value, error) {
	if alias != "" {
		sql = append(append(sql, alias...), '.')
	}
	sql = append(sql, c.Col...)
	switch c.Op {
	case "=", "<>", "<", "<=", ">", ">=", "LIKE", "NOT LIKE":
		sql = append(append(append(sql, ' '), c.Op...), " ?"...)
		params = append(params, c.Val)
	case "BETWEEN":
		sql = append(sql, " BETWEEN ? AND ?"...)
		params = append(params, c.Val, c.Hi)
	case "IN":
		sql = append(sql, " IN ("...)
		for i, v := range c.Vals {
			if i > 0 {
				sql = append(sql, ", "...)
			}
			sql = append(sql, '?')
			params = append(params, v)
		}
		sql = append(sql, ')')
	default:
		return sql, params, fmt.Errorf("r3: unsupported Open SQL operator %q", c.Op)
	}
	return sql, params, nil
}

// evalCond applies a condition client-side (for encapsulated tables).
func evalCond(t *LogicalTable, row []val.Value, c Cond) bool {
	ci := t.ColIndex(c.Col)
	if ci < 0 {
		return false
	}
	v := row[ci]
	switch c.Op {
	case "=":
		return val.Compare(v, c.Val) == 0
	case "<>":
		return val.Compare(v, c.Val) != 0
	case "<":
		return val.Compare(v, c.Val) < 0
	case "<=":
		return val.Compare(v, c.Val) <= 0
	case ">":
		return val.Compare(v, c.Val) > 0
	case ">=":
		return val.Compare(v, c.Val) >= 0
	case "BETWEEN":
		return val.Compare(v, c.Val) >= 0 && val.Compare(v, c.Hi) <= 0
	case "LIKE":
		return val.Like(v.AsStr(), c.Val.AsStr())
	case "NOT LIKE":
		return !val.Like(v.AsStr(), c.Val.AsStr())
	case "IN":
		for _, x := range c.Vals {
			if val.Compare(v, x) == 0 {
				return true
			}
		}
		return false
	}
	return false
}

// rowFor wraps logical values in a named Row.
func rowFor(t *LogicalTable, vals []val.Value) Row {
	return Row{cols: t.colIdx, vals: vals}
}

// Select is the ABAP `SELECT ... FROM <one table> WHERE ... ENDSELECT`
// loop: it streams matching rows of ONE logical table to fn. Transparent
// tables push the (parameterized) conditions to the RDBMS; pool and
// cluster tables are read through the dictionary with key-prefix access
// only, all other conditions filtering in the application server.
//
// A row is valid until fn returns: the session reuses its storage for the
// next execution. A caller that keeps the row copies its values, and one
// that keeps its strings past the report gives them storage of their own —
// they are views of page images.
func (o *OpenSQL) Select(table string, conds []Cond, fn func(Row) error) error {
	t := o.sys.Table(table)
	if t == nil {
		return fmt.Errorf("r3: unknown table %s", table)
	}
	if buf := o.sys.Buffer(t.Name); buf != nil && !condsPinFullKey(t, conds) {
		// Single-record buffering only: a SELECT loop that does not pin
		// the full primary key is a (partial) table scan, and pouring its
		// rows into the buffer would evict the point-lookup working set.
		// The rows stream past the buffer; only a counter notes them.
		inner := fn
		fn = func(r Row) error {
			buf.noteScanBypass(1)
			return inner(r)
		}
	}
	// The statement shape: what a transparent read sends, and the key of
	// every read's translation whatever the table's kind.
	o.sql = append(append(append(o.sql[:0], "SELECT * FROM "...), t.Name...), " WHERE MANDT = ?"...)
	params := append(o.sc.params[:0], val.Str(DefaultClient))
	for _, c := range conds {
		var err error
		o.sql = append(o.sql, " AND "...)
		if o.sql, params, err = appendCond(o.sql, params, "", c); err != nil {
			return err
		}
	}
	o.sc.params = params
	if t.Kind != Transparent {
		return o.selectEncapsulated(t, conds, fn)
	}
	st, err := o.cursor(o.sql, "")
	if err != nil {
		return err
	}
	return o.sc.each(o.ph, st, params, func(vals []val.Value) error { return fn(rowFor(t, vals)) })
}

// keyEq returns the index of the first equality on col among conds, or -1.
func keyEq(conds []Cond, col string) int {
	for i, c := range conds {
		if c.Col == col && c.Op == "=" {
			return i
		}
	}
	return -1
}

// condsPinFullKey reports whether conds pin every primary-key column
// after the implicit MANDT with an equality — the SELECT SINGLE shape.
// Such reads are single-record accesses, not scans, and stay eligible
// for buffer insertion (SelectSingle reaches Select through its DB path).
func condsPinFullKey(t *LogicalTable, conds []Cond) bool {
	for _, kc := range t.KeyCols[1:] {
		if keyEq(conds, kc) < 0 {
			return false
		}
	}
	return true
}

// cursor returns the session's cursor for a statement shape, charging one
// ABAP→SQL translation per new shape. A transparent read's or a join's shape
// is the statement it executes (phys ""); a pool or cluster read's entry
// holds the physical statement phys. Only a miss makes a string of text.
func (o *OpenSQL) cursor(text []byte, phys string) (*engine.Stmt, error) {
	if st, ok := o.sc.stmts[string(text)]; ok {
		o.sys.cursorHits.Add(1)
		return st, nil
	}
	restore := o.ph.enterTranslate(o.sess.Meter)
	o.sess.Meter.Charge(cost.Translate, 1)
	restore()
	o.Translations++
	defer o.ph.enterDB(o.sess.Meter)()
	if phys == "" {
		return o.sc.prepare(string(text))
	}
	st, err := o.sc.get(phys)
	if err == nil {
		o.sc.stmts[string(text)] = st
	}
	return st, err
}

// selectEncapsulated reads a pool/cluster table, its statement shape in
// o.sql: leading key equalities become dictionary key-prefix access,
// everything else filters in the application server after decode.
func (o *OpenSQL) selectEncapsulated(t *LogicalTable, conds []Cond, fn func(Row) error) error {
	// Bit i of used marks conds[i] as taken into the key prefix.
	var used uint64
	prefix := make([]val.Value, 1, 8)
	prefix[0] = val.Str(DefaultClient)
	for len(prefix) < len(t.KeyCols) {
		i := keyEq(conds, t.KeyCols[len(prefix)])
		if i < 0 || i >= 64 {
			break
		}
		prefix = append(prefix, conds[i].Val)
		used |= 1 << i
	}
	st, err := o.cursor(o.sql, t.scanSQL(len(prefix)))
	if err != nil {
		return err
	}
	m := o.sess.Meter
	restoreDB := o.ph.enterDB(m)
	defer restoreDB()
	return o.sc.scan(st, t, prefix, func(vals []val.Value) error {
		// Decoded rows filter and deliver in the application server.
		restoreClient := o.ph.enterClient(m)
		defer restoreClient()
		for i, c := range conds {
			if used&(1<<i) != 0 {
				continue
			}
			m.Charge(cost.TupleCPU, 1)
			if !evalCond(t, vals, c) {
				return nil
			}
		}
		return fn(rowFor(t, vals))
	})
}

// SelectSingle is the ABAP `SELECT SINGLE`: the conditions must pin the
// full primary key; at most one row comes back, and it stays valid.
// Buffered tables are served from the application-server table buffer on a
// hit, with no RDBMS interaction at all (paper Section 4.3).
func (o *OpenSQL) SelectSingle(table string, conds []Cond) (Row, bool, error) {
	t := o.sys.Table(table)
	if t == nil {
		return Row{}, false, fmt.Errorf("r3: unknown table %s", table)
	}
	// The key must be fully specified (MANDT is implicit).
	for _, kc := range t.KeyCols[1:] {
		if keyEq(conds, kc) < 0 {
			return Row{}, false, fmt.Errorf("r3: SELECT SINGLE on %s requires the full key (missing %s)", table, kc)
		}
	}
	if buf := o.sys.Buffer(t.Name); buf != nil {
		keyVals := []val.Value{val.Str(DefaultClient)}
		for _, kc := range t.KeyCols[1:] {
			keyVals = append(keyVals, conds[keyEq(conds, kc)].Val)
		}
		key := t.keyPrefixString(keyVals)
		if vals, hit := buf.lookup(key, o.sess.Meter); hit {
			return rowFor(t, vals), true, nil
		}
		row, ok, err := o.selectSingleDB(t, conds)
		if err == nil && ok {
			buf.insert(key, row.vals, o.sess.Meter)
		}
		return row, ok, err
	}
	return o.selectSingleDB(t, conds)
}

// selectSingleDB reads the row from the database and copies its values
// into the session's kept chunks.
func (o *OpenSQL) selectSingleDB(t *LogicalTable, conds []Cond) (Row, bool, error) {
	var out Row
	found := false
	err := o.Select(t.Name, conds, func(r Row) error {
		out = rowFor(t, o.sc.keep(r.vals))
		found = true
		return errStopSelect
	})
	if err != nil && err != errStopSelect {
		return Row{}, false, err
	}
	return out, found, nil
}

// errStopSelect stops a SELECT...ENDSELECT loop early (ABAP EXIT).
var errStopSelect = fmt.Errorf("r3: stop select")

// StopSelect is the sentinel a report returns from its row callback to
// leave the SELECT loop (ABAP's EXIT).
var StopSelect = errStopSelect

// InsertGroup writes several logical rows of one table in one shot; rows of
// a cluster table must share a cluster key (how SAP writes a document's
// conditions).
func (o *OpenSQL) InsertGroup(table string, rows []map[string]val.Value) error {
	t := o.sys.Table(table)
	if t == nil {
		return fmt.Errorf("r3: unknown table %s", table)
	}
	full, err := o.sys.physRows(t, rows)
	if err != nil {
		return err
	}
	// Buffer invalidation happens in the engine write hook (Install), so
	// every write interface — not just this one — keeps buffers coherent.
	m := o.sess.Meter
	defer o.ph.enterDB(m)()
	if t.Kind != Transparent {
		m.Charge(cost.Decode, int64(len(full))) // encode on the way in
	}
	return t.toPhysical(full, func(phys []val.Value) error { return o.sess.InsertRow(t.physName(), phys) })
}

// Delete removes logical rows by key prefix (MANDT implicit).
func (o *OpenSQL) Delete(table string, keyVals ...val.Value) error {
	t := o.sys.Table(table)
	if t == nil {
		return fmt.Errorf("r3: unknown table %s", table)
	}
	prefix := append([]val.Value{val.Str(DefaultClient)}, keyVals...)
	defer o.ph.enterDB(o.sess.Meter)()
	return o.sys.deleteLogical(o.sess, t, prefix)
}

// Commit ends the current logical unit of work. Without a WAL the
// engine keeps its historical behavior (dirty pages flush and the log
// forces as one charge); with one, the commit is a log force only and
// may ride a group commit (DESIGN.md §14).
func (o *OpenSQL) Commit() {
	defer o.ph.enterDB(o.sess.Meter)()
	o.sess.Commit()
}
