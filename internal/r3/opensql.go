package r3

import (
	"fmt"
	"strings"

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
	// Translations counts ABAP→SQL statement translations (cursor-cache
	// misses).
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

// System returns the owning R/3 system.
func (o *OpenSQL) System() *System { return o.sys }

// translate renders one condition into SQL with `?` placeholders,
// appending its parameters.
func translateCond(alias string, c Cond, params *[]val.Value) (string, error) {
	col := c.Col
	if alias != "" {
		col = alias + "." + col
	}
	switch c.Op {
	case "=", "<>", "<", "<=", ">", ">=", "LIKE":
		*params = append(*params, c.Val)
		return fmt.Sprintf("%s %s ?", col, c.Op), nil
	case "NOT LIKE":
		*params = append(*params, c.Val)
		return fmt.Sprintf("%s NOT LIKE ?", col), nil
	case "BETWEEN":
		*params = append(*params, c.Val, c.Hi)
		return fmt.Sprintf("%s BETWEEN ? AND ?", col), nil
	case "IN":
		qs := make([]string, len(c.Vals))
		for i, v := range c.Vals {
			qs[i] = "?"
			*params = append(*params, v)
		}
		return fmt.Sprintf("%s IN (%s)", col, strings.Join(qs, ", ")), nil
	default:
		return "", fmt.Errorf("r3: unsupported Open SQL operator %q", c.Op)
	}
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
		return likeClient(v.AsStr(), c.Val.AsStr())
	case "NOT LIKE":
		return !likeClient(v.AsStr(), c.Val.AsStr())
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

// likeClient is the application server's LIKE matcher.
func likeClient(s, pat string) bool {
	si, pi := 0, 0
	star, mark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pat) && (pat[pi] == '_' || pat[pi] == s[si]):
			si++
			pi++
		case pi < len(pat) && pat[pi] == '%':
			star, mark = pi, si
			pi++
		case star >= 0:
			pi = star + 1
			mark++
			si = mark
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
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
	if t.Kind != Transparent {
		return o.selectEncapsulated(t, conds, fn)
	}
	params := []val.Value{val.Str(o.sys.Client)}
	where := []string{"MANDT = ?"}
	for _, c := range conds {
		sql, err := translateCond("", c, &params)
		if err != nil {
			return err
		}
		where = append(where, sql)
	}
	sqlText := "SELECT * FROM " + t.Name + " WHERE " + strings.Join(where, " AND ")
	st, err := o.prepare(sqlText)
	if err != nil {
		return err
	}
	restore := o.ph.enterDB(o.sess.Meter)
	res, err := st.Query(params...)
	restore()
	if err != nil {
		return err
	}
	for _, vals := range res.Rows {
		if err := fn(rowFor(t, vals)); err != nil {
			return err
		}
	}
	return nil
}

// condsPinFullKey reports whether conds pin every primary-key column
// after the implicit MANDT with an equality — the SELECT SINGLE shape.
// Such reads are single-record accesses, not scans, and stay eligible
// for buffer insertion (SelectSingle reaches Select through its DB path).
func condsPinFullKey(t *LogicalTable, conds []Cond) bool {
	for _, kc := range t.KeyCols[1:] {
		found := false
		for _, c := range conds {
			if c.Col == kc && c.Op == "=" {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// prepare goes through the cursor cache, charging one ABAP→SQL
// translation per new statement shape.
func (o *OpenSQL) prepare(sqlText string) (*engine.Stmt, error) {
	if _, cached := o.sc.stmts[sqlText]; !cached {
		restore := o.ph.enterTranslate(o.sess.Meter)
		o.sess.Meter.Charge(cost.Translate, 1)
		restore()
		o.Translations++
	}
	restore := o.ph.enterDB(o.sess.Meter)
	defer restore()
	return o.sc.get(sqlText)
}

// selectEncapsulated reads a pool/cluster table: leading key equalities
// become dictionary key-prefix access, everything else filters in the
// application server after decode.
func (o *OpenSQL) selectEncapsulated(t *LogicalTable, conds []Cond, fn func(Row) error) error {
	restore := o.ph.enterTranslate(o.sess.Meter)
	o.sess.Meter.Charge(cost.Translate, 1)
	restore()
	prefix := []val.Value{val.Str(o.sys.Client)}
	remaining := conds
	for len(prefix) < len(t.KeyCols) {
		next := t.KeyCols[len(prefix)]
		found := false
		for i, c := range remaining {
			if c.Col == next && c.Op == "=" {
				prefix = append(prefix, c.Val)
				remaining = append(append([]Cond(nil), remaining[:i]...), remaining[i+1:]...)
				found = true
				break
			}
		}
		if !found {
			break
		}
	}
	m := o.sess.Meter
	restoreDB := o.ph.enterDB(m)
	defer restoreDB()
	return o.sys.scanLogical(o.sc, t, prefix, func(vals []val.Value) error {
		// Decoded rows filter and deliver in the application server.
		restoreClient := o.ph.enterClient(m)
		defer restoreClient()
		for _, c := range remaining {
			m.Charge(cost.TupleCPU, 1)
			if !evalCond(t, vals, c) {
				return nil
			}
		}
		return fn(rowFor(t, vals))
	})
}

// SelectSingle is the ABAP `SELECT SINGLE`: the conditions must pin the
// full primary key; at most one row comes back. Buffered tables are
// served from the application-server table buffer on a hit, with no RDBMS
// interaction at all (paper Section 4.3).
func (o *OpenSQL) SelectSingle(table string, conds []Cond) (Row, bool, error) {
	t := o.sys.Table(table)
	if t == nil {
		return Row{}, false, fmt.Errorf("r3: unknown table %s", table)
	}
	// The key must be fully specified (MANDT is implicit).
	keyVals := make([]val.Value, 0, len(t.KeyCols))
	keyVals = append(keyVals, val.Str(o.sys.Client))
	for _, kc := range t.KeyCols[1:] {
		found := false
		for _, c := range conds {
			if c.Col == kc && c.Op == "=" {
				keyVals = append(keyVals, c.Val)
				found = true
				break
			}
		}
		if !found {
			return Row{}, false, fmt.Errorf("r3: SELECT SINGLE on %s requires the full key (missing %s)", table, kc)
		}
	}
	if buf := o.sys.Buffer(t.Name); buf != nil {
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

func (o *OpenSQL) selectSingleDB(t *LogicalTable, conds []Cond) (Row, bool, error) {
	var out Row
	found := false
	err := o.Select(t.Name, conds, func(r Row) error {
		out = r
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

// Insert writes one logical row through the dictionary (used by the
// batch-input facility and the update functions).
func (o *OpenSQL) Insert(table string, fields map[string]val.Value) error {
	return o.InsertGroup(table, []map[string]val.Value{fields})
}

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
	prefix := append([]val.Value{val.Str(o.sys.Client)}, keyVals...)
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
