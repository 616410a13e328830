package r3

import (
	"fmt"
	"strings"

	"r3bench/internal/cost"
	"r3bench/internal/engine"
	"r3bench/internal/val"
)

// stmtCache is a per-session cursor cache (paper Section 2.3: "using the
// same cursor for, say, all the queries that retrieve the matching tuples
// of the inner relation in a nested SELECT statement"), and the session's
// fetch arena: every cursor copies the rows of an execution into arena
// chunks — values into vals, CHAR bytes into chars — that all cursors of the
// session share. The arena is append-only: a row handed out is never written
// again, so a report keeps it (or a string cut from it) as long as it likes,
// and a chunk goes when no kept row points into it.
type stmtCache struct {
	sys    *System
	sess   *engine.Session
	stmts  map[string]*cursor
	params []val.Value // the parameters of the statement being executed
	vals   []val.Value // the free tail of the current arena chunk
	chars  val.Slab
	// decode holds one pool/cluster decode row per nesting depth of
	// scanLogical; depth is the number in use.
	decode [][]val.Value
	depth  int
}

// arenaChunk is the value count of an arena chunk (10 KiB): a SELECT SINGLE
// fills a few dozen before one is allocated.
const arenaChunk = 256

func newStmtCache(sys *System, sess *engine.Session) *stmtCache {
	return &stmtCache{sys: sys, sess: sess, stmts: make(map[string]*cursor)}
}

// get returns the cursor for the statement text, preparing it on first use.
// Hits and misses roll up into system-wide counters for the metrics
// registry.
func (sc *stmtCache) get(sql string) (*cursor, error) {
	if c, ok := sc.stmts[sql]; ok {
		sc.sys.cursorHits.Add(1)
		return c, nil
	}
	return sc.prepare(sql)
}

// prepare opens a cursor for a statement text not in the cache.
func (sc *stmtCache) prepare(sql string) (*cursor, error) {
	sc.sys.cursorMisses.Add(1)
	st, err := sc.sess.Prepare(sql)
	if err != nil {
		return nil, err
	}
	c := &cursor{st: st, sc: sc}
	sc.stmts[sql] = c
	return c, nil
}

// decodeRow returns the cleared decode row of the next nesting depth, n
// values wide: a scanLogical run from a callback of another decodes into a
// row of its own. The caller hands the depth back with popDecode.
func (sc *stmtCache) decodeRow(n int) []val.Value {
	if sc.depth == len(sc.decode) {
		sc.decode = append(sc.decode, nil)
	}
	row := sc.decode[sc.depth]
	if cap(row) < n {
		row = make([]val.Value, n)
		sc.decode[sc.depth] = row
	}
	sc.depth++
	row = row[:n]
	clear(row)
	return row
}

func (sc *stmtCache) popDecode() { sc.depth-- }

// keep copies a row whose strings the session already owns into the arena.
func (sc *stmtCache) keep(row []val.Value) []val.Value {
	if len(row) > len(sc.vals) {
		sc.vals = make([]val.Value, max(len(row), arenaChunk))
	}
	own := sc.vals[:len(row):len(row)]
	sc.vals = sc.vals[len(row):]
	copy(own, row)
	return own
}

// cursor is one statement of a session's cursor cache: the prepared engine
// statement, and the rows of the execution being iterated.
type cursor struct {
	st   *engine.Stmt
	sc   *stmtCache
	rows [][]val.Value
	busy bool // rows are being handed out
}

// Header implements engine.RowSink.
func (c *cursor) Header([]string) error { return nil }

// Row implements engine.RowSink: the row and its CHAR bytes go into the
// session's arena.
func (c *cursor) Row(row []val.Value) error {
	own := c.sc.keep(row)
	c.sc.chars.Own(own)
	c.rows = append(c.rows, own)
	return nil
}

// each executes the cursor with params — in ph's DB span — and hands fn
// every row of the result. Every row is fetched before the first is handed
// out, so a nested SELECT in fn reads its pages after the outer statement has
// read all of its own, exactly as a materialised result does. The rows are
// the arena's: fn may keep them. A cursor re-entered from fn runs the
// re-entering execution on a cursor of its own.
func (c *cursor) each(ph *Phases, params []val.Value, fn func([]val.Value) error) error {
	if c.busy {
		return (&cursor{st: c.st, sc: c.sc}).each(ph, params, fn)
	}
	c.busy = true
	defer c.release()
	restore := ph.enterDB(c.sc.sess.Meter)
	_, err := c.st.QueryTo(c, params...)
	restore()
	if err != nil {
		return err
	}
	for _, row := range c.rows {
		if err := fn(row); err != nil {
			return err
		}
	}
	return nil
}

// release ends an iteration. The headers are cleared, so that the cursor pins
// no row its reader let go of, and a header array grown past 64 rows goes:
// the cache holds hundreds of cursors.
func (c *cursor) release() {
	clear(c.rows)
	c.rows = c.rows[:0]
	if cap(c.rows) > 64 {
		c.rows = nil
	}
	c.busy = false
}

// scanLogical streams a logical table's rows, optionally bounded by a
// prefix of its key, decoding pool/cluster storage as needed. A row is valid
// only during its callback — pool and cluster rows are decoded into the
// session's decode row of the scan's nesting depth (stmtCache.decodeRow) —
// but its strings are the session's: a caller that keeps the row copies the
// slice (stmtCache.keep), not the bytes.
func (sys *System) scanLogical(sc *stmtCache, t *LogicalTable, keyPrefix []val.Value, fn func([]val.Value) error) error {
	switch t.Kind {
	case Transparent:
		return sys.scanTransparent(sc, t, keyPrefix, fn)
	case Pooled:
		return sys.scanPool(sc, t, keyPrefix, fn)
	default:
		return sys.scanCluster(sc, t, keyPrefix, fn)
	}
}

func (sys *System) scanTransparent(sc *stmtCache, t *LogicalTable, keyPrefix []val.Value, fn func([]val.Value) error) error {
	var where []string
	for i := range keyPrefix {
		where = append(where, t.KeyCols[i]+" = ?")
	}
	sql := "SELECT * FROM " + t.Name
	if len(where) > 0 {
		sql += " WHERE " + strings.Join(where, " AND ")
	}
	c, err := sc.get(sql)
	if err != nil {
		return err
	}
	sc.params = append(sc.params[:0], keyPrefix...)
	return c.each(nil, sc.params, fn)
}

// poolScanSQL reads the pool's physical tuples of one table in a VARKEY range.
const poolScanSQL = `SELECT VARKEY, VARDATA FROM ` + poolTableName + ` WHERE TABNAME = ? AND VARKEY >= ? AND VARKEY <= ?`

func (sys *System) scanPool(sc *stmtCache, t *LogicalTable, keyPrefix []val.Value, fn func([]val.Value) error) error {
	prefix := t.keyPrefixString(keyPrefix)
	c, err := sc.get(poolScanSQL)
	if err != nil {
		return err
	}
	sc.params = append(sc.params[:0], val.Str(t.Name), val.Str(prefix), val.Str(prefix+"ÿ"))
	m := sc.sess.Meter
	row := sc.decodeRow(len(t.Cols))
	defer sc.popDecode()
	return c.each(nil, sc.params, func(phys []val.Value) error {
		m.Charge(cost.Decode, 1)
		if err := t.decodeKeyString(phys[0].AsStr(), row); err != nil {
			return err
		}
		if err := t.unpackRow(row, phys[1].AsStr()); err != nil {
			return err
		}
		return fn(row)
	})
}

// decodeKeyString splits a fixed-width VARKEY back into the pool table's
// key columns of row.
func (t *LogicalTable) decodeKeyString(vk string, row []val.Value) error {
	off := 0
	for _, ci := range t.physKey {
		w := t.Cols[ci].Type.Width
		if off+w > len(vk) {
			return fmt.Errorf("r3: short VARKEY for %s", t.Name)
		}
		row[ci] = parseAs(strings.TrimRight(vk[off:off+w], " "), t.Cols[ci].Type)
		off += w
	}
	return nil
}

func (sys *System) scanCluster(sc *stmtCache, t *LogicalTable, keyPrefix []val.Value, fn func([]val.Value) error) error {
	nPrefix := len(t.ClusterPrefix)
	n := min(len(keyPrefix), nPrefix) // deeper prefixes filter after decode
	c, err := sc.get(t.clusterSQL[n])
	if err != nil {
		return err
	}
	sc.params = append(sc.params[:0], keyPrefix[:n]...)
	m := sc.sess.Meter
	row := sc.decodeRow(len(t.Cols))
	defer sc.popDecode()
	return c.each(nil, sc.params, func(prow []val.Value) error {
		for j, ci := range t.physKey {
			row[ci] = prow[j]
		}
		// The packed rows are walked where they lie in VARDATA; an empty
		// VARDATA holds none.
		blob := prow[nPrefix+1].AsStr()
		for more := blob != ""; more; {
			var packed string
			packed, blob, more = strings.Cut(blob, rowSep)
			m.Charge(cost.Decode, 1)
			if err := t.unpackRow(row, packed); err != nil {
				return err
			}
			if !t.matchesKey(row, keyPrefix[n:], n) {
				continue
			}
			if err := fn(row); err != nil {
				return err
			}
		}
		return nil
	})
}

// matchesKey reports whether row's key columns from the (from)th on equal
// vals.
func (t *LogicalTable) matchesKey(row, vals []val.Value, from int) bool {
	for i, v := range vals {
		if val.Compare(row[t.ColIndex(t.KeyCols[from+i])], v) != 0 {
			return false
		}
	}
	return true
}

// deleteLogical removes logical rows matching a key prefix. For cluster
// tables the prefix must cover the cluster prefix.
func (sys *System) deleteLogical(s *engine.Session, t *LogicalTable, keyPrefix []val.Value) error {
	switch t.Kind {
	case Transparent:
		var where []string
		var params []val.Value
		for i := range keyPrefix {
			where = append(where, t.KeyCols[i]+" = ?")
			params = append(params, keyPrefix[i])
		}
		_, err := s.Exec("DELETE FROM "+t.Name+" WHERE "+strings.Join(where, " AND "), params...)
		return err
	case Pooled:
		prefix := t.keyPrefixString(keyPrefix)
		_, err := s.Exec(fmt.Sprintf(
			`DELETE FROM %s WHERE TABNAME = ? AND VARKEY >= ? AND VARKEY <= ?`, poolTableName),
			val.Str(t.Name), val.Str(prefix), val.Str(prefix+"ÿ"))
		return err
	default:
		if len(keyPrefix) < len(t.ClusterPrefix) {
			return fmt.Errorf("r3: cluster delete on %s needs the full cluster key", t.Name)
		}
		var where []string
		var params []val.Value
		for i, kc := range t.ClusterPrefix {
			where = append(where, kc+" = ?")
			params = append(params, keyPrefix[i])
		}
		_, err := s.Exec("DELETE FROM "+t.Name+clusterSuffix+" WHERE "+strings.Join(where, " AND "), params...)
		return err
	}
}

// ConvertToTransparent converts a pool or cluster table to a transparent
// table — possible for pool tables in 2.2 and for any encapsulated table
// in 3.0 (paper Section 2.2). The paper's upgrade converts KONV, tripling
// its stored size.
func (sys *System) ConvertToTransparent(name string, m *cost.Meter) error {
	t := sys.Table(name)
	if t == nil {
		return fmt.Errorf("r3: no table %s", name)
	}
	if t.Kind == Transparent {
		return nil
	}
	if t.Kind == Clustered && sys.Version() == Release22 {
		return fmt.Errorf("r3: Release 2.2 can only convert pool tables, %s is a cluster table", name)
	}
	s := sys.DB.NewSessionWithMeter(m)
	sc := newStmtCache(sys, s)

	// Materialize all logical rows first (the conversion reads through
	// the old representation).
	var rows [][]val.Value
	err := sys.scanLogical(sc, t, nil, func(row []val.Value) error {
		rows = append(rows, append([]val.Value(nil), row...))
		return nil
	})
	if err != nil {
		return err
	}
	// Drop the old physical storage.
	switch t.Kind {
	case Pooled:
		if _, err := s.Exec(fmt.Sprintf(`DELETE FROM %s WHERE TABNAME = ?`, poolTableName),
			val.Str(t.Name)); err != nil {
			return err
		}
	default:
		if _, err := s.Exec("DROP TABLE " + t.Name + clusterSuffix); err != nil {
			return err
		}
	}
	// Create the transparent realization and reload.
	sys.mu.Lock()
	t.Kind = Transparent
	t.ClusterPrefix = nil
	sys.mu.Unlock()
	if err := sys.createPhysicalFor(s, t); err != nil {
		return err
	}
	if err := sys.DB.BulkLoad(t.Name, rows, m); err != nil {
		return err
	}
	return sys.DB.Analyze(t.Name)
}

// DropIndex removes a secondary index from a transparent table — the
// paper's tuning step of deleting the default ship-date index (VBEP_EDATU)
// that was "counterproductive to execute the TPC-D power test in our 3.0
// configuration".
func (sys *System) DropIndex(table, index string) error {
	t := sys.Table(table)
	if t == nil {
		return fmt.Errorf("r3: no table %s", table)
	}
	if _, ok := t.Indexes[index]; !ok {
		return fmt.Errorf("r3: no index %s on %s", index, table)
	}
	s := sys.DB.NewSessionWithMeter(nil)
	if _, err := s.Exec("DROP INDEX " + index); err != nil {
		return err
	}
	sys.mu.Lock()
	delete(t.Indexes, index)
	sys.mu.Unlock()
	return nil
}

// PhysicalSizes returns (data, index) bytes of a logical table's storage.
func (sys *System) PhysicalSizes(name string) (int64, int64) {
	t := sys.Table(name)
	if t == nil {
		return 0, 0
	}
	et := sys.DB.Table(t.physName())
	if et == nil {
		return 0, 0
	}
	return et.DataBytes(), et.IndexBytes()
}

// RowCount returns the number of logical rows (physical for transparent,
// decoded estimate for pool/cluster via a scan).
func (sys *System) RowCount(name string) int64 {
	t := sys.Table(name)
	if t == nil {
		return 0
	}
	if t.Kind == Transparent {
		return sys.DB.Table(t.Name).Rows()
	}
	var n int64
	s := sys.DB.NewSessionWithMeter(nil)
	sc := newStmtCache(sys, s)
	_ = sys.scanLogical(sc, t, nil, func([]val.Value) error {
		n++
		return nil
	})
	return n
}
