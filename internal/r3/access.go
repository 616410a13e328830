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
// of the inner relation in a nested SELECT statement") keyed by statement
// text — an Open SQL pool or cluster read's by its statement shape, whose
// entry holds the physical statement the read executes — and the session's
// fetch stack, which it is the engine.RowSink of.
//
// A cursor execution pushes every row of its result onto the stack before
// the first is handed out, and pops them when the iteration ends; a SELECT
// nested in a row callback pushes above its outer SELECT's rows and pops
// before the outer one continues. A row handed out is therefore valid until
// its callback returns, as a scanLogical row and an engine.RowSink row are;
// a keeper copies what it keeps. CHAR values stay views of the immutable page
// images they were decoded from (the val package comment).
type stmtCache struct {
	sys    *System
	sess   *engine.Session
	stmts  map[string]*engine.Stmt
	params []val.Value // the parameters of the statement being executed
	// The fetch stack: rows are the rows pushed, each cut from vals, which
	// also holds each pool or cluster scan's decode row.
	rows [][]val.Value
	vals val.Chunks[val.Value]
	// kept is what the rows SELECT SINGLE returns are copied into (keep).
	kept val.Chunks[val.Value]
}

// fetchChunk is the value count of the first fetch-stack or SELECT SINGLE
// chunk (10 KiB).
const fetchChunk = 256

func newStmtCache(sys *System, sess *engine.Session) *stmtCache {
	sc := &stmtCache{sys: sys, sess: sess, stmts: make(map[string]*engine.Stmt)}
	sc.vals.First, sc.kept.First = fetchChunk, fetchChunk
	sc.vals.Max, sc.kept.Max = val.ChunkMax, val.ChunkMax
	return sc
}

// get returns the prepared statement for a text, preparing it on first use.
// Hits and misses roll up into system-wide counters for the metrics
// registry.
func (sc *stmtCache) get(sql string) (*engine.Stmt, error) {
	if st, ok := sc.stmts[sql]; ok {
		sc.sys.cursorHits.Add(1)
		return st, nil
	}
	return sc.prepare(sql)
}

// prepare opens a cursor for a statement text not in the cache.
func (sc *stmtCache) prepare(sql string) (*engine.Stmt, error) {
	sc.sys.cursorMisses.Add(1)
	st, err := sc.sess.Prepare(sql)
	if err != nil {
		return nil, err
	}
	sc.stmts[sql] = st
	return st, nil
}

// decodeRow cuts a pool or cluster scan's decode row, n NULLs, from the
// fetch stack; the scan pops it to the mark returned when it ends.
func (sc *stmtCache) decodeRow(n int) ([]val.Value, fetchMark) {
	at := sc.mark()
	row := sc.vals.Cut(n)
	clear(row) // a released value may have been poisoned
	return row, at
}

// keep copies a row into the session's kept chunks, for the one row SELECT
// SINGLE lets escape. The list trims after each cut: a chunk goes when no
// kept row points into it.
func (sc *stmtCache) keep(row []val.Value) []val.Value {
	own := sc.kept.Cut(len(row))
	sc.kept.Trim()
	copy(own, row)
	return own
}

// Header implements engine.RowSink.
func (sc *stmtCache) Header([]string) error { return nil }

// Row implements engine.RowSink: it pushes the row onto the fetch stack.
func (sc *stmtCache) Row(row []val.Value) error {
	own := sc.vals.Cut(len(row))
	copy(own, row)
	sc.rows = append(sc.rows, own)
	return nil
}

// fetchMark is a position on the fetch stack.
type fetchMark struct {
	rows int
	vals val.Mark
}

func (sc *stmtCache) mark() fetchMark { return fetchMark{len(sc.rows), sc.vals.Mark()} }

// pop releases every row pushed and decode row cut since m. Released values
// are cleared, so the stack pins no page image; an emptied stack keeps one
// chunk.
func (sc *stmtCache) pop(m fetchMark) {
	sc.vals.Pop(m.vals)
	clear(sc.rows[m.rows:])
	sc.rows = sc.rows[:m.rows]
	if m == (fetchMark{}) {
		sc.vals.Trim()
		if cap(sc.rows) > fetchChunk {
			sc.rows = nil
		}
	}
}

// each executes st with params — in ph's DB span — and hands fn every row of
// the result, each valid until fn returns. Every row is fetched before the
// first is handed out, so a nested SELECT in fn reads its pages after the
// outer statement has read all of its own, exactly as a materialised result
// does.
func (sc *stmtCache) each(ph *Phases, st *engine.Stmt, params []val.Value, fn func([]val.Value) error) error {
	m := sc.mark()
	defer sc.pop(m)
	restore := ph.enterDB(sc.sess.Meter)
	_, err := st.QueryTo(sc, params...)
	restore()
	if err != nil {
		return err
	}
	for i := m.rows; i < len(sc.rows); i++ {
		if err := fn(sc.rows[i]); err != nil {
			return err
		}
	}
	return nil
}

// scanLogical streams a pool or cluster table's rows, optionally bounded by
// a prefix of its key, through the session's cursor for its physical
// statement.
func (sys *System) scanLogical(sc *stmtCache, t *LogicalTable, keyPrefix []val.Value, fn func([]val.Value) error) error {
	st, err := sc.get(t.scanSQL(len(keyPrefix)))
	if err != nil {
		return err
	}
	return sc.scan(st, t, keyPrefix, fn)
}

// scanSQL is the physical statement a pool or cluster scan under a key
// prefix of n columns executes.
func (t *LogicalTable) scanSQL(n int) string {
	if t.Kind == Pooled {
		return poolScanSQL
	}
	return t.clusterSQL[min(n, len(t.ClusterPrefix))]
}

// scan streams the logical rows of a pool or cluster table that st, its
// scanSQL, reads under keyPrefix. A row is valid only during its callback:
// it is decoded into a row the scan cuts from the fetch stack (decodeRow),
// its CHAR fields substrings of the VARKEY and VARDATA page views.
func (sc *stmtCache) scan(st *engine.Stmt, t *LogicalTable, keyPrefix []val.Value, fn func([]val.Value) error) error {
	if t.Kind == Pooled {
		return sc.scanPool(st, t, keyPrefix, fn)
	}
	return sc.scanCluster(st, t, keyPrefix, fn)
}

// poolScanSQL reads the pool's physical tuples of one table in a VARKEY range.
const poolScanSQL = `SELECT VARKEY, VARDATA FROM ` + poolTableName + ` WHERE TABNAME = ? AND VARKEY >= ? AND VARKEY <= ?`

func (sc *stmtCache) scanPool(st *engine.Stmt, t *LogicalTable, keyPrefix []val.Value, fn func([]val.Value) error) error {
	prefix := t.keyPrefixString(keyPrefix)
	sc.params = append(sc.params[:0], val.Str(t.Name), val.Str(prefix), val.Str(prefix+"ÿ"))
	m := sc.sess.Meter
	row, at := sc.decodeRow(len(t.Cols))
	defer sc.pop(at)
	return sc.each(nil, st, sc.params, func(phys []val.Value) error {
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

func (sc *stmtCache) scanCluster(st *engine.Stmt, t *LogicalTable, keyPrefix []val.Value, fn func([]val.Value) error) error {
	nPrefix := len(t.ClusterPrefix)
	n := min(len(keyPrefix), nPrefix) // deeper prefixes filter after decode
	sc.params = append(sc.params[:0], keyPrefix[:n]...)
	m := sc.sess.Meter
	row, at := sc.decodeRow(len(t.Cols))
	defer sc.pop(at)
	return sc.each(nil, st, sc.params, func(prow []val.Value) error {
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
// its stored size. Connections that read the table open after it: a read's
// cursor entry holds the physical statement of the kind it was translated for.
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
