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
// of the inner relation in a nested SELECT statement").
type stmtCache struct {
	sys   *System
	sess  *engine.Session
	stmts map[string]*engine.Stmt
	hits  int64
}

func newStmtCache(sys *System, sess *engine.Session) *stmtCache {
	return &stmtCache{sys: sys, sess: sess, stmts: make(map[string]*engine.Stmt)}
}

// get returns a prepared cursor for the statement text, preparing it on
// first use. Hits and misses also roll up into system-wide counters for
// the metrics registry.
func (sc *stmtCache) get(sql string) (*engine.Stmt, error) {
	if st, ok := sc.stmts[sql]; ok {
		sc.hits++
		sc.sys.cursorHits.Add(1)
		return st, nil
	}
	sc.sys.cursorMisses.Add(1)
	st, err := sc.sess.Prepare(sql)
	if err != nil {
		return nil, err
	}
	sc.stmts[sql] = st
	return st, nil
}

// scanLogical streams a logical table's rows, optionally bounded by a
// prefix of its key, decoding pool/cluster storage as needed. For
// transparent tables this goes through the given cursor cache.
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
	var params []val.Value
	for i := range keyPrefix {
		where = append(where, t.KeyCols[i]+" = ?")
		params = append(params, keyPrefix[i])
	}
	sql := "SELECT * FROM " + t.Name
	if len(where) > 0 {
		sql += " WHERE " + strings.Join(where, " AND ")
	}
	st, err := sc.get(sql)
	if err != nil {
		return err
	}
	res, err := st.Query(params...)
	if err != nil {
		return err
	}
	for _, row := range res.Rows {
		if err := fn(row); err != nil {
			return err
		}
	}
	return nil
}

// poolScanSQL reads the pool's physical tuples of one table in a VARKEY range.
const poolScanSQL = `SELECT VARKEY, VARDATA FROM ` + poolTableName + ` WHERE TABNAME = ? AND VARKEY >= ? AND VARKEY <= ?`

func (sys *System) scanPool(sc *stmtCache, t *LogicalTable, keyPrefix []val.Value, fn func([]val.Value) error) error {
	prefix := t.keyPrefixString(keyPrefix)
	st, err := sc.get(poolScanSQL)
	if err != nil {
		return err
	}
	res, err := st.Query(val.Str(t.Name), val.Str(prefix), val.Str(prefix+"ÿ"))
	if err != nil {
		return err
	}
	m := sc.sess.Meter
	keyVals := make([]val.Value, len(t.physKey))
	for _, phys := range res.Rows {
		m.Charge(cost.Decode, 1)
		if err := t.decodeKeyString(phys[0].AsStr(), keyVals); err != nil {
			return err
		}
		row, err := t.unpackRow(phys[1].AsStr(), keyVals)
		if err != nil {
			return err
		}
		if err := fn(row); err != nil {
			return err
		}
	}
	return nil
}

// decodeKeyString splits a fixed-width VARKEY back into the pool table's
// key values, in physKey order.
func (t *LogicalTable) decodeKeyString(vk string, keyVals []val.Value) error {
	off := 0
	for j, ci := range t.physKey {
		w := t.Cols[ci].Type.Width
		if off+w > len(vk) {
			return fmt.Errorf("r3: short VARKEY for %s", t.Name)
		}
		keyVals[j] = parseAs(strings.TrimRight(vk[off:off+w], " "), t.Cols[ci].Type)
		off += w
	}
	return nil
}

func (sys *System) scanCluster(sc *stmtCache, t *LogicalTable, keyPrefix []val.Value, fn func([]val.Value) error) error {
	nPrefix := len(t.ClusterPrefix)
	n := min(len(keyPrefix), nPrefix) // deeper prefixes filter after decode
	st, err := sc.get(t.clusterSQL[n])
	if err != nil {
		return err
	}
	res, err := st.Query(keyPrefix[:n]...)
	if err != nil {
		return err
	}
	m := sc.sess.Meter
	for _, prow := range res.Rows {
		// The packed rows are walked where they lie in VARDATA; an empty
		// VARDATA holds none.
		blob := prow[nPrefix+1].AsStr()
		for more := blob != ""; more; {
			var packed string
			packed, blob, more = strings.Cut(blob, rowSep)
			m.Charge(cost.Decode, 1)
			row, err := t.unpackRow(packed, prow[:nPrefix])
			if err != nil {
				return err
			}
			// Apply any key-prefix bounds beyond the cluster prefix.
			match := true
			for i := nPrefix; i < len(keyPrefix); i++ {
				ci := t.ColIndex(t.KeyCols[i])
				if val.Compare(row[ci], keyPrefix[i]) != 0 {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			if err := fn(row); err != nil {
				return err
			}
		}
	}
	return nil
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

// SetVersion switches the installed release (the upgrade's software
// half; ConvertToTransparent is the data half).
func (sys *System) SetVersion(r Release) {
	sys.mu.Lock()
	sys.version = r
	sys.mu.Unlock()
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
