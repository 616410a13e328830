package r3

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"r3bench/internal/cost"
	"r3bench/internal/engine"
	"r3bench/internal/val"
)

// Release is an SAP R/3 version.
type Release int

// The two releases the paper measures.
const (
	Release22 Release = iota // 2.2G: no join/aggregate pushdown in Open SQL
	Release30                // 3.0E: JOIN and simple aggregates push down
)

// String renders the release the paper's way.
func (r Release) String() string {
	if r == Release22 {
		return "2.2G"
	}
	return "3.0E"
}

// poolTableName is the physical table holding all pool tables, and
// clusterSuffix names cluster tables' physical realization.
const (
	poolTableName = "ATAB"
	clusterSuffix = "_C"
	// clusterVarData is the packed-data width of one physical cluster row.
	clusterVarData = 600
	// fieldSep separates packed logical field values.
	fieldSep = "\x01"
	// rowSep separates packed logical rows within one cluster tuple.
	rowSep = "\x02"
)

// Config sizes an R/3 installation: what is fixed when it is installed.
// Behaviour that can change while it runs is Options.
type Config struct {
	Release Release
	// BufferBytes is the RDBMS buffer (paper default: 10 MB; the rest of
	// the machine's memory belongs to the application server).
	BufferBytes int
	CostModel   cost.Model
	// Durable turns on write-ahead logging in the back-end RDBMS: every
	// SAP LUW becomes an engine transaction whose commit forces the log
	// instead of flushing data pages (DESIGN.md §14). Off by default so
	// existing experiments keep their historical cost accounting.
	Durable bool
	// GroupCommit batches that many concurrent commits into one log
	// force when Durable is set (0 or 1 = every commit forces).
	GroupCommit int
}

// System is one installed SAP R/3 instance plus its back-end RDBMS.
type System struct {
	DB      *engine.DB
	mu      sync.RWMutex
	version Release
	ddic    map[string]*LogicalTable
	buffers map[string]*TableBuffer
	// retired accumulates counters of buffers that were disabled, so
	// end-of-run metrics still see work done by short-lived buffers.
	retired map[string]BufferStats

	// itabSinglePass is Options.ITabSinglePass; the engine's share of the
	// options lives in DB.
	itabSinglePass atomic.Bool

	// System-wide cursor-cache counters across every connection's
	// statement cache (Open SQL, Native SQL, dictionary scans).
	cursorHits   atomic.Int64
	cursorMisses atomic.Int64

	// writeObs are change-capture observers notified after buffer
	// invalidation for every physical write (see AddWriteObserver).
	writeObs []func(phys string, oldRow, newRow []val.Value)
}

// AddWriteObserver registers a change-capture observer on the system's
// physical write feed. Observers see the same (physical table, old row,
// new row) triples the table-buffer coherency machinery consumes, after
// invalidation has run; a warehouse change log uses this to track which
// orders an update-function batch touched without scanning anything.
// Observers must be registered before concurrent writers start and must
// themselves be safe for concurrent calls. The rows are the writing
// statement's (engine.WriteHook): an observer keeps copies, or what it
// parsed out of them — the warehouse change log keeps order numbers.
func (sys *System) AddWriteObserver(fn func(phys string, oldRow, newRow []val.Value)) {
	sys.mu.Lock()
	sys.writeObs = append(sys.writeObs, fn)
	sys.mu.Unlock()
}

// CursorStats reports cumulative cursor-cache reuse across all of the
// system's connections: hits are statements served from a cached
// prepared cursor, misses are fresh prepares.
func (sys *System) CursorStats() (hits, misses int64) {
	return sys.cursorHits.Load(), sys.cursorMisses.Load()
}

// Install creates a fresh R/3 system: data dictionary, physical schema
// and indexes on an empty engine.
func Install(cfg Config) (*System, error) {
	sys := &System{
		DB:      engine.Open(engine.Config{BufferBytes: cfg.BufferBytes, CostModel: cfg.CostModel}),
		version: cfg.Release,
		ddic:    make(map[string]*LogicalTable),
		buffers: make(map[string]*TableBuffer),
		retired: make(map[string]BufferStats),
	}
	for _, t := range sapTables() {
		sys.ddic[t.Name] = t
	}
	if err := sys.createPhysical(); err != nil {
		return nil, err
	}
	if cfg.Durable {
		sys.DB.EnableWAL(cfg.GroupCommit)
	}
	// Buffer coherency: hook every engine write path (Open SQL, Native
	// SQL, prepared DML, raw engine calls) so application-server table
	// buffers invalidate no matter which interface performed the write.
	sys.DB.SetWriteHook(sys.onPhysicalWrite)
	return sys, nil
}

// onPhysicalWrite maps one physical-row mutation back to the logical
// table it belongs to and invalidates resident buffer entries:
// transparent rows by exact key, pool-table (ATAB) rows by the packed
// VARKEY, cluster rows by their cluster-key prefix (one physical row
// packs many logical rows).
func (sys *System) onPhysicalWrite(phys string, oldRow, newRow []val.Value) {
	sys.invalidateForWrite(phys, oldRow, newRow)
	sys.mu.RLock()
	obs := sys.writeObs
	sys.mu.RUnlock()
	for _, fn := range obs {
		fn(phys, oldRow, newRow)
	}
}

// invalidateForWrite is the buffer-coherency half of onPhysicalWrite.
func (sys *System) invalidateForWrite(phys string, oldRow, newRow []val.Value) {
	rows := [2][]val.Value{oldRow, newRow}
	switch {
	case phys == poolTableName:
		for _, row := range rows {
			if len(row) < 2 {
				continue
			}
			logical := strings.TrimRight(row[0].AsStr(), " ")
			t := sys.Table(logical)
			buf := sys.Buffer(logical)
			if t == nil || buf == nil {
				continue
			}
			// Stored CHAR values are right-trimmed; buffer keys are
			// fixed-width, so re-pad the VARKEY before matching.
			key := row[1].AsStr()
			if w := t.keyWidth(); len(key) < w {
				key += strings.Repeat(" ", w-len(key))
			}
			buf.invalidate(key)
		}
	case strings.HasSuffix(phys, clusterSuffix):
		logical := strings.TrimSuffix(phys, clusterSuffix)
		t := sys.Table(logical)
		buf := sys.Buffer(logical)
		if t == nil || buf == nil {
			return
		}
		for _, row := range rows {
			if len(row) < len(t.ClusterPrefix) {
				continue
			}
			buf.invalidatePrefix(t.keyPrefixString(row[:len(t.ClusterPrefix)]))
		}
	default:
		buf := sys.Buffer(phys)
		if buf == nil {
			return
		}
		t := sys.Table(phys)
		if t == nil || t.Kind != Transparent {
			buf.invalidateAll()
			return
		}
		for _, row := range rows {
			if len(row) != len(t.Cols) {
				continue
			}
			buf.invalidate(t.keyString(row))
		}
	}
}

// Options is every switchable behaviour of a System: its back-end
// engine's, plus the application server's own. The zero value is the
// installation the paper measures; an ablation saves Options(), applies a
// diff with SetOptions and puts back what it saved.
type Options struct {
	// Engine configures the back-end RDBMS (parallel degree, array
	// fetch, bind peeking, adaptive replanning, parse cache).
	Engine engine.Options
	// ITabSinglePass makes internal tables declared through
	// System.NewITab group in one streaming hash pass instead of the
	// two-phase sort, materialize and rescan the paper measures in
	// Section 4.2 (see ITab.GroupBy). The emitted groups are identical;
	// only the charged work changes.
	ITabSinglePass bool
}

// Options returns the system's current options.
func (sys *System) Options() Options {
	return Options{Engine: sys.DB.Options(), ITabSinglePass: sys.itabSinglePass.Load()}
}

// SetOptions replaces the system's options; see engine.DB.SetOptions for
// what a running statement sees. Internal tables already declared keep
// the grouping strategy they were declared with.
func (sys *System) SetOptions(o Options) {
	sys.DB.SetOptions(o.Engine)
	sys.itabSinglePass.Store(o.ITabSinglePass)
}

// Version returns the installed release.
func (sys *System) Version() Release {
	sys.mu.RLock()
	defer sys.mu.RUnlock()
	return sys.version
}

// Table returns a data-dictionary entry, or nil.
func (sys *System) Table(name string) *LogicalTable {
	sys.mu.RLock()
	defer sys.mu.RUnlock()
	return sys.ddic[strings.ToUpper(name)]
}

// Tables lists all logical tables, sorted by name.
func (sys *System) Tables() []*LogicalTable {
	sys.mu.RLock()
	defer sys.mu.RUnlock()
	out := make([]*LogicalTable, 0, len(sys.ddic))
	for _, t := range sys.ddic {
		out = append(out, t)
	}
	slices.SortFunc(out, func(a, b *LogicalTable) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// Encapsulated reports whether the logical table can only be read through
// SAP R/3's interfaces (pool and cluster tables; paper Section 2.2).
func (sys *System) Encapsulated(name string) bool {
	t := sys.Table(name)
	return t != nil && t.Kind != Transparent
}

// createPhysical realizes the dictionary on the RDBMS, table by table in
// name order, so every install lays out its files and pages alike.
func (sys *System) createPhysical() error {
	s := sys.DB.NewSessionWithMeter(nil)
	// The shared table pool.
	if _, err := s.Exec(fmt.Sprintf(
		`CREATE TABLE %s (TABNAME CHAR(10), VARKEY CHAR(64), VARDATA CHAR(200),
		 PRIMARY KEY (TABNAME, VARKEY))`, poolTableName)); err != nil {
		return err
	}
	for _, t := range sys.Tables() {
		if err := sys.createPhysicalFor(s, t); err != nil {
			return err
		}
	}
	return nil
}

func (sys *System) createPhysicalFor(s *engine.Session, t *LogicalTable) error {
	switch t.Kind {
	case Pooled:
		return nil // lives in the shared pool table
	case Clustered:
		ddl := fmt.Sprintf(`CREATE TABLE %s%s (`, t.Name, clusterSuffix)
		var keyList []string
		for _, kc := range t.ClusterPrefix {
			ct := t.Cols[t.ColIndex(kc)].Type
			ddl += fmt.Sprintf("%s %s, ", kc, typeDDL(ct))
			keyList = append(keyList, kc)
		}
		ddl += fmt.Sprintf("PAGENO INTEGER, VARDATA CHAR(%d), PRIMARY KEY (%s, PAGENO))",
			clusterVarData, strings.Join(keyList, ", "))
		_, err := s.Exec(ddl)
		return err
	default:
		var parts []string
		for _, col := range t.Cols {
			parts = append(parts, col.Name+" "+typeDDL(col.Type))
		}
		parts = append(parts, "PRIMARY KEY ("+strings.Join(t.KeyCols, ", ")+")")
		if _, err := s.Exec(fmt.Sprintf("CREATE TABLE %s (%s)", t.Name, strings.Join(parts, ", "))); err != nil {
			return err
		}
		names := make([]string, 0, len(t.Indexes))
		for ixName := range t.Indexes {
			names = append(names, ixName)
		}
		slices.Sort(names)
		for _, ixName := range names {
			if _, err := s.Exec(fmt.Sprintf("CREATE INDEX %s ON %s (%s)",
				ixName, t.Name, strings.Join(t.Indexes[ixName], ", "))); err != nil {
				return err
			}
		}
		return nil
	}
}

func typeDDL(ct val.ColType) string {
	switch ct.Kind {
	case val.KStr:
		return fmt.Sprintf("CHAR(%d)", ct.Width)
	case val.KInt:
		if ct.Width == 8 {
			return "BIGINT"
		}
		return "INTEGER"
	case val.KDate:
		return "DATE"
	default:
		return "DECIMAL(15,2)"
	}
}

// --- logical row codecs for pool and cluster storage ---

// physName names the physical table that stores the logical table's rows.
func (t *LogicalTable) physName() string {
	switch t.Kind {
	case Transparent:
		return t.Name
	case Pooled:
		return poolTableName
	default:
		return t.Name + clusterSuffix
	}
}

// toPhysical is the dictionary's write mapping: it turns full-width logical
// rows into the tuples of physName() that store them and hands each to
// emit. A transparent row is its own tuple; a pool row becomes (TABNAME,
// VARKEY, VARDATA); a cluster table's rows, which must agree on the
// cluster-prefix columns, pack into as few tuples of clusterVarData bytes
// as fit. Every write interface is an emitter over this one mapping and
// keeps its own charges.
func (t *LogicalTable) toPhysical(rows [][]val.Value, emit func(phys []val.Value) error) error {
	switch t.Kind {
	case Transparent:
		for _, row := range rows {
			if err := emit(row); err != nil {
				return err
			}
		}
		return nil
	case Pooled:
		for _, row := range rows {
			phys := []val.Value{val.Str(t.Name), val.Str(t.keyString(row)), val.Str(t.packRow(row))}
			if err := emit(phys); err != nil {
				return err
			}
		}
		return nil
	}
	if len(rows) == 0 {
		return nil
	}
	var keyVals []val.Value
	for _, kc := range t.ClusterPrefix {
		keyVals = append(keyVals, rows[0][t.ColIndex(kc)])
	}
	var cur strings.Builder
	pageNo := int64(0)
	flush := func() error {
		if cur.Len() == 0 {
			return nil
		}
		phys := make([]val.Value, 0, len(keyVals)+2)
		phys = append(phys, keyVals...)
		phys = append(phys, val.Int(pageNo), val.Str(cur.String()))
		cur.Reset()
		pageNo++
		return emit(phys)
	}
	for _, row := range rows {
		packed := t.packRow(row)
		if cur.Len() > 0 && cur.Len()+len(rowSep)+len(packed) > clusterVarData {
			if err := flush(); err != nil {
				return err
			}
		}
		if cur.Len() > 0 {
			cur.WriteString(rowSep)
		}
		cur.WriteString(packed)
	}
	return flush()
}

// keyString concatenates the fixed-width key values of a logical row.
func (t *LogicalTable) keyString(row []val.Value) string {
	var b strings.Builder
	for _, kc := range t.KeyCols {
		ci := t.ColIndex(kc)
		w := t.Cols[ci].Type.Width
		s := row[ci].AsStr()
		if len(s) > w {
			s = s[:w]
		}
		b.WriteString(s)
		b.WriteString(strings.Repeat(" ", w-len(s)))
	}
	return b.String()
}

// keyWidth returns the fixed total width of the table's concatenated
// key string (the width keyString pads to).
func (t *LogicalTable) keyWidth() int {
	w := 0
	for _, kc := range t.KeyCols {
		w += t.Cols[t.ColIndex(kc)].Type.Width
	}
	return w
}

// keyPrefixString concatenates the first n key values.
func (t *LogicalTable) keyPrefixString(vals []val.Value) string {
	var b strings.Builder
	for i, v := range vals {
		ci := t.ColIndex(t.KeyCols[i])
		w := t.Cols[ci].Type.Width
		s := v.AsStr()
		if len(s) > w {
			s = s[:w]
		}
		b.WriteString(s)
		b.WriteString(strings.Repeat(" ", w-len(s)))
	}
	return b.String()
}

// packRow encodes the logical row's packed values; FILLER columns are
// left out (the space savings that make cluster storage compact — and that
// triple KONV's size on conversion to transparent).
func (t *LogicalTable) packRow(row []val.Value) string {
	parts := make([]string, len(t.packed))
	for j, ci := range t.packed {
		parts[j] = row[ci].AsStr()
	}
	return strings.Join(parts, fieldSep)
}

// unpackRow decodes a packed row into the packed columns of row; the caller
// sets the physical-key columns, and FILLER columns stay as they are (NULL).
// The fields are cut out of packed where they lie: a CHAR value is a
// substring of it, and nothing is allocated.
func (t *LogicalTable) unpackRow(row []val.Value, packed string) error {
	more := true
	for _, ci := range t.packed {
		if !more {
			return fmt.Errorf("r3: short packed row for %s", t.Name)
		}
		var field string
		field, packed, more = strings.Cut(packed, fieldSep)
		row[ci] = parseAs(field, t.Cols[ci].Type)
	}
	return nil
}

func parseAs(s string, ct val.ColType) val.Value {
	if s == "" && ct.Kind != val.KStr {
		return val.Null
	}
	switch ct.Kind {
	case val.KStr:
		return val.Str(s)
	case val.KDate:
		d, err := val.ParseDate(s)
		if err != nil {
			return val.Null
		}
		return d
	case val.KInt:
		return val.Int(val.Str(s).AsInt())
	default:
		return val.Float(val.Str(s).AsFloat())
	}
}
