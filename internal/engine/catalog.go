// Package engine implements the relational database engine that stands in
// for the paper's anonymous commercial RDBMS: catalog, table statistics,
// a cost-based optimizer (access-path selection and join ordering), an
// iterator executor with nested-loop / index-nested-loop / hash joins and
// pipelined sort-based grouping, views, parameterized prepared cursors
// (the substrate for SAP R/3's cursor caching), and SQL DML/DDL.
//
// All physical work — page I/O, tuple CPU, sorting, client/server row
// shipping — is charged to the session's cost meter, so experiments read
// simulated 1996-style running times (see internal/cost).
package engine

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"r3bench/internal/btree"
	"r3bench/internal/cost"
	"r3bench/internal/sqlparse"
	"r3bench/internal/storage"
	"r3bench/internal/val"
)

// Column describes one table column.
type Column struct {
	Name    string // upper case
	Type    val.ColType
	NotNull bool
}

// Table is a stored base table.
type Table struct {
	Name       string
	Cols       []Column
	Heap       *storage.HeapFile
	Indexes    []*Index
	PrimaryKey []int // column positions; empty when no PK

	colIdx map[string]int
	stats  *TableStats
}

// ColIndex returns the position of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	if i, ok := t.colIdx[strings.ToUpper(name)]; ok {
		return i
	}
	return -1
}

// Rows returns the live row count.
func (t *Table) Rows() int64 { return t.Heap.Rows() }

// DataBytes returns the heap size in bytes.
func (t *Table) DataBytes() int64 { return t.Heap.DataBytes() }

// IndexBytes returns the total modelled size of the table's indexes.
func (t *Table) IndexBytes() int64 {
	var total int64
	for _, ix := range t.Indexes {
		total += ix.Tree.SizeBytes()
	}
	return total
}

// Index is a secondary or primary-key index.
type Index struct {
	Name      string
	Table     *Table
	ColIdxs   []int
	Unique    bool
	Clustered bool // key order matches heap order (primary key of a sorted load)
	Tree      *btree.Tree
}

// keyFor builds the index key for a full table row, in storage of its own:
// for a bulk build, which keeps its keys.
func (ix *Index) keyFor(row []val.Value) []byte {
	return ix.appendKey(make([]byte, 0, 16*len(ix.ColIdxs)), row)
}

// appendKey appends the index key of a full table row to dst. The DML paths
// build their keys in a keyScratch on the stack: btree.Tree.Insert and
// Delete keep nothing of the key they are handed.
func (ix *Index) appendKey(dst []byte, row []val.Value) []byte {
	for _, ci := range ix.ColIdxs {
		dst = val.AppendKey(dst, row[ci])
	}
	return dst
}

// keyScratch is the stack buffer a DML path builds an index key in; a
// longer key spills to the heap.
type keyScratch [128]byte

// catalog is one immutable published version of the schema. Readers load
// the current version with a single atomic pointer read and then resolve
// any number of names against a consistent snapshot; DDL clones the maps
// (and the affected Table) and publishes a new version, so a reader's
// pinned catalog — and every *Table it hands out — never changes under
// it. Each publication numbers its version one past the last, so a
// prepared Stmt knows when to check the names its plan resolved.
type catalog struct {
	version int64
	tables  map[string]*Table
	views   map[string]*sqlparse.SelectStmt
}

// table resolves a table name (already upper-cased callers pass through
// strings.ToUpper) in this snapshot.
func (c *catalog) table(name string) *Table { return c.tables[strings.ToUpper(name)] }

// clone shallow-copies the snapshot's maps for a mutation. Caller holds
// db.mu (DDL is serialized); the Tables themselves are shared until a
// specific one must change, in which case the mutator clones that Table
// too.
func (c *catalog) clone() *catalog {
	nc := &catalog{
		tables: make(map[string]*Table, len(c.tables)+1),
		views:  make(map[string]*sqlparse.SelectStmt, len(c.views)+1),
	}
	for k, v := range c.tables {
		nc.tables[k] = v
	}
	for k, v := range c.views {
		nc.views[k] = v
	}
	return nc
}

// clone copies the Table descriptor with its own Indexes slice, sharing
// the heap, statistics and column layout. Index DDL publishes the clone
// so readers iterating the old descriptor's index list never see it
// change length.
func (t *Table) clone() *Table {
	nt := *t
	nt.Indexes = append([]*Index(nil), t.Indexes...)
	return &nt
}

// DB is an embedded relational database instance.
type DB struct {
	mu      sync.RWMutex
	disk    *storage.Disk
	pool    *storage.BufferPool
	ixCache *btree.PageCache // shared index-page residence model
	model   cost.Model
	cat     atomic.Pointer[catalog]
	opts    atomic.Pointer[Options] // see options.go; never nil

	// opt holds the optimizer observability counters shared with every
	// table's statistics.
	opt optCounters

	// pcache is the statement-fingerprint cache (see parsecache.go);
	// planEpoch retires all its cached plans at once — ANALYZE, a change
	// of Options.Parallel and SetRewriteHook move it forward — and
	// planHits/planMisses count what planFor served and planned.
	pcache     parseCache
	planEpoch  atomic.Int64
	planHits   atomic.Int64
	planMisses atomic.Int64

	// writeHook observes every committed row mutation. It and rewrite
	// are published like opts: a statement loads them without db.mu.
	writeHook atomic.Pointer[WriteHook]

	// rewrite, when set, may substitute a semantically equivalent SELECT
	// AST before planning; rewriteHits/rewriteMisses count its decisions
	// per execution.
	rewrite       atomic.Pointer[RewriteHook]
	rewriteHits   atomic.Int64
	rewriteMisses atomic.Int64

	// wal, when set by EnableWAL, makes storage durable: heap mutations
	// are redo/undo-logged, Session.Commit forces the log instead of
	// flushing data pages, and CrashRecover rebuilds committed state.
	wal atomic.Pointer[storage.WAL]

	// epochs is the grace period of every table's emptied heap pages
	// (storage.Epochs): each statement is inside it from runtime.begin to
	// runtime.done. txSeq numbers the sessions' transactions without WAL.
	epochs storage.Epochs
	txSeq  atomic.Int64

	// Cumulative execution counters for the metrics registry.
	selects         atomic.Int64 // SELECT executions
	parallelSelects atomic.Int64 // of those, plans compiled with degree >= 2
	parallelRuns    atomic.Int64 // executions that engaged parallel workers
	ifaceCalls      atomic.Int64 // client/server interface round trips
	ifaceRows       atomic.Int64 // result rows shipped to clients
	ifacePackets    atomic.Int64 // array-fetch packets shipped (0 unless array fetch on)
	parseStatements atomic.Int64 // statement texts through the front end
	parseHits       atomic.Int64 // served from the fingerprint cache
	parseMisses     atomic.Int64 // ran the lexer/parser
}

// WriteHook observes one row mutation: oldRow is nil on insert, newRow
// is nil on delete. Hooks run synchronously on the writing session's
// goroutine, on every write path (SQL DML, prepared DML, InsertRow,
// BulkLoad) — the R/3 layer registers one to invalidate application-
// server table buffers no matter which interface performed the write.
// The rows belong to the writing statement: an old row's CHAR values are
// views of the page image the match scan read (RowSink), a new row's are
// the caller's. A hook that keeps anything of them past its return keeps
// a copy (val.Slab.Own, strings.Clone) or what it parsed out of them.
type WriteHook func(table string, oldRow, newRow []val.Value)

// SetWriteHook installs the database's write observer (nil to remove).
func (db *DB) SetWriteHook(h WriteHook) { db.writeHook.Store(&h) }

// noteWrite invokes the write hook, if any. A cached plan needs no word
// of the write: it goes stale when a table it read changes size.
func (db *DB) noteWrite(table string, oldRow, newRow []val.Value) {
	if h := db.writeHook.Load(); h != nil && *h != nil {
		(*h)(table, oldRow, newRow)
	}
}

// RewriteHook inspects a SELECT about to be planned and may return a
// semantically equivalent replacement AST (e.g. redirecting a GROUP BY
// over a fact table to a materialized aggregate). Returning nil leaves
// the statement untouched. The hook runs on every direct SELECT
// execution (not on prepared statements' cached plans, nor on the
// internal scans DML performs) and must not mutate its argument — the
// AST may be shared by the statement-fingerprint cache — so a match
// must build fresh nodes.
type RewriteHook func(sel *sqlparse.SelectStmt) *sqlparse.SelectStmt

// SetRewriteHook installs or removes (nil) the planner's rewrite hook.
// Cached plans compiled under the previous hook state are retired via
// the plan epoch, so toggling the hook never serves a stale plan.
func (db *DB) SetRewriteHook(h RewriteHook) {
	db.rewrite.Store(&h)
	db.bumpPlanEpoch()
}

// EngineStats is a snapshot of the engine's cumulative execution
// counters.
type EngineStats struct {
	Selects          int64 // SELECT executions
	ParallelSelects  int64 // executions of plans compiled with parallel degree >= 2
	ParallelRuns     int64 // executions that actually engaged parallel workers
	Peeks            int64 // prepared-statement plans built with peeked bind values
	Replans          int64 // feedback-driven re-optimizations of cached plans
	ParseStatements  int64 // statement texts through the front end
	ParseHits        int64 // statements served from the fingerprint cache
	ParseMisses      int64 // statements that ran the lexer/parser
	PlanHits         int64 // ad hoc SELECTs served a fingerprint-cached plan
	PlanMisses       int64 // ad hoc SELECTs planned afresh
	HistEstimates    int64 // selectivity estimates served from gathered statistics
	DefaultEstimates int64 // selectivity estimates that fell back to blind defaults
	InterfaceCalls   int64 // client/server interface round trips
	RowsShipped      int64 // result rows shipped to clients
	Packets          int64 // array-fetch packets shipped (0 unless array fetch on)
	RewriteHits      int64 // SELECTs redirected by the rewrite hook
	RewriteMisses    int64 // SELECTs the hook declined while installed
}

// Stats snapshots the execution counters.
func (db *DB) Stats() EngineStats {
	return EngineStats{
		Selects:          db.selects.Load(),
		ParallelSelects:  db.parallelSelects.Load(),
		ParallelRuns:     db.parallelRuns.Load(),
		Peeks:            db.opt.peeks.Load(),
		Replans:          db.opt.replans.Load(),
		ParseStatements:  db.parseStatements.Load(),
		ParseHits:        db.parseHits.Load(),
		ParseMisses:      db.parseMisses.Load(),
		PlanHits:         db.planHits.Load(),
		PlanMisses:       db.planMisses.Load(),
		HistEstimates:    db.opt.histEst.Load(),
		DefaultEstimates: db.opt.defEst.Load(),
		InterfaceCalls:   db.ifaceCalls.Load(),
		RowsShipped:      db.ifaceRows.Load(),
		Packets:          db.ifacePackets.Load(),
		RewriteHits:      db.rewriteHits.Load(),
		RewriteMisses:    db.rewriteMisses.Load(),
	}
}

// noteSelect counts one SELECT execution.
func (db *DB) noteSelect(p *selectPlan) {
	db.selects.Add(1)
	if p.parallel >= 2 {
		db.parallelSelects.Add(1)
	}
}

// Config sizes an engine instance: what is fixed when it opens.
// Behaviour that can change while it runs is Options.
type Config struct {
	// BufferBytes is the database buffer size. The paper's SAP R/3
	// installation allots 10 MB by default.
	BufferBytes int
	// CostModel is the virtual-clock model; zero value means
	// cost.Default1996.
	CostModel cost.Model
	// Parallel is the Options.Parallel the database opens with. It is the
	// one option with a place here, because the frozen benchmark
	// (bench/wire.go) opens its parallel database by this name; every
	// other option starts at its zero value and changes with SetOptions.
	Parallel int
}

// DefaultBufferBytes mirrors the paper's default RDBMS buffer (10 MB).
const DefaultBufferBytes = 10 << 20

// indexCacheBytes is the modelled share of the buffer given over to index
// leaf pages (see btree.PageCache), a fifth of the paper's 10 MB default:
// probes of resident leaves are buffer hits and charge no I/O.
const indexCacheBytes = 2 << 20

// Open creates an empty database.
func Open(cfg Config) *DB {
	if cfg.BufferBytes == 0 {
		cfg.BufferBytes = DefaultBufferBytes
	}
	zero := cost.Model{}
	if cfg.CostModel == zero {
		cfg.CostModel = cost.Default1996()
	}
	disk := storage.NewDisk()
	db := &DB{
		disk:    disk,
		pool:    storage.NewBufferPool(disk, cfg.BufferBytes),
		ixCache: btree.NewPageCache(indexCacheBytes),
		model:   cfg.CostModel,
	}
	db.opts.Store(&Options{Parallel: cfg.Parallel})
	db.cat.Store(&catalog{
		tables: make(map[string]*Table),
		views:  make(map[string]*sqlparse.SelectStmt),
	})
	return db
}

// snap pins the current catalog snapshot: one atomic load, after which
// every name resolution against the returned value is consistent no
// matter what DDL publishes concurrently.
func (db *DB) snap() *catalog { return db.cat.Load() }

// publish installs a new catalog version. Caller holds db.mu.
func (db *DB) publish(c *catalog) {
	c.version = db.snap().version + 1
	db.cat.Store(c)
}

// IndexCache exposes the shared index-page residence model for harness
// metrics.
func (db *DB) IndexCache() *btree.PageCache { return db.ixCache }

// newTree creates an index tree attached to the database's index-page
// cache.
func (db *DB) newTree(unique bool) *btree.Tree {
	t := btree.New(unique)
	t.SetCache(db.ixCache)
	return t
}

// Pool exposes the buffer pool (for harness hit-ratio reporting).
func (db *DB) Pool() *storage.BufferPool { return db.pool }

// WAL returns the write-ahead log, or nil while the database is
// volatile (the default).
func (db *DB) WAL() *storage.WAL { return db.wal.Load() }

// EnableWAL makes the database durable from this point on: a
// write-ahead log is created over the disk, every existing table's
// current pages become the recovery baseline, and all subsequent heap
// mutations are logged. groupCommit is the group-commit batch size
// (<=1 forces the log on every commit). Enable after schema DDL —
// the catalog itself is not logged; recovery reuses the live schema.
func (db *DB) EnableWAL(groupCommit int) *storage.WAL {
	db.mu.Lock()
	defer db.mu.Unlock()
	if w := db.wal.Load(); w != nil {
		return w
	}
	w := storage.NewWAL(db.disk, groupCommit)
	w.SetFlusher(db.pool.FlushAll)
	for _, t := range db.snap().tables {
		t.Heap.SetWAL(w)
	}
	db.pool.SetWAL(w)
	db.wal.Store(w)
	return w
}

// CrashRecover simulates a crash at WAL offset cut (<0 = nothing lost)
// and restarts: all volatile state — buffer-pool frames, unflushed data
// pages, unforced commits — is discarded, the ARIES-lite redo/undo pass
// rebuilds exactly the committed heap state, and every index is rebuilt
// bottom-up from its recovered heap (indexes are not redo-logged).
// Plans cached against pre-crash state are retired.
func (db *DB) CrashRecover(cut int64, m *cost.Meter) (storage.RecoveryStats, error) {
	w := db.wal.Load()
	if w == nil {
		return storage.RecoveryStats{}, fmt.Errorf("engine: crash recovery without WAL")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	cur := db.snap()
	heaps := make(map[storage.FileID]*storage.HeapFile, len(cur.tables))
	for _, t := range cur.tables {
		heaps[t.Heap.File()] = t.Heap
	}
	st, err := w.Recover(cut, heaps, m)
	if err != nil {
		return st, err
	}
	nc := cur.clone()
	for name, t := range cur.tables {
		nt := t.clone()
		for i, ix := range nt.Indexes {
			nix := *ix
			nix.Table = nt
			nix.Tree = db.newTree(ix.Unique)
			var entries []btree.BulkEntry
			err := nt.Heap.Scan(m, func(rid storage.RID, row []val.Value) error {
				entries = append(entries, btree.BulkEntry{Key: nix.keyFor(row), RID: rid})
				return nil
			})
			if err != nil {
				return st, err
			}
			sortBulkEntries(entries, m)
			if err := nix.Tree.BulkBuild(entries, m); err != nil {
				return st, fmt.Errorf("engine: rebuilding %s: %w", nix.Name, err)
			}
			nt.Indexes[i] = &nix
		}
		nc.tables[name] = nt
	}
	db.publish(nc)
	return st, nil
}

// Model returns the database's cost model.
func (db *DB) Model() cost.Model { return db.model }

// Table returns a table by name (case-insensitive), or nil. The returned
// descriptor belongs to the catalog version current at the call: index
// DDL publishes a fresh descriptor rather than mutating this one.
func (db *DB) Table(name string) *Table {
	return db.snap().table(name)
}

// TableNames returns all table names in order. AnalyzeAll scans in this
// order, and the last tables it scans are the ones left in a small pool.
func (db *DB) TableNames() []string {
	c := db.snap()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// createTable registers a new table from a parsed definition.
func (db *DB) createTable(ct *sqlparse.CreateTable) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	cur := db.snap()
	name := strings.ToUpper(ct.Name)
	if _, dup := cur.tables[name]; dup {
		return nil, fmt.Errorf("engine: table %s already exists", name)
	}
	if _, dup := cur.views[name]; dup {
		return nil, fmt.Errorf("engine: %s already names a view", name)
	}
	t := &Table{Name: name, colIdx: make(map[string]int)}
	layout := make([]val.ColType, 0, len(ct.Cols))
	for i, cd := range ct.Cols {
		cn := strings.ToUpper(cd.Name)
		if _, dup := t.colIdx[cn]; dup {
			return nil, fmt.Errorf("engine: duplicate column %s.%s", name, cn)
		}
		t.Cols = append(t.Cols, Column{Name: cn, Type: cd.Type, NotNull: cd.NotNull})
		t.colIdx[cn] = i
		layout = append(layout, cd.Type)
	}
	for _, pk := range ct.PrimaryKey {
		ci := t.ColIndex(pk)
		if ci < 0 {
			return nil, fmt.Errorf("engine: primary key column %s not in table %s", pk, name)
		}
		t.PrimaryKey = append(t.PrimaryKey, ci)
	}
	t.Heap = storage.NewHeapFile(db.disk, db.pool, val.NewRowCodec(layout))
	t.Heap.SetEpochs(&db.epochs)
	if w := db.wal.Load(); w != nil {
		t.Heap.SetWAL(w)
	}
	t.stats = newTableStats(len(t.Cols), &db.opt)
	if len(t.PrimaryKey) > 0 {
		pkIdx := &Index{
			Name:      name + "_PK",
			Table:     t,
			ColIdxs:   append([]int(nil), t.PrimaryKey...),
			Unique:    true,
			Clustered: true, // loads arrive in key order in our workloads
			Tree:      db.newTree(true),
		}
		t.Indexes = append(t.Indexes, pkIdx)
	}
	nc := cur.clone()
	nc.tables[name] = t
	db.publish(nc)
	return t, nil
}

// createIndex builds a new index over existing rows. The whole operation
// — including the heap scan that seeds the tree — runs under db.mu, so
// DDL serializes; concurrent readers keep resolving against the old
// catalog version until the clone with the new index publishes.
func (db *DB) createIndex(ci *sqlparse.CreateIndex, m *cost.Meter) (*Index, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	cur := db.snap()
	t := cur.table(ci.Table)
	if t == nil {
		return nil, fmt.Errorf("engine: no table %s", ci.Table)
	}
	name := strings.ToUpper(ci.Name)
	for _, ix := range t.Indexes {
		if ix.Name == name {
			return nil, fmt.Errorf("engine: index %s already exists", name)
		}
	}
	nt := t.clone()
	ix := &Index{Name: name, Table: nt, Unique: ci.Unique, Tree: db.newTree(ci.Unique)}
	for _, cn := range ci.Cols {
		pos := t.ColIndex(cn)
		if pos < 0 {
			return nil, fmt.Errorf("engine: index %s: no column %s in %s", name, cn, t.Name)
		}
		ix.ColIdxs = append(ix.ColIdxs, pos)
	}
	err := t.Heap.Scan(m, func(rid storage.RID, row []val.Value) error {
		return ix.Tree.Insert(ix.keyFor(row), rid, m)
	})
	if err != nil {
		return nil, err
	}
	nt.Indexes = append(nt.Indexes, ix)
	nc := cur.clone()
	nc.tables[nt.Name] = nt
	db.publish(nc)
	return ix, nil
}

// dropIndex removes an index by name from whichever table owns it.
func (db *DB) dropIndex(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	cur := db.snap()
	name = strings.ToUpper(name)
	for _, t := range cur.tables {
		for i, ix := range t.Indexes {
			if ix.Name == name {
				nt := t.clone()
				nt.Indexes = append(nt.Indexes[:i:i], nt.Indexes[i+1:]...)
				nc := cur.clone()
				nc.tables[nt.Name] = nt
				db.publish(nc)
				// The dead tree's leaves stop occupying residence
				// slots immediately, not when they age out.
				ix.Tree.ReleaseCache()
				return nil
			}
		}
	}
	return fmt.Errorf("engine: no index %s", name)
}

// dropTable removes a table, its indexes and storage. The heap's pages
// are released immediately: a reader still scanning the dropped table
// under an older catalog version gets a "dropped file" error rather than
// stale data (DDL is serialized against other DDL, not against in-flight
// scans).
func (db *DB) dropTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	cur := db.snap()
	name = strings.ToUpper(name)
	t, ok := cur.tables[name]
	if !ok {
		return fmt.Errorf("engine: no table %s", name)
	}
	t.Heap.Drop()
	for _, ix := range t.Indexes {
		ix.Tree.ReleaseCache()
	}
	nc := cur.clone()
	delete(nc.tables, name)
	db.publish(nc)
	return nil
}

// createView registers a named view.
func (db *DB) createView(cv *sqlparse.CreateView) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	cur := db.snap()
	name := strings.ToUpper(cv.Name)
	if _, dup := cur.views[name]; dup {
		return fmt.Errorf("engine: view %s already exists", name)
	}
	if _, dup := cur.tables[name]; dup {
		return fmt.Errorf("engine: %s already names a table", name)
	}
	nc := cur.clone()
	nc.views[name] = cv.Query
	db.publish(nc)
	return nil
}

// dropView removes a view.
func (db *DB) dropView(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	cur := db.snap()
	name = strings.ToUpper(name)
	if _, ok := cur.views[name]; !ok {
		return fmt.Errorf("engine: no view %s", name)
	}
	nc := cur.clone()
	delete(nc.views, name)
	db.publish(nc)
	return nil
}
