package engine

import (
	"sync"
	"sync/atomic"

	"r3bench/internal/sqlparse"
)

// Statement-fingerprint cache. SAP R/3 sends the engine a small set of
// statement TEXTS millions of times (cursor cache hits aside, every
// Exec/Prepare/Explain re-enters the front end), so the DB keeps a
// fingerprint → AST/plan table keyed by the raw SQL bytes: a hot
// statement skips the lexer entirely and, while planning it again would
// give the plan it cached, the optimizer too. The cache saves real CPU and
// real allocations only — every simulated-meter charge (Interface,
// Optimize, RowShip) is made exactly as before on both the hit
// and the miss path, so the 1996 virtual clock is byte-identical whether
// a statement hits or misses.

// parseCacheCap bounds the fingerprint table. Past it new statements
// parse uncached rather than evict: the workloads' hot sets (TPC-D
// query texts, R/3 generated SQL) are tiny, and an adversarial stream
// of unique texts must not grow the map without bound.
const parseCacheCap = 4096

// parseEntry is one cached statement text: its detached AST (immutable
// after parse — planning and execution never write into it) and, for a
// SELECT, the most recent vanilla plan with the plan epoch it was built
// under. Entries chain on fingerprint collision.
type parseEntry struct {
	sql  string
	ast  sqlparse.Statement
	next *parseEntry

	// vp holds the cached blind plan (planSelect with nil opts) together
	// with the epoch it was built under, behind one atomic pointer: plan
	// and epoch publish in a single swap, so a reader can never pair a
	// fresh epoch with a stale plan (or vice versa) no matter how a
	// concurrent planEpoch bump interleaves. Peeked and
	// feedback-driven plans are never stored — they are bind- or
	// history-specific.
	vp atomic.Pointer[entryPlan]
}

// entryPlan is one immutable (plan, epoch) pair.
type entryPlan struct {
	plan  *selectPlan
	epoch int64
}

// cachedPlan returns the entry's plan while planning again would give the
// same one: it was built under epoch, every name it resolved means in cat
// what it meant then, and every table it read has the size it read.
func (e *parseEntry) cachedPlan(epoch int64, cat *catalog) *selectPlan {
	if e == nil {
		return nil
	}
	if v := e.vp.Load(); v != nil && v.epoch == epoch && v.plan.deps.current(cat) && v.plan.deps.sized() {
		return v.plan
	}
	return nil
}

// storePlan caches a vanilla plan built under epoch.
func (e *parseEntry) storePlan(p *selectPlan, epoch int64) {
	if e == nil {
		return
	}
	e.vp.Store(&entryPlan{plan: p, epoch: epoch})
}

// invalidatePlan drops the cached plan (adaptive feedback found its
// leading-scan estimate badly wrong). The AST stays.
func (e *parseEntry) invalidatePlan() {
	if e == nil {
		return
	}
	e.vp.Store(nil)
}

// parseCache is the DB-level fingerprint table.
type parseCache struct {
	mu      sync.RWMutex
	n       int
	entries map[uint64]*parseEntry
}

// fingerprint is FNV-1a 64 over the raw statement bytes — no
// normalization, no copying: two texts differing only in whitespace are
// distinct statements, exactly as the real front end would see them.
func fingerprint(sql string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(sql); i++ {
		h ^= uint64(sql[i])
		h *= prime64
	}
	return h
}

// lookup returns the entry for sql, or nil. Callers hold no locks.
func (pc *parseCache) lookup(h uint64, sql string) *parseEntry {
	pc.mu.RLock()
	defer pc.mu.RUnlock()
	for e := pc.entries[h]; e != nil; e = e.next {
		if e.sql == sql {
			return e
		}
	}
	return nil
}

// insert adds an entry for sql unless the cache is full or a racing
// parse already inserted one; either way it returns the entry now in
// the cache (nil when full).
func (pc *parseCache) insert(h uint64, sql string, ast sqlparse.Statement) *parseEntry {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for e := pc.entries[h]; e != nil; e = e.next {
		if e.sql == sql {
			return e
		}
	}
	if pc.n >= parseCacheCap {
		return nil
	}
	if pc.entries == nil {
		pc.entries = make(map[uint64]*parseEntry)
	}
	e := &parseEntry{sql: sql, ast: ast, next: pc.entries[h]}
	pc.entries[h] = e
	pc.n++
	return e
}

// Parse returns the statement's AST, serving repeated statement texts
// from the fingerprint cache. Error texts are identical to
// sqlparse.Parse's (parse failures are never cached).
func (db *DB) Parse(sql string) (sqlparse.Statement, error) {
	ast, _, err := db.parse(sql)
	return ast, err
}

// parse is the engine's front-end entry point: every statement text
// arriving through Exec, Prepare, Explain or ExplainAnalyze funnels
// through here. A fingerprint hit returns the cached AST without
// touching the lexer.
func (db *DB) parse(sql string) (sqlparse.Statement, *parseEntry, error) {
	db.parseStatements.Add(1)
	h := fingerprint(sql)
	if e := db.pcache.lookup(h, sql); e != nil {
		db.parseHits.Add(1)
		return e.ast, e, nil
	}
	db.parseMisses.Add(1)
	ast, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	return ast, db.pcache.insert(h, sql, ast), nil
}

// bumpPlanEpoch retires every cached plan, for what changes plans
// database-wide: a statistics rebuild, a change of Options.Parallel and a
// change of the rewrite hook. DDL and row writes retire only the plans
// that read what they changed (cachedPlan).
func (db *DB) bumpPlanEpoch() { db.planEpoch.Add(1) }

// planFor returns the statement's blind (vanilla-opts) plan, reusing
// entry's cached plan while it is current (cachedPlan). The epoch is read
// BEFORE planning, and the plan's deps record the catalog entries and
// sizes it was costed with: a change racing the optimizer leaves the
// stored plan already stale, never wrongly fresh.
func (db *DB) planFor(entry *parseEntry, sel *sqlparse.SelectStmt) (*selectPlan, error) {
	// The rewrite hook may substitute an equivalent AST (materialized-
	// aggregate matching) before planning. Caching the rewritten plan in
	// the fingerprint entry is sound: the hook is a pure function of the
	// AST, and SetRewriteHook publishes the hook before it bumps the plan
	// epoch, so with the epoch read first a plan compiled under a
	// different hook never survives the toggle.
	epoch := db.planEpoch.Load()
	if h := db.rewrite.Load(); h != nil && *h != nil {
		if rw := (*h)(sel); rw != nil {
			db.rewriteHits.Add(1)
			sel = rw
		} else {
			db.rewriteMisses.Add(1)
		}
	}
	if p := entry.cachedPlan(epoch, db.snap()); p != nil && !planEveryTime {
		db.planHits.Add(1)
		return p, nil
	}
	db.planMisses.Add(1)
	p, err := db.planSelect(sel, nil, nil)
	if err != nil {
		return nil, err
	}
	entry.storePlan(p, epoch)
	return p, nil
}

// planEveryTime is false outside the test binary: TestCachedPlanMatchesFreshPlan
// sets it (PlanEveryTime) to plan every statement afresh beside a database
// that serves its cached plans.
var planEveryTime bool
