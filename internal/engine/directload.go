package engine

import (
	"fmt"
	"math/bits"
	"sort"

	"r3bench/internal/btree"
	"r3bench/internal/cost"
	"r3bench/internal/storage"
	"r3bench/internal/val"
)

// DirectLoader is the modern fast path the paper's Table 3 lacked: rows
// stream through a storage.BulkWriter into 100%-packed heap pages below
// the WAL (only allocation extents are logged), index maintenance is
// deferred — (key, RID) runs are collected while packing, sorted once,
// and the trees built bottom-up — and there is a single commit for the
// whole load. Against the dialog-scale batch input this removes the
// per-record consistency checks, the per-record commits, the per-key
// B+-tree descents, and almost all log traffic.
//
// A DirectLoader owns its table exclusively from New to Close and
// requires the table to be empty (bulk index builds start from empty
// trees). One loader per table; load distinct tables in parallel.
type DirectLoader struct {
	db     *DB
	t      *Table
	m      *cost.Meter
	bw     *storage.BulkWriter
	tx     int64
	runs   [][]btree.BulkEntry // one sorted-run accumulator per index
	closed bool
}

// NewDirectLoader opens a direct-path channel into the named table.
func (db *DB) NewDirectLoader(tableName string, m *cost.Meter) (*DirectLoader, error) {
	t := db.Table(tableName)
	if t == nil {
		return nil, errNoTable(tableName)
	}
	if t.Heap.Rows() != 0 {
		return nil, fmt.Errorf("engine: direct-path load into non-empty table %s", tableName)
	}
	var tx int64
	if w := db.wal.Load(); w != nil {
		tx = w.Begin()
	}
	return &DirectLoader{
		db:   db,
		t:    t,
		m:    m,
		bw:   t.Heap.NewBulkWriter(tx, m),
		tx:   tx,
		runs: make([][]btree.BulkEntry, len(t.Indexes)),
	}, nil
}

// Append validates, coerces and packs one row, deferring all index
// maintenance to Close.
func (l *DirectLoader) Append(row []val.Value) error {
	t := l.t
	if len(row) != len(t.Cols) {
		return fmt.Errorf("engine: row width %d != %d for %s", len(row), len(t.Cols), t.Name)
	}
	for i, c := range t.Cols {
		row[i] = coerceToType(row[i], c.Type)
		if c.NotNull && row[i].IsNull() {
			return fmt.Errorf("engine: NULL in NOT NULL column %s.%s", t.Name, c.Name)
		}
	}
	rid, err := l.bw.Append(row)
	if err != nil {
		return err
	}
	for i, ix := range t.Indexes {
		l.runs[i] = append(l.runs[i], btree.BulkEntry{Key: ix.keyFor(row), RID: rid})
	}
	return nil
}

// Close seals the heap pages, sorts each deferred index run, builds the
// trees bottom-up, and commits the load as one transaction. Cached
// plans see the new population immediately.
func (l *DirectLoader) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.bw.Close(); err != nil {
		return err
	}
	for i, ix := range l.t.Indexes {
		sortBulkEntries(l.runs[i], l.m)
		if err := ix.Tree.BulkBuild(l.runs[i], l.m); err != nil {
			return fmt.Errorf("engine: %s: %w", ix.Name, err)
		}
		l.runs[i] = nil
	}
	if w := l.db.wal.Load(); w != nil {
		w.Commit(l.tx, l.m)
	}
	// One notification for the whole load: write observers (the R/3
	// table-buffer invalidator) see the table change.
	l.db.noteWrite(l.t.Name, nil, nil)
	return nil
}

// sortBulkEntries sorts a (key, RID) run for a bottom-up build,
// charging the modelled n·log₂(n) comparisons.
func sortBulkEntries(entries []btree.BulkEntry, m *cost.Meter) {
	n := len(entries)
	if n < 2 {
		return
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if c := compareKeys(a.Key, b.Key); c != 0 {
			return c < 0
		}
		if a.RID.Page != b.RID.Page {
			return a.RID.Page < b.RID.Page
		}
		return a.RID.Slot < b.RID.Slot
	})
	if m != nil {
		m.Charge(cost.SortCPU, int64(n)*int64(bits.Len(uint(n-1))))
	}
}

func compareKeys(a, b []byte) int {
	if string(a) == string(b) {
		return 0
	}
	if string(a) < string(b) {
		return -1
	}
	return 1
}
