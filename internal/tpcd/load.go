package tpcd

import (
	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/engine"
	"r3bench/internal/val"
)

// loadBatch is the bulk-load flush granularity.
const loadBatch = 4096

// tableLoader batches rows of one table for bulk loading. Each parallel
// loader lane owns its own tableLoader(s), so batches never mix.
type tableLoader struct {
	db    *engine.DB
	m     *cost.Meter
	table string
	batch [][]val.Value
}

func (l *tableLoader) add(row []val.Value) error {
	l.batch = append(l.batch, row)
	if len(l.batch) >= loadBatch {
		return l.flush()
	}
	return nil
}

func (l *tableLoader) flush() error {
	if len(l.batch) == 0 {
		return nil
	}
	err := l.db.BulkLoad(l.table, l.batch, l.m)
	l.batch = l.batch[:0]
	return err
}

// Load bulk-loads the generated population into the original TPC-D schema
// through the RDBMS's bulk-loading interface — the path the paper notes
// SAP R/3's batch input does not use — and gathers statistics.
//
// Tables load in parallel, one lane per generator stream (ORDERS and
// LINEITEM share one, since the generator emits them interleaved). Every
// dbgen stream draws from its own fixed-seed RNG and every lane
// fills only its own heap file(s), so the loaded database is byte-
// identical to a serial load regardless of scheduling. The shared meter,
// if any, is charged concurrently (it is thread-safe); all current
// harness callers pass nil and time loads on the wall clock instead.
func Load(db *engine.DB, g *dbgen.Generator, m *cost.Meter) error {
	return LoadPartition(db, g, m, nil)
}

// LoadPartition is Load restricted to the rows keep admits: keep is
// called with the table name and the row's partitioning key (c_custkey
// for CUSTOMER, s_suppkey for SUPPLIER, the order key for ORDERS and
// LINEITEM — an order and its lineitems always land together), and only
// admitted rows load. The un-keyed dimension tables (REGION, NATION,
// PART, PARTSUPP) always load in full — they are replicated onto every
// shard. A nil keep loads everything; the generator streams stay
// fixed-seed, so any partition of the population is byte-deterministic.
func LoadPartition(db *engine.DB, g *dbgen.Generator, m *cost.Meter, keep func(table string, key int64) bool) error {
	if err := CreateSchema(db, m); err != nil {
		return err
	}
	// The streams charge the shared meter, so their lanes carry none.
	err := make(cost.Lanes, len(dbgen.Streams)).Run(func(i int, _ *cost.Meter) error {
		return loadStream(db, g, m, &dbgen.Streams[i], keep)
	})
	if err != nil {
		return err
	}
	return db.AnalyzeAll()
}

// loadStream walks one generator stream into the loaders of its tables. A
// partitioned table's row is offered to keep by its partitioning key.
func loadStream(db *engine.DB, g *dbgen.Generator, m *cost.Meter, s *dbgen.Stream, keep func(table string, key int64) bool) error {
	loaders := make([]tableLoader, len(s.Tables))
	for i, t := range s.Tables {
		loaders[i] = tableLoader{db: db, m: m, table: t.Name}
	}
	err := s.Each(g, func(t *dbgen.Table, row []val.Value) error {
		if keep != nil && t.PartKey >= 0 && !keep(t.Name, row[t.PartKey].AsInt()) {
			return nil
		}
		return loaders[s.Slot(t)].add(row)
	})
	if err != nil {
		return err
	}
	for i := range loaders {
		if err := loaders[i].flush(); err != nil {
			return err
		}
	}
	return nil
}

// OrderRow converts a generated order to the ORDERS layout.
func OrderRow(o *dbgen.Order) []val.Value { return dbgen.OrderRow(o) }

// LineitemRow converts a generated lineitem to the LINEITEM layout.
func LineitemRow(li dbgen.Lineitem) []val.Value { return dbgen.LineitemRow(li) }
