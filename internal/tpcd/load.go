package tpcd

import (
	"sync"

	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/engine"
	"r3bench/internal/val"
)

// loadBatch is the bulk-load flush granularity.
const loadBatch = 4096

// tableLoader batches rows of one table for bulk loading. Each parallel
// loader goroutine owns its own tableLoader(s), so batches never mix.
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

// rowSink is where the population walk puts one table's rows: add for
// every row in canonical generator order, close once after the last.
type rowSink struct {
	add   func(row []val.Value) error
	close func() error
}

// Load bulk-loads the generated population into the original TPC-D schema
// through the RDBMS's bulk-loading interface — the path the paper notes
// SAP R/3's batch input does not use — and gathers statistics.
//
// Tables load in parallel, one goroutine per table (ORDERS and LINEITEM
// share one, since the generator emits them interleaved). Every dbgen
// entity stream draws from its own fixed-seed RNG and every goroutine
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
	return load(db, g, m, keep, func(table string) (rowSink, error) {
		l := &tableLoader{db: db, m: m, table: table}
		return rowSink{l.add, l.flush}, nil
	})
}

// LoadDirect bulk-loads the population through the engine's direct-path
// loaders: full heap pages formatted below the WAL and indexes built
// bottom-up from sorted (key, RID) runs, instead of per-batch BulkLoad
// inserts with per-key index descents. The walk is LoadPartition's, so
// each table receives its rows in canonical generator order and the
// loaded database is byte-identical to Load's; closing a table's sink
// seals its pages, builds its indexes and commits the extent.
func LoadDirect(db *engine.DB, g *dbgen.Generator, m *cost.Meter) error {
	return load(db, g, m, nil, func(table string) (rowSink, error) {
		dl, err := db.NewDirectLoader(table, m)
		if err != nil {
			return rowSink{}, err
		}
		return rowSink{dl.Append, dl.Close}, nil
	})
}

// load creates the schema, walks the population into the sinks open hands
// out — one per table, opened and closed by the goroutine that owns the
// table — and gathers statistics. A nil keep admits every row.
func load(db *engine.DB, g *dbgen.Generator, m *cost.Meter, keep func(table string, key int64) bool, open func(table string) (rowSink, error)) error {
	if err := CreateSchema(db, m); err != nil {
		return err
	}
	if keep == nil {
		keep = func(string, int64) bool { return true }
	}
	// table streams one table: fill calls add for each of its rows.
	table := func(name string, fill func(add func([]val.Value) error) error) error {
		sink, err := open(name)
		if err != nil {
			return err
		}
		if err := fill(sink.add); err != nil {
			return err
		}
		return sink.close()
	}

	loaders := []func() error{
		func() error { // REGION + NATION: tiny, share a goroutine
			if err := table("REGION", func(add func([]val.Value) error) error {
				for _, r := range g.Regions() {
					if err := add([]val.Value{val.Int(r.Key), val.Str(r.Name), val.Str(r.Comment)}); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				return err
			}
			return table("NATION", func(add func([]val.Value) error) error {
				for _, n := range g.NationRows() {
					if err := add([]val.Value{val.Int(n.Key), val.Str(n.Name), val.Int(n.RegionKey), val.Str(n.Comment)}); err != nil {
						return err
					}
				}
				return nil
			})
		},
		func() error {
			return table("SUPPLIER", func(add func([]val.Value) error) error {
				return g.Suppliers(func(s dbgen.Supplier) error {
					if !keep("SUPPLIER", s.Key) {
						return nil
					}
					return add([]val.Value{val.Int(s.Key), val.Str(s.Name), val.Str(s.Address),
						val.Int(s.NationKey), val.Str(s.Phone), val.Float(s.AcctBal), val.Str(s.Comment)})
				})
			})
		},
		func() error {
			return table("PART", func(add func([]val.Value) error) error {
				return g.Parts(func(p dbgen.Part) error {
					return add([]val.Value{val.Int(p.Key), val.Str(p.Name), val.Str(p.Mfgr),
						val.Str(p.Brand), val.Str(p.Type), val.Int(p.Size), val.Str(p.Container),
						val.Float(p.RetailPrice), val.Str(p.Comment)})
				})
			})
		},
		func() error {
			return table("PARTSUPP", func(add func([]val.Value) error) error {
				return g.PartSupps(func(ps dbgen.PartSupp) error {
					return add([]val.Value{val.Int(ps.PartKey), val.Int(ps.SuppKey),
						val.Int(ps.AvailQty), val.Float(ps.SupplyCost), val.Str(ps.Comment)})
				})
			})
		},
		func() error {
			return table("CUSTOMER", func(add func([]val.Value) error) error {
				return g.Customers(func(c dbgen.Customer) error {
					if !keep("CUSTOMER", c.Key) {
						return nil
					}
					return add([]val.Value{val.Int(c.Key), val.Str(c.Name), val.Str(c.Address),
						val.Int(c.NationKey), val.Str(c.Phone), val.Float(c.AcctBal),
						val.Str(c.MktSegment), val.Str(c.Comment)})
				})
			})
		},
		func() error { // ORDERS + LINEITEM arrive interleaved from one stream
			orders, err := open("ORDERS")
			if err != nil {
				return err
			}
			lines, err := open("LINEITEM")
			if err != nil {
				return err
			}
			if err := g.Orders(func(o *dbgen.Order) error {
				if !keep("ORDERS", o.Key) {
					return nil
				}
				if err := orders.add(OrderRow(o)); err != nil {
					return err
				}
				for _, li := range o.Lines {
					if err := lines.add(LineitemRow(li)); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				return err
			}
			if err := orders.close(); err != nil {
				return err
			}
			return lines.close()
		},
	}

	var wg sync.WaitGroup
	errs := make([]error, len(loaders))
	for i, fn := range loaders {
		wg.Add(1)
		go func(i int, fn func() error) {
			defer wg.Done()
			errs[i] = fn()
		}(i, fn)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return db.AnalyzeAll()
}

// OrderRow converts a generated order to the ORDERS layout.
func OrderRow(o *dbgen.Order) []val.Value {
	return []val.Value{val.Int(o.Key), val.Int(o.CustKey), val.Str(o.Status),
		val.Float(o.TotalPrice), o.Date, val.Str(o.Priority), val.Str(o.Clerk),
		val.Int(o.ShipPriority), val.Str(o.Comment)}
}

// LineitemRow converts a generated lineitem to the LINEITEM layout.
func LineitemRow(li dbgen.Lineitem) []val.Value {
	return []val.Value{val.Int(li.OrderKey), val.Int(li.PartKey), val.Int(li.SuppKey),
		val.Int(li.LineNumber), val.Float(float64(li.Quantity)), val.Float(li.ExtendedPrice),
		val.Float(li.Discount), val.Float(li.Tax), val.Str(li.ReturnFlag), val.Str(li.LineStatus),
		li.ShipDate, li.CommitDate, li.ReceiptDate, val.Str(li.ShipInstruct),
		val.Str(li.ShipMode), val.Str(li.Comment)}
}
