package tpcd

import (
	"fmt"
	"time"

	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/engine"
	"r3bench/internal/val"
)

// Implementation is one strategy for evaluating the TPC-D workload: the
// isolated RDBMS, or SAP R/3 Native SQL / Open SQL reports. The power
// test drives it query by query against the shared virtual clock.
type Implementation interface {
	// Name labels the strategy ("RDBMS", "Native SQL 3.0", ...).
	Name() string
	// RunQuery evaluates query q (1–17), returning its result rows for
	// validation.
	RunQuery(q int) ([][]val.Value, error)
	// RunUF1 inserts the new-order set; RunUF2 deletes the delete set.
	RunUF1() error
	RunUF2() error
	// Meter is the strategy's virtual clock.
	Meter() *cost.Meter
}

// StepResult is the measured outcome of one power-test step.
type StepResult struct {
	Label   string
	Elapsed time.Duration
	Rows    int
	Err     error
}

// PowerResult is a full power test.
type PowerResult struct {
	Impl     string
	Steps    []StepResult
	TotalQ   time.Duration // Q1–Q17 only ("Total (quer.)" in the paper)
	TotalAll time.Duration
}

// RunPowerTest executes Q1–Q17 followed by UF1 and UF2, timing each step
// on the implementation's virtual clock — the paper's Tables 4 and 5.
func RunPowerTest(impl Implementation) *PowerResult {
	pr := &PowerResult{Impl: impl.Name()}
	m := impl.Meter()
	for q := 1; q <= 17; q++ {
		start := m.Elapsed()
		rows, err := impl.RunQuery(q)
		step := StepResult{Label: fmt.Sprintf("Q%d", q), Elapsed: m.Lap(start), Rows: len(rows), Err: err}
		pr.Steps = append(pr.Steps, step)
		pr.TotalQ += step.Elapsed
	}
	start := m.Elapsed()
	err := impl.RunUF1()
	pr.Steps = append(pr.Steps, StepResult{Label: "UF1", Elapsed: m.Lap(start), Err: err})
	start = m.Elapsed()
	err = impl.RunUF2()
	pr.Steps = append(pr.Steps, StepResult{Label: "UF2", Elapsed: m.Lap(start), Err: err})
	for _, s := range pr.Steps {
		pr.TotalAll += s.Elapsed
	}
	return pr
}

// RDBMS is the isolated-database implementation: standard SQL straight
// against the engine, the baseline column of Tables 4 and 5.
type RDBMS struct {
	gen  *dbgen.Generator
	sess *engine.Session
	qs   []Query
}

// NewRDBMS wraps a loaded original-schema database.
func NewRDBMS(db *engine.DB, g *dbgen.Generator) *RDBMS {
	return &RDBMS{gen: g, sess: db.NewSession(), qs: Queries(g.SF)}
}

// Name implements Implementation.
func (r *RDBMS) Name() string { return "RDBMS (TPCD-DB)" }

// Meter implements Implementation.
func (r *RDBMS) Meter() *cost.Meter { return r.sess.Meter }

// RunQuery implements Implementation.
func (r *RDBMS) RunQuery(q int) ([][]val.Value, error) {
	if q < 1 || q > 17 {
		return nil, fmt.Errorf("tpcd: no query Q%d", q)
	}
	rows, err := r.qs[q-1].Run(r.sess)
	if err != nil {
		return nil, fmt.Errorf("tpcd: Q%d: %w", q, err)
	}
	return rows, nil
}

// Run executes the query's statements in order on sess and returns the rows
// of the last one that has columns: the SELECT that answers it, which Q15's
// CREATE VIEW and DROP VIEW bracket.
func (qu Query) Run(sess *engine.Session) ([][]val.Value, error) {
	var rows [][]val.Value
	for _, sql := range qu.SQL {
		res, err := sess.Exec(sql)
		if err != nil {
			return nil, err
		}
		if res.Cols != nil {
			rows = res.Rows
		}
	}
	return rows, nil
}

// RunUF1 inserts the SF×1500 new orders and their lineitems row by row
// through SQL (the RDBMS-side update function).
func (r *RDBMS) RunUF1() error {
	var orders []*dbgen.Order
	if err := r.gen.UF1Orders(func(o *dbgen.Order) error {
		orders = append(orders, o)
		return nil
	}); err != nil {
		return err
	}
	return ApplyUF1(r.sess, orders)
}

// RunUF2 deletes the SF×1500 delete-set orders and their lineitems.
func (r *RDBMS) RunUF2() error { return ApplyUF2(r.sess, r.gen.UF2OrderKeys()) }

// ApplyUF1 is update function 1 over one session: each order, then its
// lineitems, through two prepared full-row INSERTs. A sharded cluster calls
// it once per shard with the orders that shard owns.
func ApplyUF1(sess *engine.Session, orders []*dbgen.Order) error {
	insOrder, err := sess.Prepare(dbgen.OrdersTable.InsertSQL())
	if err != nil {
		return err
	}
	insLine, err := sess.Prepare(dbgen.LineitemTable.InsertSQL())
	if err != nil {
		return err
	}
	for _, o := range orders {
		if _, err := insOrder.Query(OrderRow(o)...); err != nil {
			return err
		}
		for _, li := range o.Lines {
			if _, err := insLine.Query(LineitemRow(li)...); err != nil {
				return err
			}
		}
	}
	return nil
}

// ApplyUF2 is update function 2 over one session: per key, the order's
// lineitems go first, then the order.
func ApplyUF2(sess *engine.Session, keys []int64) error {
	delLine, err := sess.Prepare(`DELETE FROM lineitem WHERE l_orderkey = ?`)
	if err != nil {
		return err
	}
	delOrder, err := sess.Prepare(`DELETE FROM orders WHERE o_orderkey = ?`)
	if err != nil {
		return err
	}
	for _, k := range keys {
		if _, err := delLine.Query(val.Int(k)); err != nil {
			return err
		}
		if _, err := delOrder.Query(val.Int(k)); err != nil {
			return err
		}
	}
	return nil
}
