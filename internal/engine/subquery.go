package engine

import (
	"errors"
	"fmt"

	"r3bench/internal/cost"
	"r3bench/internal/sqlparse"
	"r3bench/internal/val"
)

// absorbSub merges a subplan's correlation depth and parameter count into
// the enclosing block's compiler and counts it. A subplan that reaches
// depth >= 2 relative to itself references *our* enclosing queries, making
// this block correlated too.
func (c *compiler) absorbSub(sub *selectPlan) {
	c.subqueries++
	if sub.outerDepth >= 2 {
		c.usedOuter = true
		if d := sub.outerDepth - 1; d > c.maxDepth {
			c.maxDepth = d
		}
	}
	if sub.outerDepth >= 1 {
		// The subquery references this block: from our own perspective
		// that is not outer usage, but the subplan must be re-run per row.
	}
	if sub.nParams > c.maxParam {
		c.maxParam = sub.nParams
	}
}

// compileScalarSubquery compiles (SELECT ...) used as a value: one column,
// at most one row; empty results yield NULL.
func (c *compiler) compileScalarSubquery(e *sqlparse.ScalarSubquery) (exprFn, error) {
	sub, err := c.db.planSelect(e.Sub, c.sc, c.opts)
	if err != nil {
		return nil, err
	}
	if len(sub.outCols) != 1 {
		return nil, fmt.Errorf("engine: scalar subquery must return one column, has %d", len(sub.outCols))
	}
	c.absorbSub(sub)
	return func(rt *runtime, rows rowStack) (val.Value, error) {
		out, err := materializeSub(rt, sub, rows)
		if err != nil {
			return val.Null, err
		}
		switch len(out) {
		case 0:
			return val.Null, nil
		case 1:
			return out[0][0], nil
		default:
			return val.Null, fmt.Errorf("engine: scalar subquery returned %d rows", len(out))
		}
	}, nil
}

// compileExists compiles [NOT] EXISTS (SELECT ...). Correlated subqueries
// re-run per outer row with first-row early termination — the naive
// mid-1990s strategy whose cost the paper's Q2/Q16 comparisons expose.
func (c *compiler) compileExists(e *sqlparse.Exists) (exprFn, error) {
	sub, err := c.db.planSelect(e.Sub, c.sc, c.opts)
	if err != nil {
		return nil, err
	}
	c.absorbSub(sub)
	not := e.Not
	return func(rt *runtime, rows rowStack) (val.Value, error) {
		found := false
		if !sub.correlated {
			out, err := materializeSub(rt, sub, rows)
			if err != nil {
				return val.Null, err
			}
			found = len(out) > 0
		} else {
			err := sub.run(rt, rows, stopAtRow)
			if found = errors.Is(err, errRowFound); err != nil && !found {
				return val.Null, err
			}
		}
		return val.Bool(found != not), nil
	}, nil
}

// errRowFound stops a correlated EXISTS block at its first row: the error
// reports the row, so the probe needs no state of its own per outer row.
var errRowFound = errors.New("engine: EXISTS found a row")

// stopAtRow is a correlated EXISTS block's emit.
func stopAtRow([]val.Value) error { return errRowFound }

// compileInSubquery compiles X [NOT] IN (SELECT ...). The subquery result
// is materialized (cached when uncorrelated) and membership is tested by
// linear scan — deliberately reproducing the era's poor nested-query
// processing rather than building a hash index over the result.
func (c *compiler) compileInSubquery(e *sqlparse.InSubquery) (exprFn, error) {
	sub, err := c.db.planSelect(e.Sub, c.sc, c.opts)
	if err != nil {
		return nil, err
	}
	if len(sub.outCols) != 1 {
		return nil, fmt.Errorf("engine: IN subquery must return one column, has %d", len(sub.outCols))
	}
	c.absorbSub(sub)
	x, err := c.compile(e.X)
	if err != nil {
		return nil, err
	}
	not := e.Not
	return func(rt *runtime, rows rowStack) (val.Value, error) {
		xv, err := x(rt, rows)
		if err != nil {
			return val.Null, err
		}
		if xv.IsNull() {
			return val.Null, nil
		}
		out, err := materializeSub(rt, sub, rows)
		if err != nil {
			return val.Null, err
		}
		sawNull := false
		m := rt.meter()
		for _, r := range out {
			m.Charge(cost.TupleCPU, 1)
			if r[0].IsNull() {
				sawNull = true
				continue
			}
			if val.Equal(xv, r[0]) {
				return val.Bool(!not), nil
			}
		}
		if sawNull {
			return val.Null, nil
		}
		return val.Bool(not), nil
	}, nil
}
