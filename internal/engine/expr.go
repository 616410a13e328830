package engine

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"r3bench/internal/cost"
	"r3bench/internal/sqlparse"
	"r3bench/internal/val"
)

// runtime is the per-execution state threaded through compiled
// expressions and iterators.
type runtime struct {
	sess   *Session
	params []val.Value
	// subCache memoises materialized results of uncorrelated subqueries
	// within one statement execution; subs makes it on first use.
	subCache map[*selectPlan][][]val.Value
	// subMu guards subCache when parallel workers share one statement
	// execution; nil in serial execution.
	subMu *sync.Mutex
	// m overrides the session meter for one parallel worker lane; nil
	// means charge the session meter directly.
	m *cost.Meter
	// prof collects per-operator span attribution when the statement runs
	// under ExplainAnalyze, row shipping included; nil otherwise.
	prof *execProfile
	// fb records per-step produced-row counts for the plan fbPlan when a
	// prepared statement executes with adaptive replanning enabled; nil
	// otherwise. Subquery blocks share the runtime but are not recorded.
	fb     *execFeedback
	fbPlan *selectPlan

	// runs is the run state of every plan block that has executed under
	// this runtime, so a block that runs again — a correlated sub-block per
	// outer row, any block of a prepared Stmt per execution — resets its
	// state instead of rebuilding it.
	runs []*blockRun
	// dml holds the rows a DML statement matched or inserts (runDML).
	dml *dmlRows
	// busy marks a Stmt's runtime as executing: a Stmt re-entered from its
	// own row sink runs on a runtime of its own.
	busy bool
	// sc is the memory the session lends the statement (begin) and takes
	// back when it ends (done); a parallel lane's is its lane's
	// (scratch.lane), and a partial result's nil: it makes its own.
	sc *scratch
	// epoch is the one the statement entered at begin (DB.epochs): until it
	// leaves at done, no heap page listed for reuse meanwhile is written
	// again, so every RID its index probes hand out names its row or a dead
	// slot.
	epoch uint64

	// Shipping of the statement's result rows (runSelect): the sink they go
	// to, whether they ship in packets, how many went, and shipRow bound
	// once so that it can be handed to the top-level block as its emit.
	out     RowSink
	array   bool
	shipped int64
	ship    func([]val.Value) error
}

// subs returns the statement's sub-block result cache.
func (rt *runtime) subs() map[*selectPlan][][]val.Value {
	if rt.subCache == nil {
		rt.subCache = make(map[*selectPlan][][]val.Value)
	}
	return rt.subCache
}

// begin starts a statement execution on rt with the session's scratch.
func (rt *runtime) begin() {
	rt.sc = rt.sess.takeScratch()
	rt.epoch = rt.sess.db.epochs.Enter()
}

// done ends a statement execution: what it sized by its rows goes back to
// the session's scratch, cleared, and what the plan sized stays with rt for
// a Stmt's next execution.
func (rt *runtime) done() {
	rt.dropRuns()
	if d := rt.dml; d != nil {
		clear(d.vals)
		if cap(d.vals) > batchSize {
			rt.dml = nil
		}
	}
	clear(rt.subCache)
	if sc := rt.sc; sc != nil {
		sc.release()
		rt.sess.putScratch(sc)
	}
	rt.params, rt.out, rt.fb, rt.fbPlan, rt.sc = nil, nil, nil, nil, nil
	rt.busy = false
	rt.sess.db.epochs.Leave(rt.epoch)
}

// dropRuns lets go of what the statement's blocks sized by their rows.
func (rt *runtime) dropRuns() {
	for _, br := range rt.runs {
		br.drop()
	}
}

// shipRow hands one result row to the statement's sink, charging
// tuple-at-a-time shipping unless the array interface ships packets.
func (rt *runtime) shipRow(row []val.Value) error {
	if !rt.array {
		rt.chargeShip(cost.RowShip, 1)
	}
	rt.shipped++
	return rt.out.Row(row)
}

// chargeShip charges n row-shipping events of kind k to the session meter:
// on the profile's row-ship span when the statement is profiled.
func (rt *runtime) chargeShip(k cost.Kind, n int64) {
	m := rt.sess.Meter
	if rt.prof == nil {
		m.Charge(k, n)
		return
	}
	prev := m.SetSpan(rt.prof.ship)
	m.Charge(k, n)
	m.SetSpan(prev)
}

func (rt *runtime) meter() *cost.Meter {
	if rt.m != nil {
		return rt.m
	}
	return rt.sess.Meter
}

// fbFor returns the statement's feedback recorder when p is the plan
// being observed, nil otherwise.
func (rt *runtime) fbFor(p *selectPlan) *execFeedback {
	if rt.fb != nil && p == rt.fbPlan {
		return rt.fb
	}
	return nil
}

// rowStack is the stack of in-flight rows: index 0 is the outermost
// query's current row, the last element is the current query's row.
// Correlated subqueries resolve outer references through it.
type rowStack [][]val.Value

// exprFn is a compiled expression.
type exprFn func(rt *runtime, rows rowStack) (val.Value, error)

// scopeEntry names one logical position of a query's row: a column of a
// FROM-list relation, in FROM order.
type scopeEntry struct {
	table  string // alias, upper case
	column string // upper case
}

// scope is a lexical name-resolution scope; parent scopes belong to
// enclosing queries.
type scope struct {
	parent *scope
	cols   []scopeEntry
	// slots[i] is where logical position i lives in the block's frames: -1
	// while nothing reads it — it is then in no frame at all — and otherwise
	// its physical slot. While the block is planned a read position only
	// carries a mark (markRead): the roles of its reads so far. planSelect
	// numbers the read positions once the marks and the join order are
	// final (assignSlots), before the plan is published. Compiled column
	// reads therefore hold a pointer into the table, not a number: a
	// sub-block is compiled — and may reach one of these positions — before
	// its parent's slots are assigned.
	slots []int32
	// role is what a read resolved in this scope is marked with: roleOut,
	// but while a WHERE or ON conjunct compiles, the role its shape gives it
	// (classifyConjunct). A sub-block compiled inside the expression reaches
	// the scope's positions under the same role: it runs where the
	// expression runs.
	role int32
}

// The roles of a read column, or'ed into its mark. A relation's scan column
// is read at its own step — by a pushed conjunct, an ON filter, its hash
// build key — and an output column after it: by a later probe key, a hash
// join's residual filter, a later filter, a correlated sub-block or the
// sink. A mark without a role (0) is an equi-join column whose roles wait
// for the join order (markEdges).
const (
	roleScan int32 = 1 << iota
	roleOut
)

// markRead marks an entry of a slot table as read in the given role — by an
// expression of the block or of a sub-block reaching it through the scope
// chain — until assignSlots gives it its slot. (Any number but -1 is a
// mark; a table whose slots are final has role 0 and keeps them.)
func markRead(slot *int32, role int32) {
	if *slot < 0 {
		*slot = role
	} else {
		*slot |= role
	}
}

func newScope(parent *scope, cols []scopeEntry) *scope {
	sc := &scope{parent: parent, cols: cols, slots: make([]int32, len(cols)), role: roleOut}
	for i := range sc.slots {
		sc.slots[i] = -1
	}
	return sc
}

// fullRowScope is the scope of expressions evaluated over a table's full
// row (UPDATE's SET clause): position i is slot i.
func fullRowScope(cols []scopeEntry) *scope {
	sc := newScope(nil, cols)
	for i := range sc.slots {
		sc.slots[i] = int32(i)
	}
	sc.role = 0
	return sc
}

// resolve finds (depth, index) for a column reference; depth 0 is this
// scope and index the logical position. The position is marked read in the
// scope that owns it, in that scope's current role.
func (sc *scope) resolve(tbl, col string) (int, int, error) {
	s, depth, found, err := sc.find(tbl, col)
	if err != nil {
		return 0, 0, err
	}
	markRead(&s.slots[found], s.role)
	return depth, found, nil
}

// find is resolve without the mark: it also returns the scope that owns the
// position.
func (sc *scope) find(tbl, col string) (*scope, int, int, error) {
	depth := 0
	for s := sc; s != nil; s = s.parent {
		found := -1
		for i, e := range s.cols {
			if e.column != col {
				continue
			}
			if tbl != "" && e.table != tbl {
				continue
			}
			if found >= 0 {
				return nil, 0, 0, fmt.Errorf("engine: ambiguous column %s", col)
			}
			found = i
		}
		if found >= 0 {
			return s, depth, found, nil
		}
		depth++
	}
	if tbl != "" {
		return nil, 0, 0, fmt.Errorf("engine: unknown column %s.%s", tbl, col)
	}
	return nil, 0, 0, fmt.Errorf("engine: unknown column %s", col)
}

// slot returns where the frames of the scope depth levels up keep logical
// position idx, as resolve reported it: the entry of that scope's slot
// table, final once the plan is published.
func (sc *scope) slot(depth, idx int) *int32 {
	for ; depth > 0; depth-- {
		sc = sc.parent
	}
	return &sc.slots[idx]
}

// compiler compiles expressions of one query block.
type compiler struct {
	db *DB
	sc *scope
	// opts carries the planning round's peeked bind values and feedback
	// (nil for blind planning); subquery compilation inherits it.
	opts *planOpts
	// usedOuter is set when any compiled expression resolved through a
	// parent scope — i.e. the block is correlated.
	usedOuter bool
	// maxDepth is the deepest outer-scope distance referenced (0 = only
	// this block).
	maxDepth int
	// maxParam tracks the highest parameter index seen (1-based count).
	maxParam int
	// subqueries counts the subquery blocks compiled: a block evaluating
	// one never streams its derived relation (selectPlan.planStream).
	subqueries int
	// hook, when set, intercepts sub-expressions before normal
	// compilation; used for post-aggregation rewriting.
	hook func(e sqlparse.Expr) (exprFn, bool, error)
}

func (c *compiler) compile(e sqlparse.Expr) (exprFn, error) {
	if c.hook != nil {
		if fn, handled, err := c.hook(e); handled {
			return fn, err
		}
	}
	switch e := e.(type) {
	case *sqlparse.Literal:
		v := e.Val
		return func(*runtime, rowStack) (val.Value, error) { return v, nil }, nil

	case *sqlparse.Param:
		idx := e.Index
		if idx+1 > c.maxParam {
			c.maxParam = idx + 1
		}
		return func(rt *runtime, _ rowStack) (val.Value, error) {
			if idx >= len(rt.params) {
				return val.Null, fmt.Errorf("engine: parameter %d not bound", idx+1)
			}
			return rt.params[idx], nil
		}, nil

	case *sqlparse.ColumnRef:
		depth, idx, err := c.sc.resolve(e.Table, e.Column)
		if err != nil {
			return nil, err
		}
		if depth > 0 {
			c.usedOuter = true
			if depth > c.maxDepth {
				c.maxDepth = depth
			}
		}
		slot := c.sc.slot(depth, idx)
		return func(rt *runtime, rows rowStack) (val.Value, error) {
			fi := len(rows) - 1 - depth
			if fi < 0 || fi >= len(rows) {
				return val.Null, fmt.Errorf("engine: missing frame for depth %d", depth)
			}
			return rows[fi][*slot], nil
		}, nil

	case *sqlparse.Unary:
		x, err := c.compile(e.X)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case "-":
			return func(rt *runtime, rows rowStack) (val.Value, error) {
				v, err := x(rt, rows)
				if err != nil {
					return val.Null, err
				}
				return val.Neg(v), nil
			}, nil
		case "NOT":
			return func(rt *runtime, rows rowStack) (val.Value, error) {
				v, err := x(rt, rows)
				if err != nil {
					return val.Null, err
				}
				if v.IsNull() {
					return val.Null, nil
				}
				return val.Bool(!v.IsTrue()), nil
			}, nil
		default:
			return nil, fmt.Errorf("engine: unknown unary op %q", e.Op)
		}

	case *sqlparse.Binary:
		return c.compileBinary(e)

	case *sqlparse.Between:
		x, err := c.compile(e.X)
		if err != nil {
			return nil, err
		}
		lo, err := c.compile(e.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := c.compile(e.Hi)
		if err != nil {
			return nil, err
		}
		not := e.Not
		return func(rt *runtime, rows rowStack) (val.Value, error) {
			xv, err := x(rt, rows)
			if err != nil {
				return val.Null, err
			}
			lov, err := lo(rt, rows)
			if err != nil {
				return val.Null, err
			}
			hiv, err := hi(rt, rows)
			if err != nil {
				return val.Null, err
			}
			if xv.IsNull() || lov.IsNull() || hiv.IsNull() {
				return val.Null, nil
			}
			in := val.Compare(xv, lov) >= 0 && val.Compare(xv, hiv) <= 0
			return val.Bool(in != not), nil
		}, nil

	case *sqlparse.InList:
		x, err := c.compile(e.X)
		if err != nil {
			return nil, err
		}
		items := make([]exprFn, len(e.List))
		for i, le := range e.List {
			if items[i], err = c.compile(le); err != nil {
				return nil, err
			}
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
			sawNull := false
			for _, item := range items {
				iv, err := item(rt, rows)
				if err != nil {
					return val.Null, err
				}
				if iv.IsNull() {
					sawNull = true
					continue
				}
				if val.Equal(xv, iv) {
					return val.Bool(!not), nil
				}
			}
			if sawNull {
				return val.Null, nil
			}
			return val.Bool(not), nil
		}, nil

	case *sqlparse.IsNull:
		x, err := c.compile(e.X)
		if err != nil {
			return nil, err
		}
		not := e.Not
		return func(rt *runtime, rows rowStack) (val.Value, error) {
			v, err := x(rt, rows)
			if err != nil {
				return val.Null, err
			}
			return val.Bool(v.IsNull() != not), nil
		}, nil

	case *sqlparse.Like:
		x, err := c.compile(e.X)
		if err != nil {
			return nil, err
		}
		pat, err := c.compile(e.Pattern)
		if err != nil {
			return nil, err
		}
		not := e.Not
		return func(rt *runtime, rows rowStack) (val.Value, error) {
			xv, err := x(rt, rows)
			if err != nil {
				return val.Null, err
			}
			pv, err := pat(rt, rows)
			if err != nil {
				return val.Null, err
			}
			if xv.IsNull() || pv.IsNull() {
				return val.Null, nil
			}
			return val.Bool(val.Like(xv.AsStr(), pv.AsStr()) != not), nil
		}, nil

	case *sqlparse.CaseExpr:
		type arm struct{ cond, then exprFn }
		arms := make([]arm, len(e.Whens))
		for i, w := range e.Whens {
			cond, err := c.compile(w.Cond)
			if err != nil {
				return nil, err
			}
			then, err := c.compile(w.Then)
			if err != nil {
				return nil, err
			}
			arms[i] = arm{cond, then}
		}
		var els exprFn
		if e.Else != nil {
			var err error
			if els, err = c.compile(e.Else); err != nil {
				return nil, err
			}
		}
		return func(rt *runtime, rows rowStack) (val.Value, error) {
			for _, a := range arms {
				cv, err := a.cond(rt, rows)
				if err != nil {
					return val.Null, err
				}
				if cv.IsTrue() {
					return a.then(rt, rows)
				}
			}
			if els != nil {
				return els(rt, rows)
			}
			return val.Null, nil
		}, nil

	case *sqlparse.FuncCall:
		if isAggregateName(e.Name) {
			return nil, fmt.Errorf("engine: aggregate %s not allowed here", e.Name)
		}
		return c.compileScalarFunc(e)

	case *sqlparse.ScalarSubquery:
		return c.compileScalarSubquery(e)

	case *sqlparse.Exists:
		return c.compileExists(e)

	case *sqlparse.InSubquery:
		return c.compileInSubquery(e)

	default:
		return nil, fmt.Errorf("engine: unsupported expression %T", e)
	}
}

func (c *compiler) compileBinary(e *sqlparse.Binary) (exprFn, error) {
	l, err := c.compile(e.L)
	if err != nil {
		return nil, err
	}
	r, err := c.compile(e.R)
	if err != nil {
		return nil, err
	}
	op := e.Op
	switch op {
	case "AND":
		return func(rt *runtime, rows rowStack) (val.Value, error) {
			lv, err := l(rt, rows)
			if err != nil {
				return val.Null, err
			}
			if !lv.IsNull() && !lv.IsTrue() {
				return val.Bool(false), nil
			}
			rv, err := r(rt, rows)
			if err != nil {
				return val.Null, err
			}
			if !rv.IsNull() && !rv.IsTrue() {
				return val.Bool(false), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return val.Null, nil
			}
			return val.Bool(true), nil
		}, nil
	case "OR":
		return func(rt *runtime, rows rowStack) (val.Value, error) {
			lv, err := l(rt, rows)
			if err != nil {
				return val.Null, err
			}
			if !lv.IsNull() && lv.IsTrue() {
				return val.Bool(true), nil
			}
			rv, err := r(rt, rows)
			if err != nil {
				return val.Null, err
			}
			if !rv.IsNull() && rv.IsTrue() {
				return val.Bool(true), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return val.Null, nil
			}
			return val.Bool(false), nil
		}, nil
	case "+", "-", "*", "/":
		fn := map[string]func(val.Value, val.Value) val.Value{
			"+": val.Add, "-": val.Sub, "*": val.Mul, "/": val.Div,
		}[op]
		return func(rt *runtime, rows rowStack) (val.Value, error) {
			lv, err := l(rt, rows)
			if err != nil {
				return val.Null, err
			}
			rv, err := r(rt, rows)
			if err != nil {
				return val.Null, err
			}
			return fn(lv, rv), nil
		}, nil
	case "=", "<>", "<", "<=", ">", ">=":
		return func(rt *runtime, rows rowStack) (val.Value, error) {
			lv, err := l(rt, rows)
			if err != nil {
				return val.Null, err
			}
			rv, err := r(rt, rows)
			if err != nil {
				return val.Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return val.Null, nil
			}
			cmp := val.Compare(lv, rv)
			var ok bool
			switch op {
			case "=":
				ok = cmp == 0
			case "<>":
				ok = cmp != 0
			case "<":
				ok = cmp < 0
			case "<=":
				ok = cmp <= 0
			case ">":
				ok = cmp > 0
			case ">=":
				ok = cmp >= 0
			}
			return val.Bool(ok), nil
		}, nil
	default:
		return nil, fmt.Errorf("engine: unknown operator %q", op)
	}
}

// scalar function implementations; INSTR is deliberately "non-standard" —
// the vendor extension the paper's Native SQL reports exploit and Open
// SQL cannot express.
func (c *compiler) compileScalarFunc(e *sqlparse.FuncCall) (exprFn, error) {
	args := make([]exprFn, len(e.Args))
	for i, a := range e.Args {
		var err error
		if args[i], err = c.compile(a); err != nil {
			return nil, err
		}
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("engine: %s takes %d arguments, got %d", e.Name, n, len(args))
		}
		return nil
	}
	// unary and binary wrap a function of one or two arguments that is NULL
	// when an argument is: the arguments are evaluated into locals, not into
	// a slice made per call.
	unary := func(f func(v val.Value) val.Value) (exprFn, error) {
		if err := need(1); err != nil {
			return nil, err
		}
		a := args[0]
		return func(rt *runtime, rows rowStack) (val.Value, error) {
			v, err := a(rt, rows)
			if err != nil || v.IsNull() {
				return val.Null, err
			}
			return f(v), nil
		}, nil
	}
	binary := func(f func(a, b val.Value) val.Value) (exprFn, error) {
		if err := need(2); err != nil {
			return nil, err
		}
		a, b := args[0], args[1]
		return func(rt *runtime, rows rowStack) (val.Value, error) {
			av, err := a(rt, rows)
			if err != nil {
				return val.Null, err
			}
			bv, err := b(rt, rows)
			if err != nil || av.IsNull() || bv.IsNull() {
				return val.Null, err
			}
			return f(av, bv), nil
		}, nil
	}
	// datePart is YEAR and MONTH: computed from the day number for a DATE,
	// read at [lo:hi] of its written-out form (YYYY-MM-DD) for anything else.
	datePart := func(of func(time.Time) int, lo, hi int) (exprFn, error) {
		return unary(func(v val.Value) val.Value {
			if v.K == val.KDate {
				return val.Int(int64(of(time.Unix(v.I*86400, 0).UTC())))
			}
			s := v.AsStr()
			if len(s) < hi {
				return val.Null
			}
			return val.Int(int64(atoi(s[lo:hi])))
		})
	}
	switch e.Name {
	case "YEAR":
		return datePart(time.Time.Year, 0, 4)
	case "MONTH":
		return datePart(func(t time.Time) int { return int(t.Month()) }, 5, 7)
	case "SUBSTR", "SUBSTRING":
		if len(args) != 2 && len(args) != 3 {
			return nil, fmt.Errorf("engine: SUBSTR takes 2 or 3 arguments")
		}
		str, from := args[0], args[1]
		var count exprFn
		if len(args) == 3 {
			count = args[2]
		}
		return func(rt *runtime, rows rowStack) (val.Value, error) {
			sv, err := str(rt, rows)
			if err != nil {
				return val.Null, err
			}
			fv, err := from(rt, rows)
			if err != nil {
				return val.Null, err
			}
			var cv val.Value
			if count != nil {
				if cv, err = count(rt, rows); err != nil {
					return val.Null, err
				}
			}
			if sv.IsNull() {
				return val.Null, nil
			}
			s := sv.AsStr()
			start := int(fv.AsInt()) - 1
			if start < 0 {
				start = 0
			}
			if start > len(s) {
				start = len(s)
			}
			end := len(s)
			if count != nil {
				end = start + int(cv.AsInt())
				if end > len(s) {
					end = len(s)
				}
				if end < start {
					end = start
				}
			}
			return val.Str(s[start:end]), nil
		}, nil
	case "UPPER":
		return unary(func(v val.Value) val.Value { return val.Str(strings.ToUpper(v.AsStr())) })
	case "LOWER":
		return unary(func(v val.Value) val.Value { return val.Str(strings.ToLower(v.AsStr())) })
	case "LENGTH":
		return unary(func(v val.Value) val.Value { return val.Int(int64(len(v.AsStr()))) })
	case "ABS":
		return unary(func(v val.Value) val.Value {
			if v.K == val.KInt && v.I < 0 {
				return val.Int(-v.I)
			}
			if v.K == val.KFloat && v.F < 0 {
				return val.Float(-v.F)
			}
			return v
		})
	case "MOD":
		return binary(func(a, b val.Value) val.Value {
			if b.AsInt() == 0 {
				return val.Null
			}
			return val.Int(a.AsInt() % b.AsInt())
		})
	case "COALESCE":
		if len(args) == 0 {
			return nil, fmt.Errorf("engine: COALESCE needs arguments")
		}
		return func(rt *runtime, rows rowStack) (val.Value, error) {
			for _, a := range args {
				v, err := a(rt, rows)
				if err != nil {
					return val.Null, err
				}
				if !v.IsNull() {
					return v, nil
				}
			}
			return val.Null, nil
		}, nil
	case "INSTR": // vendor extension: position of substring, 0 if absent
		return binary(func(a, b val.Value) val.Value {
			return val.Int(int64(strings.Index(a.AsStr(), b.AsStr()) + 1))
		})
	default:
		return nil, fmt.Errorf("engine: unknown function %s", e.Name)
	}
}

func atoi(s string) int {
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			break
		}
		n = n*10 + int(s[i]-'0')
	}
	return n
}

func isAggregateName(name string) bool {
	switch name {
	case "SUM", "AVG", "COUNT", "MIN", "MAX":
		return true
	}
	return false
}
