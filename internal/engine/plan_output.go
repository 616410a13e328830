package engine

import (
	"fmt"

	"r3bench/internal/sqlparse"
	"r3bench/internal/val"
)

// planOutput compiles the projection, aggregation, HAVING, DISTINCT and
// ORDER BY of a block.
func (p *selectPlan) planOutput(cc *compiler, s *sqlparse.SelectStmt) error {
	// Expand * and t.* into explicit column references.
	type item struct {
		expr sqlparse.Expr
		name string
	}
	var items []item
	for _, si := range s.Select {
		switch {
		case si.Star:
			for _, e := range p.layout {
				items = append(items, item{
					expr: &sqlparse.ColumnRef{Table: e.table, Column: e.column},
					name: e.column,
				})
			}
		case si.TableStar != "":
			found := false
			for _, e := range p.layout {
				if e.table == si.TableStar {
					items = append(items, item{
						expr: &sqlparse.ColumnRef{Table: e.table, Column: e.column},
						name: e.column,
					})
					found = true
				}
			}
			if !found {
				return fmt.Errorf("engine: unknown table %s in %s.*", si.TableStar, si.TableStar)
			}
		default:
			name := si.Alias
			if name == "" {
				if cr, ok := si.Expr.(*sqlparse.ColumnRef); ok {
					name = cr.Column
				} else {
					name = fmt.Sprintf("COL%d", len(items)+1)
				}
			}
			items = append(items, item{expr: si.Expr, name: name})
		}
	}

	// Resolve ORDER BY references to select aliases.
	orderExprs := make([]sqlparse.Expr, len(s.OrderBy))
	p.orderDesc = make([]bool, len(s.OrderBy))
	for i, oi := range s.OrderBy {
		orderExprs[i] = oi.Expr
		p.orderDesc[i] = oi.Desc
		if cr, ok := oi.Expr.(*sqlparse.ColumnRef); ok && cr.Table == "" {
			for _, it := range items {
				if it.name == cr.Column {
					orderExprs[i] = it.expr
					break
				}
			}
		}
	}

	hasAgg := len(s.GroupBy) > 0 || s.Having != nil
	if !hasAgg {
		for _, it := range items {
			if hasAggExpr(it.expr) {
				hasAgg = true
				break
			}
		}
	}
	if !hasAgg {
		for _, oe := range orderExprs {
			if hasAggExpr(oe) {
				hasAgg = true
				break
			}
		}
	}

	p.distinct = s.Distinct
	for _, it := range items {
		p.outCols = append(p.outCols, it.name)
	}

	if !hasAgg {
		for _, it := range items {
			fn, err := cc.compile(it.expr)
			if err != nil {
				return err
			}
			p.projections = append(p.projections, fn)
		}
		for _, oe := range orderExprs {
			fn, err := cc.compile(oe)
			if err != nil {
				return err
			}
			p.orderKeys = append(p.orderKeys, fn)
		}
		return nil
	}

	// Aggregated block: group expressions evaluate on the join row; all
	// post-aggregation expressions evaluate on the synthetic row
	// [groupValues..., aggregateValues...].
	ap := &aggPlan{}
	for _, ge := range s.GroupBy {
		fn, err := cc.compile(ge)
		if err != nil {
			return err
		}
		ap.groupFns = append(ap.groupFns, fn)
	}
	p.agg = ap

	post := &compiler{db: cc.db, sc: &scope{parent: cc.sc.parent}}
	post.hook = func(e sqlparse.Expr) (exprFn, bool, error) {
		for i, ge := range s.GroupBy {
			if exprEqual(e, ge) {
				return slotFn(i), true, nil
			}
		}
		if fc, ok := e.(*sqlparse.FuncCall); ok && isAggregateName(fc.Name) {
			idx, err := p.registerAgg(cc, fc)
			if err != nil {
				return nil, true, err
			}
			return slotFn(len(ap.groupFns) + idx), true, nil
		}
		return nil, false, nil
	}

	for _, it := range items {
		fn, err := post.compile(it.expr)
		if err != nil {
			return fmt.Errorf("engine: %w (non-aggregated column must appear in GROUP BY)", err)
		}
		p.projections = append(p.projections, fn)
	}
	if s.Having != nil {
		fn, err := post.compile(s.Having)
		if err != nil {
			return err
		}
		p.havingFn = fn
	}
	for _, oe := range orderExprs {
		fn, err := post.compile(oe)
		if err != nil {
			return err
		}
		p.orderKeys = append(p.orderKeys, fn)
	}
	// Correlation and parameters discovered by the post compiler belong
	// to the block too.
	if post.usedOuter {
		cc.usedOuter = true
	}
	if post.maxDepth > cc.maxDepth {
		cc.maxDepth = post.maxDepth
	}
	if post.maxParam > cc.maxParam {
		cc.maxParam = post.maxParam
	}
	cc.subqueries += post.subqueries
	return nil
}

// registerAgg deduplicates aggregate call sites and compiles the argument
// against the join row.
func (p *selectPlan) registerAgg(cc *compiler, fc *sqlparse.FuncCall) (int, error) {
	for i, spec := range p.agg.specs {
		if spec.fn == fc.Name && spec.distinct == fc.Distinct && exprEqual(spec.argAST, aggArgAST(fc)) {
			return i, nil
		}
	}
	spec := aggSpec{fn: fc.Name, distinct: fc.Distinct, argAST: aggArgAST(fc)}
	if fc.Star {
		if fc.Name != "COUNT" {
			return 0, fmt.Errorf("engine: %s(*) is not valid", fc.Name)
		}
	} else {
		if len(fc.Args) != 1 {
			return 0, fmt.Errorf("engine: %s takes exactly one argument", fc.Name)
		}
		fn, err := cc.compile(fc.Args[0])
		if err != nil {
			return 0, err
		}
		spec.arg = fn
	}
	p.agg.specs = append(p.agg.specs, spec)
	return len(p.agg.specs) - 1, nil
}

// aggArgAST returns the argument AST of an aggregate (nil for COUNT(*)).
func aggArgAST(fc *sqlparse.FuncCall) sqlparse.Expr {
	if fc.Star || len(fc.Args) == 0 {
		return nil
	}
	return fc.Args[0]
}

// hasAggExpr reports whether the expression contains an aggregate call
// of its own block: a subquery's aggregates are the subquery's.
func hasAggExpr(e sqlparse.Expr) bool {
	found := false
	sqlparse.Inspect(e, func(n sqlparse.Node) bool {
		if fc, ok := n.(*sqlparse.FuncCall); ok && isAggregateName(fc.Name) {
			found = true
		}
		_, sub := n.(*sqlparse.SelectStmt)
		return !found && !sub
	})
	return found
}

// exprEqual performs structural AST comparison (used to match GROUP BY
// expressions and deduplicate aggregates).
func exprEqual(a, b sqlparse.Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	switch a := a.(type) {
	case *sqlparse.ColumnRef:
		b, ok := b.(*sqlparse.ColumnRef)
		return ok && a.Table == b.Table && a.Column == b.Column
	case *sqlparse.Literal:
		b, ok := b.(*sqlparse.Literal)
		return ok && a.Val == b.Val
	case *sqlparse.Param:
		b, ok := b.(*sqlparse.Param)
		return ok && a.Index == b.Index
	case *sqlparse.Unary:
		b, ok := b.(*sqlparse.Unary)
		return ok && a.Op == b.Op && exprEqual(a.X, b.X)
	case *sqlparse.Binary:
		b, ok := b.(*sqlparse.Binary)
		return ok && a.Op == b.Op && exprEqual(a.L, b.L) && exprEqual(a.R, b.R)
	case *sqlparse.Between:
		b, ok := b.(*sqlparse.Between)
		return ok && a.Not == b.Not && exprEqual(a.X, b.X) && exprEqual(a.Lo, b.Lo) && exprEqual(a.Hi, b.Hi)
	case *sqlparse.InList:
		b, ok := b.(*sqlparse.InList)
		if !ok || a.Not != b.Not || !exprEqual(a.X, b.X) || len(a.List) != len(b.List) {
			return false
		}
		for i := range a.List {
			if !exprEqual(a.List[i], b.List[i]) {
				return false
			}
		}
		return true
	case *sqlparse.IsNull:
		b, ok := b.(*sqlparse.IsNull)
		return ok && a.Not == b.Not && exprEqual(a.X, b.X)
	case *sqlparse.Like:
		b, ok := b.(*sqlparse.Like)
		return ok && a.Not == b.Not && exprEqual(a.X, b.X) && exprEqual(a.Pattern, b.Pattern)
	case *sqlparse.FuncCall:
		b, ok := b.(*sqlparse.FuncCall)
		if !ok || a.Name != b.Name || a.Star != b.Star || a.Distinct != b.Distinct || len(a.Args) != len(b.Args) {
			return false
		}
		for i := range a.Args {
			if !exprEqual(a.Args[i], b.Args[i]) {
				return false
			}
		}
		return true
	case *sqlparse.CaseExpr:
		b, ok := b.(*sqlparse.CaseExpr)
		if !ok || len(a.Whens) != len(b.Whens) || !exprEqual(a.Else, b.Else) {
			return false
		}
		for i := range a.Whens {
			if !exprEqual(a.Whens[i].Cond, b.Whens[i].Cond) || !exprEqual(a.Whens[i].Then, b.Whens[i].Then) {
				return false
			}
		}
		return true
	default:
		// Subqueries and anything else compare unequal (never safe to
		// unify).
		return false
	}
}

// coerceToType adjusts a value to a column's declared type on write.
func coerceToType(v val.Value, ct val.ColType) val.Value {
	if v.IsNull() {
		return v
	}
	switch ct.Kind {
	case val.KInt:
		if v.K != val.KInt {
			return val.Int(v.AsInt())
		}
	case val.KFloat:
		if v.K != val.KFloat {
			return val.Float(v.AsFloat())
		}
	case val.KDate:
		if v.K != val.KDate {
			if v.K == val.KStr {
				if d, err := val.ParseDate(v.S); err == nil {
					return d
				}
			}
			return val.Date(v.AsInt())
		}
	case val.KStr:
		if v.K != val.KStr {
			return val.Str(v.AsStr())
		}
	}
	return v
}
