package warehouse

import (
	"strings"

	"r3bench/internal/engine"
	"r3bench/internal/sqlparse"
)

// Query rewrite against the materialized aggregates. The matcher is
// deliberately conservative: a single-block GROUP BY over LINEITEM_F
// whose grouping expressions, selected measures, predicates and order
// keys all live inside one aggregate's dimension/measure vocabulary is
// redirected to that aggregate table; anything else is left alone and
// runs against the fact table. The rewritten statement re-aggregates
// the stored partial sums (SUM over SUM_*, COUNT(*) over SUM(CNT)),
// which the engine's exact summation keeps byte-identical to the
// base-table answer.
//
// Matching rules (DESIGN.md §15):
//   - FROM is exactly LINEITEM_F; no DISTINCT, HAVING, LIMIT, joins or
//     subqueries.
//   - Every GROUP BY expression maps to an aggregate dimension column
//     (L_RETURNFLAG, L_LINESTATUS, YEAR(L_SHIPDATE), MONTH(L_SHIPDATE),
//     L_NATIONKEY, depending on the aggregate).
//   - Every select item is a grouped dimension or one of SUM(L_QUANTITY),
//     SUM(L_EXTENDEDPRICE), SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT)),
//     COUNT(*).
//   - WHERE is a conjunction of =/<>/</<=/>/>= comparisons, BETWEEN or
//     IN over dimension expressions with literal (or parameter)
//     operands — predicates a dimension column can answer exactly,
//     because every aggregate group lies wholly inside or outside.
//   - ORDER BY keys are dimension expressions (or select aliases).
//
// Aggregates are tried smallest-first, so a query both could answer
// (e.g. GROUP BY YEAR(L_SHIPDATE) alone) reads the fewest pages.

// aggSpec describes one materialized aggregate's vocabulary.
type aggSpec struct {
	table    string
	key      []string          // the canonical dimension exprs, in the table's primary-key order
	dims     map[string]string // canonical dimension expr -> aggregate column
	measures map[string]string // canonical SUM argument -> aggregate measure column
	countCol string            // column answering COUNT(*)
}

var factMeasures = map[string]string{
	"col:L_QUANTITY":      "SUM_QTY",
	"col:L_EXTENDEDPRICE": "SUM_EXTPRICE",
	"revenue":             "SUM_REVENUE",
}

// aggSpecs in matching order: AGG_NATION_YEAR is the smaller table, so
// it wins ties.
var aggSpecs = []aggSpec{
	{
		table: "AGG_NATION_YEAR",
		key:   []string{"col:L_NATIONKEY", "year:L_SHIPDATE"},
		dims: map[string]string{
			"col:L_NATIONKEY": "NATIONKEY",
			"year:L_SHIPDATE": "SHIPYEAR",
		},
		measures: factMeasures,
		countCol: "CNT",
	},
	{
		table: "AGG_RFLS_MONTH",
		key:   []string{"col:L_RETURNFLAG", "col:L_LINESTATUS", "year:L_SHIPDATE", "month:L_SHIPDATE"},
		dims: map[string]string{
			"col:L_RETURNFLAG": "RF",
			"col:L_LINESTATUS": "LS",
			"year:L_SHIPDATE":  "SHIPYEAR",
			"month:L_SHIPDATE": "SHIPMONTH",
		},
		measures: factMeasures,
		countCol: "CNT",
	},
}

// AggregateRewriter returns the planner hook that redirects matching
// fact-table GROUP BY queries to the materialized aggregates.
func AggregateRewriter() engine.RewriteHook {
	return func(sel *sqlparse.SelectStmt) *sqlparse.SelectStmt {
		for i := range aggSpecs {
			if out := aggSpecs[i].rewrite(sel); out != nil {
				return out
			}
		}
		return nil
	}
}

// canonKey canonicalizes the expressions the aggregate vocabulary
// speaks: bare columns, YEAR/MONTH of a column, and the revenue product
// L_EXTENDEDPRICE * (1 - L_DISCOUNT).
func canonKey(e sqlparse.Expr) (string, bool) {
	switch x := e.(type) {
	case *sqlparse.ColumnRef:
		return "col:" + x.Column, true
	case *sqlparse.FuncCall:
		if (x.Name == "YEAR" || x.Name == "MONTH") && !x.Star && !x.Distinct && len(x.Args) == 1 {
			if cr, ok := x.Args[0].(*sqlparse.ColumnRef); ok {
				return strings.ToLower(x.Name) + ":" + cr.Column, true
			}
		}
	case *sqlparse.Binary:
		if x.Op == "*" {
			l, lok := x.L.(*sqlparse.ColumnRef)
			r, rok := x.R.(*sqlparse.Binary)
			if lok && rok && l.Column == "L_EXTENDEDPRICE" && r.Op == "-" {
				lit, litok := r.L.(*sqlparse.Literal)
				rc, rcok := r.R.(*sqlparse.ColumnRef)
				if litok && rcok && lit.Val.AsFloat() == 1 && rc.Column == "L_DISCOUNT" {
					return "revenue", true
				}
			}
		}
	}
	return "", false
}

// dimRef maps a dimension expression to a fresh column reference on the
// aggregate table.
func (a *aggSpec) dimRef(e sqlparse.Expr) (sqlparse.Expr, bool) {
	k, ok := canonKey(e)
	if !ok {
		return nil, false
	}
	col, ok := a.dims[k]
	if !ok {
		return nil, false
	}
	return &sqlparse.ColumnRef{Column: col}, true
}

// constOperand reports whether an expression is usable as a predicate
// operand against a preserved dimension column: literals and positional
// parameters only.
func constOperand(e sqlparse.Expr) bool {
	switch e.(type) {
	case *sqlparse.Literal, *sqlparse.Param:
		return true
	}
	return false
}

func comparisonOp(op string) bool {
	switch op {
	case "=", "<>", "<", "<=", ">", ">=":
		return true
	}
	return false
}

// rewrite attempts to redirect sel onto this aggregate, returning the
// fresh replacement AST or nil. It never mutates sel: the input AST may
// be shared by the statement-fingerprint cache.
func (a *aggSpec) rewrite(sel *sqlparse.SelectStmt) *sqlparse.SelectStmt {
	if sel.Distinct || sel.Having != nil || sel.Limit >= 0 || len(sel.GroupBy) == 0 {
		return nil
	}
	if len(sel.From) != 1 {
		return nil
	}
	bt, ok := sel.From[0].(*sqlparse.BaseTable)
	if !ok || bt.Name != "LINEITEM_F" {
		return nil
	}

	out := &sqlparse.SelectStmt{Limit: -1}
	out.From = []sqlparse.TableRef{&sqlparse.BaseTable{Name: a.table, Alias: a.table}}

	for _, ge := range sel.GroupBy {
		mapped, ok := a.dimRef(ge)
		if !ok {
			return nil
		}
		out.GroupBy = append(out.GroupBy, mapped)
	}

	aliases := make(map[string]bool)
	for _, it := range sel.Select {
		if it.Star || it.TableStar != "" {
			return nil
		}
		mapped, ok := a.mapSelectExpr(it.Expr)
		if !ok {
			return nil
		}
		out.Select = append(out.Select, sqlparse.SelectItem{Expr: mapped, Alias: it.Alias})
		if it.Alias != "" {
			aliases[it.Alias] = true
		}
	}

	where, ok := a.mapPredicate(sel.Where)
	if !ok {
		return nil
	}
	out.Where = where

	for _, oi := range sel.OrderBy {
		if mapped, ok := a.dimRef(oi.Expr); ok {
			out.OrderBy = append(out.OrderBy, sqlparse.OrderItem{Expr: mapped, Desc: oi.Desc})
			continue
		}
		// A bare unqualified column naming a select alias resolves to
		// that output column in both shapes; keep it verbatim.
		if cr, isCol := oi.Expr.(*sqlparse.ColumnRef); isCol && cr.Table == "" && aliases[cr.Column] {
			out.OrderBy = append(out.OrderBy, sqlparse.OrderItem{Expr: &sqlparse.ColumnRef{Column: cr.Column}, Desc: oi.Desc})
			continue
		}
		return nil
	}
	return out
}

// mapSelectExpr maps one select item: a grouped dimension expression or
// a supported aggregate call.
func (a *aggSpec) mapSelectExpr(e sqlparse.Expr) (sqlparse.Expr, bool) {
	if mapped, ok := a.dimRef(e); ok {
		return mapped, true
	}
	fc, ok := e.(*sqlparse.FuncCall)
	if !ok || fc.Distinct {
		return nil, false
	}
	switch fc.Name {
	case "COUNT":
		if fc.Star {
			return &sqlparse.FuncCall{Name: "SUM", Args: []sqlparse.Expr{&sqlparse.ColumnRef{Column: a.countCol}}}, true
		}
	case "SUM":
		if len(fc.Args) == 1 && !fc.Star {
			k, ok := canonKey(fc.Args[0])
			if !ok {
				return nil, false
			}
			col, ok := a.measures[k]
			if !ok {
				return nil, false
			}
			return &sqlparse.FuncCall{Name: "SUM", Args: []sqlparse.Expr{&sqlparse.ColumnRef{Column: col}}}, true
		}
	}
	return nil, false
}

// mapPredicate maps a WHERE tree of AND-ed dimension restrictions.
// Because every predicate is over a preserved dimension column, each
// aggregate group lies wholly inside or outside the restriction —
// filtering the aggregate rows is exact.
func (a *aggSpec) mapPredicate(e sqlparse.Expr) (sqlparse.Expr, bool) {
	if e == nil {
		return nil, true
	}
	switch x := e.(type) {
	case *sqlparse.Binary:
		if x.Op == "AND" {
			l, ok := a.mapPredicate(x.L)
			if !ok {
				return nil, false
			}
			r, ok := a.mapPredicate(x.R)
			if !ok {
				return nil, false
			}
			return &sqlparse.Binary{Op: "AND", L: l, R: r}, true
		}
		if !comparisonOp(x.Op) {
			return nil, false
		}
		if dim, ok := a.dimRef(x.L); ok && constOperand(x.R) {
			return &sqlparse.Binary{Op: x.Op, L: dim, R: x.R}, true
		}
		if dim, ok := a.dimRef(x.R); ok && constOperand(x.L) {
			return &sqlparse.Binary{Op: x.Op, L: x.L, R: dim}, true
		}
		return nil, false
	case *sqlparse.Between:
		dim, ok := a.dimRef(x.X)
		if !ok || !constOperand(x.Lo) || !constOperand(x.Hi) {
			return nil, false
		}
		return &sqlparse.Between{X: dim, Lo: x.Lo, Hi: x.Hi, Not: x.Not}, true
	case *sqlparse.InList:
		dim, ok := a.dimRef(x.X)
		if !ok {
			return nil, false
		}
		for _, item := range x.List {
			if !constOperand(item) {
				return nil, false
			}
		}
		return &sqlparse.InList{X: dim, List: x.List, Not: x.Not}, true
	}
	return nil, false
}
