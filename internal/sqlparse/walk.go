package sqlparse

// Node is what Inspect visits: a Statement, a TableRef or an Expr.
type Node interface{}

// Inspect traverses the tree rooted at n in depth-first order, in the
// manner of go/ast.Inspect: it calls f(n) and, if that returns true,
// inspects each non-nil child of n in source order. A subquery is a child
// *SelectStmt, so returning false for *SelectStmt keeps a walk inside one
// query block. Apart from the parser, Inspect is the one piece of code
// that knows which children each node has.
func Inspect(n Node, f func(Node) bool) {
	if n == nil || !f(n) {
		return
	}
	switch n := n.(type) {
	case *SelectStmt:
		for _, it := range n.Select {
			Inspect(it.Expr, f)
		}
		for _, r := range n.From {
			Inspect(r, f)
		}
		Inspect(n.Where, f)
		inspectList(n.GroupBy, f)
		Inspect(n.Having, f)
		for _, o := range n.OrderBy {
			Inspect(o.Expr, f)
		}
	case *Join:
		Inspect(n.Left, f)
		Inspect(n.Right, f)
		Inspect(n.On, f)
	case *CreateView:
		Inspect(n.Query, f)
	case *InsertStmt:
		for _, row := range n.Rows {
			inspectList(row, f)
		}
	case *UpdateStmt:
		for _, a := range n.Set {
			Inspect(a.Value, f)
		}
		Inspect(n.Where, f)
	case *DeleteStmt:
		Inspect(n.Where, f)
	case *Unary:
		Inspect(n.X, f)
	case *Binary:
		Inspect(n.L, f)
		Inspect(n.R, f)
	case *Between:
		Inspect(n.X, f)
		Inspect(n.Lo, f)
		Inspect(n.Hi, f)
	case *InList:
		Inspect(n.X, f)
		inspectList(n.List, f)
	case *InSubquery:
		Inspect(n.X, f)
		Inspect(n.Sub, f)
	case *Exists:
		Inspect(n.Sub, f)
	case *ScalarSubquery:
		Inspect(n.Sub, f)
	case *IsNull:
		Inspect(n.X, f)
	case *Like:
		Inspect(n.X, f)
		Inspect(n.Pattern, f)
	case *FuncCall:
		inspectList(n.Args, f)
	case *CaseExpr:
		for _, w := range n.Whens {
			Inspect(w.Cond, f)
			Inspect(w.Then, f)
		}
		Inspect(n.Else, f)
	}
}

func inspectList(list []Expr, f func(Node) bool) {
	for _, e := range list {
		Inspect(e, f)
	}
}
