package sqlparse

import (
	"strconv"
	"strings"
	"sync"

	"r3bench/internal/val"
)

// Parser is a reusable SQL front end. A Parser owns a slab arena that
// backs the ASTs it produces, a three-token lookahead window over the
// on-demand lexer, and an ident intern table. Reuse discipline:
//
//   - Parse resets the arena first, so the AST from the PREVIOUS Parse
//     call is invalidated unless Detach was called;
//   - Detach hands the arena chunks backing the most recent AST to the
//     garbage collector, making that AST permanently valid;
//   - the package-level Parse wrapper runs a pooled Parser and detaches
//     for you, from a second arena sized to the statement, which is the
//     right default for callers that retain ASTs (plan caches, views,
//     prepared statements).
//
// A Parser is not safe for concurrent use.
type Parser struct {
	src    string
	lpos   int // lexer cursor
	win    [3]token
	nwin   int
	lexErr *Error
	params int

	a        *arena // where nodes go: &warm, or &exact while the package-level Parse sizes an AST to keep
	warm     arena
	exact    arena
	intern   map[string]string
	upperBuf []byte

	scItems   scratch[SelectItem]
	scOrders  scratch[OrderItem]
	scRefs    scratch[TableRef]
	scExprs   scratch[Expr]
	scWhens   scratch[When]
	scStrs    scratch[string]
	scAssigns scratch[Assign]
	scRows    scratch[[]Expr]
	scColdefs scratch[ColDef]
}

// NewParser returns an empty Parser ready for Parse.
func NewParser() *Parser {
	p := &Parser{intern: make(map[string]string, 64)}
	p.a = &p.warm
	return p
}

// Reset reclaims the arena (invalidating previously returned ASTs that
// were not detached) and clears all parse state except the ident intern
// table.
func (p *Parser) Reset() {
	p.src = ""
	p.lpos = 0
	p.nwin = 0
	p.lexErr = nil
	p.params = 0
	p.a.reset()
	p.scItems.reset()
	p.scOrders.reset()
	p.scRefs.reset()
	p.scExprs.reset()
	p.scWhens.reset()
	p.scAssigns.reset()
	p.scRows.reset()
	p.scStrs.reset()
	p.scColdefs.reset()
}

// Detach releases ownership of the arena chunks backing the most recent
// AST so it survives future Parse/Reset calls on this Parser.
func (p *Parser) Detach() { p.a.detach() }

// Parse parses one SQL statement (an optional trailing semicolon is
// allowed) into the Parser's arena. The AST is valid until the next
// Parse or Reset unless Detach is called first.
func (p *Parser) Parse(src string) (Statement, error) {
	p.Reset()
	p.src = src
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(tkPunct, ";")
	if !p.at(tkEOF, "") {
		return nil, p.errf("trailing input after statement")
	}
	return stmt, nil
}

var parserPool = sync.Pool{New: func() any { return NewParser() }}

// Parse parses one SQL statement (an optional trailing semicolon is
// allowed). The AST is garbage-collector-owned and safe to retain
// indefinitely. Internally this borrows a pooled Parser and parses
// twice: once into its reusable arena, which allocates nothing and
// counts the nodes of each type, then into a second arena with one
// chunk per node type the statement uses, exactly that long, which it
// detaches. A retained AST so pins only its own nodes, at the cost of
// one allocation per node type.
func Parse(src string) (Statement, error) {
	p := parserPool.Get().(*Parser)
	defer parserPool.Put(p)
	if _, err := p.Parse(src); err != nil {
		return nil, err
	}
	p.exact.sizeLike(&p.warm)
	p.a = &p.exact
	stmt, err := p.Parse(src)
	p.Detach()
	p.a = &p.warm
	return stmt, err
}

// MustParse parses or panics; for statically-known query text.
func MustParse(src string) Statement {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}

// --- token window ---

func (p *Parser) ensure(k int) {
	for p.nwin < k {
		p.win[p.nwin] = p.scan()
		p.nwin++
	}
}

func (p *Parser) cur() token {
	p.ensure(1)
	return p.win[0]
}

func (p *Parser) peek() token {
	p.ensure(2)
	return p.win[1]
}

func (p *Parser) peek2() token {
	p.ensure(3)
	return p.win[2]
}

// advance consumes the current token. EOF and lex-error tokens are
// sticky so the parser can never run off the end.
func (p *Parser) advance() {
	p.ensure(1)
	if k := p.win[0].kind; k == tkEOF || k == tkErr {
		return
	}
	p.win[0] = p.win[1]
	p.win[1] = p.win[2]
	p.nwin--
}

func (p *Parser) at(kind tokKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

// atKw reports whether the current token is the given keyword.
func (p *Parser) atKw(kw string) bool { return p.at(tkKeyword, kw) }

func (p *Parser) accept(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) acceptKw(kw string) bool { return p.accept(tkKeyword, kw) }

func (p *Parser) expect(kind tokKind, text string) (token, error) {
	if !p.at(kind, text) {
		return token{}, p.errf("expected %q, found %q", text, p.cur().text)
	}
	t := p.cur()
	p.advance()
	return t, nil
}

func (p *Parser) expectKw(kw string) error {
	_, err := p.expect(tkKeyword, kw)
	return err
}

func (p *Parser) ident() (string, error) {
	if p.cur().kind != tkIdent {
		return "", p.errf("expected identifier, found %q", p.cur().text)
	}
	name := p.cur().text
	p.advance()
	return name, nil
}

// errf builds a positioned parse error. A sticky lex error takes
// precedence: the old front end lexed the whole input before parsing,
// so lex errors always won, and any failing parse that has looked at a
// bad byte must keep reporting it.
func (p *Parser) errf(format string, args ...any) error {
	if p.lexErr != nil {
		return p.lexErr
	}
	return parseErrorf(p.src, p.cur().pos, format, args...)
}

func (p *Parser) parseStatement() (Statement, error) {
	switch {
	case p.atKw("SELECT"):
		return p.parseSelect()
	case p.atKw("CREATE"):
		return p.parseCreate()
	case p.atKw("DROP"):
		return p.parseDrop()
	case p.atKw("INSERT"):
		return p.parseInsert()
	case p.atKw("UPDATE"):
		return p.parseUpdate()
	case p.atKw("DELETE"):
		return p.parseDelete()
	default:
		return nil, p.errf("expected a statement, found %q", p.cur().text)
	}
}

// --- SELECT ---

func (p *Parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	s := one(&p.a.selects, SelectStmt{Limit: -1})
	s.Distinct = p.acceptKw("DISTINCT")
	items := p.scItems.mark()
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		p.scItems.push(item)
		if !p.accept(tkPunct, ",") {
			break
		}
	}
	s.Select = p.scItems.take(items, &p.a.items)
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	refs := p.scRefs.mark()
	for {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		p.scRefs.push(ref)
		if !p.accept(tkPunct, ",") {
			break
		}
	}
	s.From = p.scRefs.take(refs, &p.a.refs)
	if p.acceptKw("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		group := p.scExprs.mark()
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			p.scExprs.push(e)
			if !p.accept(tkPunct, ",") {
				break
			}
		}
		s.GroupBy = p.scExprs.take(group, &p.a.exprs)
	}
	if p.acceptKw("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = h
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		order := p.scOrders.mark()
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKw("DESC") {
				item.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			p.scOrders.push(item)
			if !p.accept(tkPunct, ",") {
				break
			}
		}
		s.OrderBy = p.scOrders.take(order, &p.a.orders)
	}
	if p.acceptKw("LIMIT") {
		t, err := p.expect(tkNumber, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(t.text)
		if err != nil {
			return nil, p.errf("bad LIMIT %q", t.text)
		}
		s.Limit = n
	}
	return s, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	if p.accept(tkPunct, "*") {
		return SelectItem{Star: true}, nil
	}
	// t.* wildcard
	if p.cur().kind == tkIdent && p.peek().kind == tkPunct && p.peek().text == "." {
		if t2 := p.peek2(); t2.kind == tkPunct && t2.text == "*" {
			name := p.cur().text
			p.advance()
			p.advance()
			p.advance()
			return SelectItem{TableStar: name}, nil
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKw("AS") {
		a, err := p.ident()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if p.cur().kind == tkIdent {
		item.Alias = p.cur().text
		p.advance()
	}
	return item, nil
}

func (p *Parser) parseTableRef() (TableRef, error) {
	left, err := p.parseBaseTable()
	if err != nil {
		return nil, err
	}
	var ref TableRef = left
	for {
		kind := InnerJoin
		switch {
		case p.atKw("JOIN"):
			p.advance()
		case p.atKw("INNER"):
			p.advance()
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
		case p.atKw("LEFT"):
			p.advance()
			p.acceptKw("OUTER")
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
			kind = LeftOuterJoin
		default:
			return ref, nil
		}
		right, err := p.parseBaseTable()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ref = one(&p.a.joins, Join{Kind: kind, Left: ref, Right: right, On: on})
	}
}

func (p *Parser) parseBaseTable() (*BaseTable, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	bt := one(&p.a.base, BaseTable{Name: name, Alias: name})
	if p.acceptKw("AS") {
		a, err := p.ident()
		if err != nil {
			return nil, err
		}
		bt.Alias = a
	} else if p.cur().kind == tkIdent {
		bt.Alias = p.cur().text
		p.advance()
	}
	return bt, nil
}

// --- expressions ---

func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = one(&p.a.binaries, Binary{Op: "OR", L: l, R: r})
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = one(&p.a.binaries, Binary{Op: "AND", L: l, R: r})
	}
	return l, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.atKw("NOT") && !(p.peek().kind == tkKeyword && p.peek().text == "EXISTS") {
		p.advance()
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return one(&p.a.unaries, Unary{Op: "NOT", X: x}), nil
	}
	return p.parsePredicate()
}

func (p *Parser) parsePredicate() (Expr, error) {
	if p.atKw("EXISTS") || (p.atKw("NOT") && p.peek().text == "EXISTS") {
		not := p.acceptKw("NOT")
		if err := p.expectKw("EXISTS"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tkPunct, "("); err != nil {
			return nil, err
		}
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkPunct, ")"); err != nil {
			return nil, err
		}
		return one(&p.a.exists, Exists{Sub: sub, Not: not}), nil
	}
	x, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	not := false
	if p.atKw("NOT") && (p.peek().text == "BETWEEN" || p.peek().text == "IN" || p.peek().text == "LIKE") {
		p.advance()
		not = true
	}
	switch {
	case p.acceptKw("BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return one(&p.a.betweens, Between{X: x, Lo: lo, Hi: hi, Not: not}), nil
	case p.acceptKw("IN"):
		if _, err := p.expect(tkPunct, "("); err != nil {
			return nil, err
		}
		if p.atKw("SELECT") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tkPunct, ")"); err != nil {
				return nil, err
			}
			return one(&p.a.insubs, InSubquery{X: x, Sub: sub, Not: not}), nil
		}
		list := p.scExprs.mark()
		for {
			e, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			p.scExprs.push(e)
			if !p.accept(tkPunct, ",") {
				break
			}
		}
		if _, err := p.expect(tkPunct, ")"); err != nil {
			return nil, err
		}
		return one(&p.a.inlists, InList{X: x, List: p.scExprs.take(list, &p.a.exprs), Not: not}), nil
	case p.acceptKw("LIKE"):
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return one(&p.a.likes, Like{X: x, Pattern: pat, Not: not}), nil
	case p.acceptKw("IS"):
		isNot := p.acceptKw("NOT")
		if err := p.expectKw("NULL"); err != nil {
			return nil, err
		}
		return one(&p.a.isnulls, IsNull{X: x, Not: isNot}), nil
	}
	for _, op := range cmpOps {
		if p.accept(tkPunct, op) {
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return one(&p.a.binaries, Binary{Op: op, L: x, R: r}), nil
		}
	}
	return x, nil
}

// cmpOps is package-level so parsePredicate does not rebuild the slice
// per call (the old parser allocated it on every predicate).
var cmpOps = [...]string{"<=", ">=", "<>", "=", "<", ">"}

func (p *Parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(tkPunct, "+"):
			op = "+"
		case p.accept(tkPunct, "-"):
			op = "-"
		default:
			return l, nil
		}
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = one(&p.a.binaries, Binary{Op: op, L: l, R: r})
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(tkPunct, "*"):
			op = "*"
		case p.accept(tkPunct, "/"):
			op = "/"
		default:
			return l, nil
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = one(&p.a.binaries, Binary{Op: op, L: l, R: r})
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.accept(tkPunct, "-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return one(&p.a.unaries, Unary{Op: "-", X: x}), nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tkNumber:
		p.advance()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.text)
			}
			return one(&p.a.literals, Literal{Val: val.Float(f)}), nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return one(&p.a.literals, Literal{Val: val.Int(n)}), nil
	case tkString:
		p.advance()
		return one(&p.a.literals, Literal{Val: val.Str(t.text)}), nil
	case tkParam:
		p.advance()
		idx := p.params
		p.params++
		return one(&p.a.params, Param{Index: idx}), nil
	case tkKeyword:
		switch t.text {
		case "NULL":
			p.advance()
			return one(&p.a.literals, Literal{Val: val.Null}), nil
		case "DATE":
			p.advance()
			lit, err := p.expect(tkString, "")
			if err != nil {
				return nil, err
			}
			d, err := val.ParseDate(lit.text)
			if err != nil {
				return nil, p.errf("bad date literal %q", lit.text)
			}
			return one(&p.a.literals, Literal{Val: d}), nil
		case "CASE":
			return p.parseCase()
		}
		return nil, p.errf("unexpected keyword %q in expression", t.text)
	case tkPunct:
		if t.text == "(" {
			p.advance()
			if p.atKw("SELECT") {
				sub, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(tkPunct, ")"); err != nil {
					return nil, err
				}
				return one(&p.a.scalars, ScalarSubquery{Sub: sub}), nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tkPunct, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errf("unexpected %q in expression", t.text)
	case tkIdent:
		// function call?
		if p.peek().kind == tkPunct && p.peek().text == "(" {
			return p.parseFuncCall()
		}
		p.advance()
		if p.accept(tkPunct, ".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return one(&p.a.colrefs, ColumnRef{Table: t.text, Column: col}), nil
		}
		return one(&p.a.colrefs, ColumnRef{Column: t.text}), nil
	default:
		return nil, p.errf("unexpected token %q", t.text)
	}
}

func (p *Parser) parseFuncCall() (Expr, error) {
	name := p.cur().text
	p.advance() // ident
	p.advance() // "("
	fc := one(&p.a.funcs, FuncCall{Name: name})
	if p.accept(tkPunct, "*") {
		fc.Star = true
		if _, err := p.expect(tkPunct, ")"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	fc.Distinct = p.acceptKw("DISTINCT")
	if !p.at(tkPunct, ")") {
		args := p.scExprs.mark()
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			p.scExprs.push(a)
			if !p.accept(tkPunct, ",") {
				break
			}
		}
		fc.Args = p.scExprs.take(args, &p.a.exprs)
	}
	if _, err := p.expect(tkPunct, ")"); err != nil {
		return nil, err
	}
	return fc, nil
}

func (p *Parser) parseCase() (Expr, error) {
	if err := p.expectKw("CASE"); err != nil {
		return nil, err
	}
	c := one(&p.a.cases, CaseExpr{})
	whens := p.scWhens.mark()
	for p.acceptKw("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.scWhens.push(When{Cond: cond, Then: then})
	}
	c.Whens = p.scWhens.take(whens, &p.a.whens)
	if len(c.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN")
	}
	if p.acceptKw("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKw("END"); err != nil {
		return nil, err
	}
	return c, nil
}

// --- DDL / DML ---
//
// Statement shells below are plain heap allocations (one object each on
// a cold path); their expression trees and slices still come from the
// arena via the shared parse functions, so Detach covers them too.

func (p *Parser) parseCreate() (Statement, error) {
	p.advance() // CREATE
	unique := p.acceptKw("UNIQUE")
	switch {
	case p.acceptKw("TABLE"):
		if unique {
			return nil, p.errf("UNIQUE TABLE is not a thing")
		}
		return p.parseCreateTable()
	case p.acceptKw("INDEX"):
		return p.parseCreateIndex(unique)
	case p.acceptKw("VIEW"):
		if unique {
			return nil, p.errf("UNIQUE VIEW is not a thing")
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AS"); err != nil {
			return nil, err
		}
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &CreateView{Name: name, Query: q}, nil
	default:
		return nil, p.errf("expected TABLE, INDEX or VIEW after CREATE")
	}
}

func (p *Parser) parseColType() (val.ColType, error) {
	t := p.cur()
	if t.kind != tkKeyword {
		return val.ColType{}, p.errf("expected a type, found %q", t.text)
	}
	p.advance()
	switch t.text {
	case "INTEGER", "INT":
		return val.Int4, nil
	case "BIGINT":
		return val.Int8, nil
	case "DATE":
		return val.Date4, nil
	case "DECIMAL":
		if p.accept(tkPunct, "(") {
			if _, err := p.expect(tkNumber, ""); err != nil {
				return val.ColType{}, err
			}
			if p.accept(tkPunct, ",") {
				if _, err := p.expect(tkNumber, ""); err != nil {
					return val.ColType{}, err
				}
			}
			if _, err := p.expect(tkPunct, ")"); err != nil {
				return val.ColType{}, err
			}
		}
		return val.Dec8, nil
	case "CHAR", "VARCHAR":
		if _, err := p.expect(tkPunct, "("); err != nil {
			return val.ColType{}, err
		}
		n, err := p.expect(tkNumber, "")
		if err != nil {
			return val.ColType{}, err
		}
		w, err := strconv.Atoi(n.text)
		if err != nil || w < 1 {
			return val.ColType{}, p.errf("bad char width %q", n.text)
		}
		if _, err := p.expect(tkPunct, ")"); err != nil {
			return val.ColType{}, err
		}
		return val.Char(w), nil
	default:
		return val.ColType{}, p.errf("unknown type %q", t.text)
	}
}

func (p *Parser) parseCreateTable() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkPunct, "("); err != nil {
		return nil, err
	}
	ct := &CreateTable{Name: name}
	cols := p.scColdefs.mark()
	pk := p.scStrs.mark()
	for {
		if p.atKw("PRIMARY") {
			p.advance()
			if err := p.expectKw("KEY"); err != nil {
				return nil, err
			}
			if _, err := p.expect(tkPunct, "("); err != nil {
				return nil, err
			}
			for {
				c, err := p.ident()
				if err != nil {
					return nil, err
				}
				p.scStrs.push(c)
				if !p.accept(tkPunct, ",") {
					break
				}
			}
			if _, err := p.expect(tkPunct, ")"); err != nil {
				return nil, err
			}
		} else {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			typ, err := p.parseColType()
			if err != nil {
				return nil, err
			}
			def := ColDef{Name: col, Type: typ}
			if p.atKw("NOT") {
				p.advance()
				if err := p.expectKw("NULL"); err != nil {
					return nil, err
				}
				def.NotNull = true
			}
			if p.atKw("PRIMARY") {
				p.advance()
				if err := p.expectKw("KEY"); err != nil {
					return nil, err
				}
				p.scStrs.push(col)
			}
			p.scColdefs.push(def)
		}
		if !p.accept(tkPunct, ",") {
			break
		}
	}
	if _, err := p.expect(tkPunct, ")"); err != nil {
		return nil, err
	}
	ct.Cols = p.scColdefs.take(cols, &p.a.coldefs)
	ct.PrimaryKey = p.scStrs.take(pk, &p.a.strs)
	return ct, nil
}

func (p *Parser) parseCreateIndex(unique bool) (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("ON"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkPunct, "("); err != nil {
		return nil, err
	}
	ci := &CreateIndex{Name: name, Table: table, Unique: unique}
	cols := p.scStrs.mark()
	for {
		c, err := p.ident()
		if err != nil {
			return nil, err
		}
		p.scStrs.push(c)
		if !p.accept(tkPunct, ",") {
			break
		}
	}
	if _, err := p.expect(tkPunct, ")"); err != nil {
		return nil, err
	}
	ci.Cols = p.scStrs.take(cols, &p.a.strs)
	return ci, nil
}

func (p *Parser) parseDrop() (Statement, error) {
	p.advance() // DROP
	switch {
	case p.acceptKw("TABLE"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropTable{Name: name}, nil
	case p.acceptKw("INDEX"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropIndex{Name: name}, nil
	case p.acceptKw("VIEW"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropView{Name: name}, nil
	default:
		return nil, p.errf("expected TABLE, INDEX or VIEW after DROP")
	}
}

func (p *Parser) parseInsert() (Statement, error) {
	p.advance() // INSERT
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := one(&p.a.inserts, InsertStmt{Table: table})
	if p.accept(tkPunct, "(") {
		cols := p.scStrs.mark()
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			p.scStrs.push(c)
			if !p.accept(tkPunct, ",") {
				break
			}
		}
		if _, err := p.expect(tkPunct, ")"); err != nil {
			return nil, err
		}
		ins.Cols = p.scStrs.take(cols, &p.a.strs)
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	rows := p.scRows.mark()
	for {
		if _, err := p.expect(tkPunct, "("); err != nil {
			return nil, err
		}
		row := p.scExprs.mark()
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			p.scExprs.push(e)
			if !p.accept(tkPunct, ",") {
				break
			}
		}
		if _, err := p.expect(tkPunct, ")"); err != nil {
			return nil, err
		}
		p.scRows.push(p.scExprs.take(row, &p.a.exprs))
		if !p.accept(tkPunct, ",") {
			break
		}
	}
	ins.Rows = p.scRows.take(rows, &p.a.rows)
	return ins, nil
}

func (p *Parser) parseUpdate() (Statement, error) {
	p.advance() // UPDATE
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	u := one(&p.a.updates, UpdateStmt{Table: table})
	set := p.scAssigns.mark()
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkPunct, "="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.scAssigns.push(Assign{Column: col, Value: e})
		if !p.accept(tkPunct, ",") {
			break
		}
	}
	u.Set = p.scAssigns.take(set, &p.a.assigns)
	if p.acceptKw("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		u.Where = w
	}
	return u, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	p.advance() // DELETE
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	d := one(&p.a.deletes, DeleteStmt{Table: table})
	if p.acceptKw("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Where = w
	}
	return d, nil
}
