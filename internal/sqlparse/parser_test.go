package sqlparse

import (
	"runtime"
	"strings"
	"testing"

	"r3bench/internal/race"
	"r3bench/internal/val"
)

func parseSelect(t *testing.T, src string) *SelectStmt {
	t.Helper()
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	sel, ok := s.(*SelectStmt)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want *SelectStmt", src, s)
	}
	return sel
}

func TestSimpleSelect(t *testing.T) {
	s := parseSelect(t, "SELECT a, b FROM t WHERE a = 1")
	if len(s.Select) != 2 || len(s.From) != 1 || s.Where == nil {
		t.Fatalf("shape wrong: %+v", s)
	}
	bt := s.From[0].(*BaseTable)
	if bt.Name != "T" || bt.Alias != "T" {
		t.Errorf("table = %+v", bt)
	}
	cmp := s.Where.(*Binary)
	if cmp.Op != "=" {
		t.Errorf("where op = %q", cmp.Op)
	}
	if c := cmp.L.(*ColumnRef); c.Column != "A" {
		t.Errorf("where lhs = %+v", c)
	}
}

func TestCaseInsensitivityAndAliases(t *testing.T) {
	s := parseSelect(t, "select X.col aliased from MyTable as x")
	if s.Select[0].Alias != "ALIASED" {
		t.Errorf("alias = %q", s.Select[0].Alias)
	}
	c := s.Select[0].Expr.(*ColumnRef)
	if c.Table != "X" || c.Column != "COL" {
		t.Errorf("column = %+v", c)
	}
	bt := s.From[0].(*BaseTable)
	if bt.Name != "MYTABLE" || bt.Alias != "X" {
		t.Errorf("table = %+v", bt)
	}
}

func TestStarVariants(t *testing.T) {
	s := parseSelect(t, "SELECT *, t.* FROM t")
	if !s.Select[0].Star || s.Select[1].TableStar != "T" {
		t.Errorf("stars = %+v", s.Select)
	}
}

func TestExpressionPrecedence(t *testing.T) {
	s := parseSelect(t, "SELECT a + b * c - d FROM t")
	// ((a + (b*c)) - d)
	top := s.Select[0].Expr.(*Binary)
	if top.Op != "-" {
		t.Fatalf("top op = %q", top.Op)
	}
	add := top.L.(*Binary)
	if add.Op != "+" {
		t.Fatalf("left op = %q", add.Op)
	}
	mul := add.R.(*Binary)
	if mul.Op != "*" {
		t.Fatalf("inner op = %q", mul.Op)
	}
}

func TestBooleanPrecedence(t *testing.T) {
	s := parseSelect(t, "SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3")
	or := s.Where.(*Binary)
	if or.Op != "OR" {
		t.Fatalf("top = %q, want OR (AND binds tighter)", or.Op)
	}
	and := or.R.(*Binary)
	if and.Op != "AND" {
		t.Fatalf("rhs = %q", and.Op)
	}
}

func TestLiterals(t *testing.T) {
	s := parseSelect(t, "SELECT 42, 3.14, 'it''s', DATE '1995-03-15', NULL FROM t")
	vals := make([]val.Value, 5)
	for i := range vals {
		vals[i] = s.Select[i].Expr.(*Literal).Val
	}
	if vals[0] != val.Int(42) || vals[1] != val.Float(3.14) {
		t.Errorf("numbers = %v %v", vals[0], vals[1])
	}
	if vals[2].AsStr() != "it's" {
		t.Errorf("string = %q (quote escaping)", vals[2].AsStr())
	}
	if vals[3].K != val.KDate || vals[3].AsStr() != "1995-03-15" {
		t.Errorf("date = %v", vals[3])
	}
	if !vals[4].IsNull() {
		t.Errorf("null = %v", vals[4])
	}
}

func TestPredicates(t *testing.T) {
	s := parseSelect(t, `SELECT a FROM t WHERE a BETWEEN 1 AND 10
		AND b NOT IN (1, 2, 3) AND c LIKE 'x%' AND d IS NOT NULL`)
	and1 := s.Where.(*Binary)
	// Left-assoc AND chain: (((between AND in) AND like) AND isnull)
	isn := and1.R.(*IsNull)
	if !isn.Not {
		t.Error("IS NOT NULL lost its NOT")
	}
	and2 := and1.L.(*Binary)
	like := and2.R.(*Like)
	if like.Pattern.(*Literal).Val.AsStr() != "x%" {
		t.Error("LIKE pattern wrong")
	}
	and3 := and2.L.(*Binary)
	in := and3.R.(*InList)
	if !in.Not || len(in.List) != 3 {
		t.Errorf("IN = %+v", in)
	}
	btw := and3.L.(*Between)
	if btw.Not {
		t.Error("BETWEEN must not be negated")
	}
}

func TestSubqueries(t *testing.T) {
	s := parseSelect(t, `SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.x = t.a)
		AND b IN (SELECT y FROM v) AND c = (SELECT MAX(z) FROM w)`)
	and1 := s.Where.(*Binary)
	scalar := and1.R.(*Binary).R.(*ScalarSubquery)
	if scalar.Sub == nil {
		t.Fatal("scalar subquery missing")
	}
	and2 := and1.L.(*Binary)
	if _, ok := and2.R.(*InSubquery); !ok {
		t.Fatalf("IN subquery = %T", and2.R)
	}
	if ex, ok := and2.L.(*Exists); !ok || ex.Not {
		t.Fatalf("EXISTS = %+v", and2.L)
	}
}

func TestNotExists(t *testing.T) {
	s := parseSelect(t, "SELECT a FROM t WHERE NOT EXISTS (SELECT 1 FROM u)")
	ex, ok := s.Where.(*Exists)
	if !ok || !ex.Not {
		t.Fatalf("NOT EXISTS parsed as %T %+v", s.Where, s.Where)
	}
}

func TestAggregatesAndCase(t *testing.T) {
	s := parseSelect(t, `SELECT l_returnflag, SUM(l_extendedprice * (1 - l_discount)),
		COUNT(*), COUNT(DISTINCT l_suppkey), AVG(l_quantity),
		SUM(CASE WHEN l_tax > 0 THEN 1 ELSE 0 END)
		FROM lineitem GROUP BY l_returnflag HAVING COUNT(*) > 10
		ORDER BY l_returnflag DESC LIMIT 5`)
	if !s.Select[2].Expr.(*FuncCall).Star {
		t.Error("COUNT(*) star lost")
	}
	if !s.Select[3].Expr.(*FuncCall).Distinct {
		t.Error("COUNT(DISTINCT) lost")
	}
	sum := s.Select[5].Expr.(*FuncCall)
	cs := sum.Args[0].(*CaseExpr)
	if len(cs.Whens) != 1 || cs.Else == nil {
		t.Errorf("CASE = %+v", cs)
	}
	if s.Having == nil || len(s.GroupBy) != 1 {
		t.Error("HAVING/GROUP BY lost")
	}
	if !s.OrderBy[0].Desc || s.Limit != 5 {
		t.Errorf("ORDER/LIMIT = %+v %d", s.OrderBy, s.Limit)
	}
}

func TestJoinSyntax(t *testing.T) {
	s := parseSelect(t, `SELECT * FROM a JOIN b ON a.x = b.x
		LEFT OUTER JOIN c ON b.y = c.y`)
	outer := s.From[0].(*Join)
	if outer.Kind != LeftOuterJoin {
		t.Fatalf("outer kind = %v", outer.Kind)
	}
	inner := outer.Left.(*Join)
	if inner.Kind != InnerJoin {
		t.Fatalf("inner kind = %v", inner.Kind)
	}
	if inner.Left.(*BaseTable).Name != "A" || inner.Right.(*BaseTable).Name != "B" {
		t.Error("join operands wrong")
	}
}

func TestCommaJoins(t *testing.T) {
	s := parseSelect(t, "SELECT * FROM a, b x, c AS y WHERE a.k = x.k")
	if len(s.From) != 3 {
		t.Fatalf("from = %d items", len(s.From))
	}
	if s.From[1].(*BaseTable).Alias != "X" || s.From[2].(*BaseTable).Alias != "Y" {
		t.Error("aliases wrong")
	}
}

func TestParams(t *testing.T) {
	s := parseSelect(t, "SELECT a FROM t WHERE x = ? AND y < ?")
	and := s.Where.(*Binary)
	p0 := and.L.(*Binary).R.(*Param)
	p1 := and.R.(*Binary).R.(*Param)
	if p0.Index != 0 || p1.Index != 1 {
		t.Errorf("param indexes = %d %d", p0.Index, p1.Index)
	}
}

func TestCreateTable(t *testing.T) {
	s, err := Parse(`CREATE TABLE orders (
		o_orderkey INTEGER PRIMARY KEY,
		o_custkey INTEGER NOT NULL,
		o_totalprice DECIMAL(15,2),
		o_orderdate DATE,
		o_comment VARCHAR(79))`)
	if err != nil {
		t.Fatal(err)
	}
	ct := s.(*CreateTable)
	if ct.Name != "ORDERS" || len(ct.Cols) != 5 {
		t.Fatalf("shape = %+v", ct)
	}
	if len(ct.PrimaryKey) != 1 || ct.PrimaryKey[0] != "O_ORDERKEY" {
		t.Errorf("pk = %v", ct.PrimaryKey)
	}
	if !ct.Cols[1].NotNull {
		t.Error("NOT NULL lost")
	}
	if ct.Cols[4].Type != val.Char(79) {
		t.Errorf("varchar type = %+v", ct.Cols[4].Type)
	}
	if ct.Cols[2].Type != val.Dec8 {
		t.Errorf("decimal type = %+v", ct.Cols[2].Type)
	}
}

func TestCompositePrimaryKey(t *testing.T) {
	s, err := Parse("CREATE TABLE t (a INTEGER, b CHAR(4), PRIMARY KEY (a, b))")
	if err != nil {
		t.Fatal(err)
	}
	ct := s.(*CreateTable)
	if len(ct.PrimaryKey) != 2 {
		t.Fatalf("pk = %v", ct.PrimaryKey)
	}
}

func TestCreateDropIndexAndView(t *testing.T) {
	s, err := Parse("CREATE UNIQUE INDEX i_pk ON t (a, b)")
	if err != nil {
		t.Fatal(err)
	}
	ci := s.(*CreateIndex)
	if !ci.Unique || ci.Table != "T" || len(ci.Cols) != 2 {
		t.Errorf("index = %+v", ci)
	}
	if s, err = Parse("DROP INDEX i_pk"); err != nil {
		t.Fatal(err)
	} else if s.(*DropIndex).Name != "I_PK" {
		t.Error("drop index name wrong")
	}
	if s, err = Parse("CREATE VIEW v AS SELECT a FROM t"); err != nil {
		t.Fatal(err)
	} else if s.(*CreateView).Query == nil {
		t.Error("view query missing")
	}
	if s, err = Parse("DROP VIEW v"); err != nil {
		t.Fatal(err)
	} else if s.(*DropView).Name != "V" {
		t.Error("drop view name wrong")
	}
	if s, err = Parse("DROP TABLE t"); err != nil {
		t.Fatal(err)
	} else if s.(*DropTable).Name != "T" {
		t.Error("drop table name wrong")
	}
}

func TestInsertUpdateDelete(t *testing.T) {
	s, err := Parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
	if err != nil {
		t.Fatal(err)
	}
	ins := s.(*InsertStmt)
	if len(ins.Rows) != 2 || len(ins.Cols) != 2 {
		t.Fatalf("insert = %+v", ins)
	}
	s, err = Parse("UPDATE t SET a = a + 1, b = 'z' WHERE a < 10")
	if err != nil {
		t.Fatal(err)
	}
	up := s.(*UpdateStmt)
	if len(up.Set) != 2 || up.Where == nil {
		t.Fatalf("update = %+v", up)
	}
	s, err = Parse("DELETE FROM t WHERE a = ?")
	if err != nil {
		t.Fatal(err)
	}
	del := s.(*DeleteStmt)
	if del.Table != "T" || del.Where == nil {
		t.Fatalf("delete = %+v", del)
	}
}

func TestComments(t *testing.T) {
	s := parseSelect(t, "SELECT a -- trailing comment\nFROM t -- another\n")
	if len(s.Select) != 1 {
		t.Error("comment handling broke the parse")
	}
}

func TestErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a t FROM t EXTRA garbage",
		"CREATE SOMETHING t",
		"SELECT a FROM t WHERE x = 'unterminated",
		"SELECT a FROM t WHERE x @ 1",
		"INSERT INTO t VALUES",
		"CREATE TABLE t (a FLOAT)",
		"SELECT CASE END FROM t",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestErrorPositions(t *testing.T) {
	_, err := Parse("SELECT a\nFROM t\nWHERE x ^^ 1")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error should carry line info: %v", err)
	}
}

func TestDeepNesting(t *testing.T) {
	// TPC-D Q2-style nesting: scalar subquery inside WHERE of outer join
	// query.
	q := `SELECT s_acctbal, s_name, n_name, p_partkey
	FROM part, supplier, partsupp, nation, region
	WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey
	  AND p_size = 15 AND p_type LIKE '%BRASS'
	  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
	  AND r_name = 'EUROPE'
	  AND ps_supplycost = (
		SELECT MIN(ps_supplycost) FROM partsupp, supplier, nation, region
		WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey
		  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
		  AND r_name = 'EUROPE')
	ORDER BY s_acctbal DESC, n_name, s_name, p_partkey LIMIT 100`
	s := parseSelect(t, q)
	if len(s.From) != 5 || len(s.OrderBy) != 4 || s.Limit != 100 {
		t.Fatalf("Q2 shape wrong: from=%d order=%d limit=%d", len(s.From), len(s.OrderBy), s.Limit)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse must panic on bad SQL")
		}
	}()
	MustParse("NOT SQL AT ALL")
}

// TestDetachedParseBytes is the byte budget of a detaching Parse of the
// ad hoc literal point read: the AST it keeps is sized to the nodes it
// uses (384 B measured), not a 16-element chunk per node type (6 592 B).
func TestDetachedParseBytes(t *testing.T) {
	const src = "SELECT * FROM orders WHERE o_orderkey = 123456"
	const n, budget = 200, 768
	var before, after runtime.MemStats
	MustParse(src)
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		MustParse(src)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; !race.Enabled && per > budget {
		t.Errorf("Parse of %q allocates %d B, budget %d", src, per, budget)
	}
}
