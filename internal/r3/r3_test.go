package r3

import (
	"slices"
	"strings"
	"testing"

	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/val"
)

const testSF = 0.002

func installedSys(t *testing.T, rel Release) (*System, *dbgen.Generator) {
	t.Helper()
	sys, err := Install(Config{Release: rel})
	if err != nil {
		t.Fatal(err)
	}
	g := dbgen.New(testSF)
	if err := sys.LoadDirect(g); err != nil {
		t.Fatal(err)
	}
	return sys, g
}

func TestInstallSchema(t *testing.T) {
	sys, err := Install(Config{Release: Release22})
	if err != nil {
		t.Fatal(err)
	}
	tables := sys.Tables()
	if len(tables) != 17 {
		t.Fatalf("dictionary has %d tables, want 17", len(tables))
	}
	if !slices.IsSortedFunc(tables, func(a, b *LogicalTable) int { return strings.Compare(a.Name, b.Name) }) {
		t.Error("Tables is not sorted by name")
	}
	if !sys.Encapsulated("A004") || !sys.Encapsulated("KONV") {
		t.Error("A004 and KONV must be encapsulated by default")
	}
	if sys.Encapsulated("VBAP") {
		t.Error("VBAP must be transparent")
	}
	if sys.Version() != Release22 {
		t.Error("version wrong")
	}
}

func TestLoadDirectCounts(t *testing.T) {
	sys, g := installedSys(t, Release22)
	if n := sys.RowCount("VBAK"); n != int64(g.NumOrders()) {
		t.Errorf("VBAK rows = %d, want %d", n, g.NumOrders())
	}
	if n := sys.RowCount("MARA"); n != int64(g.NumParts()) {
		t.Errorf("MARA rows = %d, want %d", n, g.NumParts())
	}
	if n := sys.RowCount("AUSP"); n != int64(g.NumParts())*3 {
		t.Errorf("AUSP rows = %d", n)
	}
	vbap := sys.RowCount("VBAP")
	if vbap < 3*int64(g.NumOrders()) {
		t.Errorf("VBAP rows = %d", vbap)
	}
	// Pool and cluster row counts decode correctly.
	if n := sys.RowCount("A004"); n != int64(g.NumParts()) {
		t.Errorf("A004 (pool) rows = %d, want %d", n, g.NumParts())
	}
	if n := sys.RowCount("KONV"); n != 2*vbap {
		t.Errorf("KONV (cluster) rows = %d, want %d", n, 2*vbap)
	}
}

func TestOpenSQLSelectTransparent(t *testing.T) {
	sys, _ := installedSys(t, Release22)
	o := sys.OpenSQL(cost.NewMeter(sys.DB.Model()))
	n := 0
	err := o.Select("VBAP", []Cond{Eq("VBELN", val.Str(Key16(1)))}, func(r Row) error {
		n++
		if r.Get("MANDT").AsStr() != DefaultClient {
			t.Error("MANDT filter lost")
		}
		if r.Get("KWMENG").AsFloat() < 1 {
			t.Error("quantity missing")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 || n > 7 {
		t.Fatalf("order 1 has %d items", n)
	}
}

func TestOpenSQLSelectPoolAndCluster(t *testing.T) {
	sys, _ := installedSys(t, Release22)
	o := sys.OpenSQL(cost.NewMeter(sys.DB.Model()))
	// Pool read by key.
	row, ok, err := o.SelectSingle("A004", []Cond{
		Eq("KAPPL", val.Str("V")), Eq("KSCHL", val.Str("PR00")),
		Eq("MATNR", val.Str(Key16(5)))})
	if err != nil || !ok {
		t.Fatalf("A004 single: ok=%v err=%v", ok, err)
	}
	if row.Get("KNUMH").AsStr() != Key16(5) {
		t.Fatalf("KNUMH = %v", row.Get("KNUMH"))
	}
	// Decode charges must be visible.
	if o.Meter().Count(cost.Decode) == 0 {
		t.Error("pool read must charge decode")
	}
	// Cluster read by document.
	var kschl []string
	err = o.Select("KONV", []Cond{Eq("KNUMV", val.Str(Key16(1)))}, func(r Row) error {
		kschl = append(kschl, r.Get("KSCHL").AsStr())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(kschl) == 0 || len(kschl)%2 != 0 {
		t.Fatalf("KONV rows for order 1: %v", kschl)
	}
	// Client-side filter on a cluster table.
	n := 0
	err = o.Select("KONV", []Cond{Eq("KNUMV", val.Str(Key16(1))), Eq("KSCHL", val.Str("DISC"))},
		func(r Row) error {
			n++
			if r.Get("KBETR").AsFloat() > 0 {
				t.Error("discount rate must be negative per-mille")
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(kschl)/2 {
		t.Fatalf("DISC rows = %d of %d", n, len(kschl))
	}
}

func TestSelectSingleRequiresFullKey(t *testing.T) {
	sys, _ := installedSys(t, Release22)
	o := sys.OpenSQL(cost.NewMeter(sys.DB.Model()))
	if _, _, err := o.SelectSingle("VBAP", []Cond{Eq("VBELN", val.Str(Key16(1)))}); err == nil {
		t.Fatal("SELECT SINGLE without full key must fail")
	}
}

func TestNativeSQLGuardsEncapsulation(t *testing.T) {
	sys, _ := installedSys(t, Release22)
	n := sys.NativeSQL(cost.NewMeter(sys.DB.Model()))
	if _, err := n.Exec(`SELECT * FROM KONV WHERE KNUMV = '1'`); err == nil ||
		!strings.Contains(err.Error(), "encapsulated") {
		t.Fatalf("KONV via Native SQL must fail, got %v", err)
	}
	if _, err := n.Exec(`SELECT COUNT(*) FROM VBAP WHERE MANDT = '301'`); err != nil {
		t.Fatalf("transparent table via Native SQL: %v", err)
	}
	// Also inside subqueries.
	if _, err := n.Exec(`SELECT * FROM VBAP WHERE VBELN IN (SELECT KNUMV FROM KONV)`); err == nil {
		t.Fatal("encapsulated table in subquery must fail")
	}
}

func TestOpenSQLJoinRequires30(t *testing.T) {
	sys, _ := installedSys(t, Release22)
	o := sys.OpenSQL(cost.NewMeter(sys.DB.Model()))
	q := JoinQuery{
		Tables: []JT{{Table: "VBAK", Alias: "K"}, {Table: "VBAP", Alias: "P"}},
		On:     []On{{LA: "K", LC: "VBELN", RA: "P", RC: "VBELN"}},
		Select: []ColRef{{Alias: "P", Col: "NETWR"}},
	}
	if err := o.SelectJoin(q, func(Row) error { return nil }); err == nil {
		t.Fatal("joins must be rejected on Release 2.2")
	}
}

func TestOpenSQLJoin30(t *testing.T) {
	sys, _ := installedSys(t, Release30)
	o := sys.OpenSQL(cost.NewMeter(sys.DB.Model()))
	// Count lineitems per order status via pushdown.
	total := 0
	err := o.SelectJoin(JoinQuery{
		Tables:  []JT{{Table: "VBAK", Alias: "K"}, {Table: "VBAP", Alias: "P"}},
		On:      []On{{LA: "K", LC: "VBELN", RA: "P", RC: "VBELN"}},
		GroupBy: []ColRef{{Alias: "K", Col: "GBSTK"}},
		Select:  []ColRef{{Alias: "K", Col: "GBSTK"}},
		Aggs:    []AggRef{{Fn: "COUNT", As: "CNT"}},
	}, func(r Row) error {
		total += int(r.Get("CNT").AsInt())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != int(sys.RowCount("VBAP")) {
		t.Fatalf("join counted %d lineitems, want %d", total, sys.RowCount("VBAP"))
	}
	// Joins with cluster tables are rejected even on 3.0.
	err = o.SelectJoin(JoinQuery{
		Tables: []JT{{Table: "VBAK", Alias: "K"}, {Table: "KONV", Alias: "C"}},
		On:     []On{{LA: "K", LC: "KNUMV", RA: "C", RC: "KNUMV"}},
		Select: []ColRef{{Alias: "C", Col: "KBETR"}},
	}, func(Row) error { return nil })
	if err == nil {
		t.Fatal("cluster table in a join must be rejected")
	}
}

func TestConvertKonvToTransparent(t *testing.T) {
	// 2.2 cannot convert a cluster table.
	sys22, _ := installedSys(t, Release22)
	if err := sys22.ConvertToTransparent("KONV", nil); err == nil {
		t.Fatal("2.2 must refuse to convert a cluster table")
	}

	sys, _ := installedSys(t, Release30)
	before := sys.RowCount("KONV")
	clusterData, _ := sys.PhysicalSizes("KONV")
	if !sys.Encapsulated("KONV") {
		t.Fatal("KONV is not a cluster table on a fresh 3.0 install")
	}
	if err := sys.ConvertToTransparent("KONV", nil); err != nil {
		t.Fatal(err)
	}
	if sys.Encapsulated("KONV") {
		t.Fatal("KONV still encapsulated after conversion")
	}
	if after := sys.RowCount("KONV"); after != before {
		t.Fatalf("conversion lost rows: %d -> %d", before, after)
	}
	transData, _ := sys.PhysicalSizes("KONV")
	// The paper: conversion roughly tripled KONV's size.
	if ratio := float64(transData) / float64(clusterData); ratio < 1.5 {
		t.Errorf("transparent/cluster size ratio = %.1f, expected a substantial blow-up", ratio)
	}
	// Now Native SQL reaches it.
	n := sys.NativeSQL(cost.NewMeter(sys.DB.Model()))
	res, err := n.Exec(`SELECT COUNT(*) FROM KONV WHERE MANDT = '301' AND KSCHL = 'DISC'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != before/2 {
		t.Fatalf("DISC rows = %v, want %d", res.Rows[0][0], before/2)
	}
	// And Open SQL joins can use it.
	o := sys.OpenSQL(cost.NewMeter(sys.DB.Model()))
	cnt := 0
	err = o.SelectJoin(JoinQuery{
		Tables: []JT{{Table: "VBAK", Alias: "K"}, {Table: "KONV", Alias: "C"}},
		On:     []On{{LA: "K", LC: "KNUMV", RA: "C", RC: "KNUMV"}},
		Where:  []WhereA{{Alias: "C", Cond: Eq("KSCHL", val.Str("TAX"))}},
		Select: []ColRef{{Alias: "C", Col: "KBETR"}},
	}, func(Row) error {
		cnt++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(cnt) != before/2 {
		t.Fatalf("joined TAX rows = %d, want %d", cnt, before/2)
	}
}

func TestJoinViews(t *testing.T) {
	sys, _ := installedSys(t, Release22)
	// A legal join view: VBAP ⋈ VBAK along the document key.
	err := sys.CreateJoinView("ZVVBAPK", JoinQuery{
		Tables: []JT{{Table: "VBAP", Alias: "P"}, {Table: "VBAK", Alias: "K"}},
		On:     []On{{LA: "P", LC: "VBELN", RA: "K", RC: "VBELN"}},
		Select: []ColRef{{Alias: "P", Col: "VBELN"}, {Alias: "P", Col: "POSNR"}, {Alias: "P", Col: "NETWR"}, {Alias: "K", Col: "AUDAT"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	o := sys.OpenSQL(cost.NewMeter(sys.DB.Model()))
	n := 0
	err = o.Select("ZVVBAPK", []Cond{Eq("VBELN", val.Str(Key16(1)))}, func(r Row) error {
		if r.Get("AUDAT").IsNull() {
			t.Error("joined column missing")
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("join view returned nothing")
	}
	// Encapsulated tables cannot appear in join views.
	err = sys.CreateJoinView("ZVBAD", JoinQuery{
		Tables: []JT{{Table: "VBAK", Alias: "K"}, {Table: "KONV", Alias: "C"}},
		On:     []On{{LA: "K", LC: "KNUMV", RA: "C", RC: "KNUMV"}},
		Select: []ColRef{{Alias: "C", Col: "KBETR"}},
	})
	if err == nil {
		t.Fatal("join view over cluster table must fail")
	}
	// Non-key joins are rejected.
	err = sys.CreateJoinView("ZVBAD2", JoinQuery{
		Tables: []JT{{Table: "KNA1", Alias: "C"}, {Table: "LFA1", Alias: "S"}},
		On:     []On{{LA: "C", LC: "LAND1", RA: "S", RC: "LAND1"}},
		Select: []ColRef{{Alias: "C", Col: "KUNNR"}},
	})
	if err == nil {
		t.Fatal("join view along non-key columns must fail")
	}
}

func TestTableBufferCaching(t *testing.T) {
	sys, _ := installedSys(t, Release22)
	buf := sys.SetBuffered("MARA", 1<<20)
	o := sys.OpenSQL(cost.NewMeter(sys.DB.Model()))
	key := []Cond{Eq("MATNR", val.Str(Key16(7)))}

	if _, ok, err := o.SelectSingle("MARA", key); err != nil || !ok {
		t.Fatalf("first lookup: %v %v", ok, err)
	}
	missTime := o.Meter().Elapsed()
	for i := 0; i < 9; i++ {
		if _, ok, _ := o.SelectSingle("MARA", key); !ok {
			t.Fatal("buffered lookup lost the row")
		}
	}
	hitTime := o.Meter().Elapsed() - missTime
	if buf.HitRatio() < 0.89 {
		t.Fatalf("hit ratio = %f", buf.HitRatio())
	}
	// Nine hits must be much cheaper than the one miss.
	if hitTime >= missTime {
		t.Fatalf("buffer hits not cheaper: miss=%v hits=%v", missTime, hitTime)
	}
	// Tiny buffer: nothing fits, everything misses.
	sys.SetBuffered("MARA", 1)
	o2 := sys.OpenSQL(cost.NewMeter(sys.DB.Model()))
	o2.SelectSingle("MARA", key)
	o2.SelectSingle("MARA", key)
	if sys.Buffer("MARA").HitRatio() > 0 {
		t.Error("1-byte buffer cannot hit")
	}
}

// TestCursorCacheAvoidsRetranslation: an Open SQL read translates once per
// statement shape — the table, each condition's column and operator, an IN
// list's length — whatever kind of table it reads; the values are
// parameters. Each translation is one Translate charge.
func TestCursorCacheAvoidsRetranslation(t *testing.T) {
	sys, _ := installedSys(t, Release22)
	for _, c := range []struct {
		table    string
		kind     TableKind
		key      string // the first key column after MANDT
		keyVal   func(i int) val.Value
		deeper   string // the next key column
		residual string // a column no key prefix takes
		in       string // a column read through an IN list
	}{
		{"VBAP", Transparent, "VBELN", func(i int) val.Value { return val.Str(Key16(int64(i))) }, "POSNR", "SDABW", "ABGRU"},
		{"A004", Pooled, "KAPPL", func(int) val.Value { return val.Str("V") }, "KSCHL", "KNUMH", "DATBI"},
		{"KONV", Clustered, "KNUMV", func(i int) val.Value { return val.Str(Key16(int64(i))) }, "KPOSN", "KSCHL", "STUNR"},
	} {
		t.Run(c.table, func(t *testing.T) {
			if k := sys.Table(c.table).Kind; k != c.kind {
				t.Fatalf("%s is a %s table, want %s", c.table, k, c.kind)
			}
			o := sys.OpenSQL(cost.NewMeter(sys.DB.Model()))
			read := func(conds ...Cond) {
				t.Helper()
				if err := o.Select(c.table, conds, func(Row) error { return nil }); err != nil {
					t.Fatal(err)
				}
			}
			want := func(n int64, what string) {
				t.Helper()
				if o.Translations != n {
					t.Fatalf("%s: %d translations, want %d", what, o.Translations, n)
				}
				if got := o.Meter().Count(cost.Translate); got != o.Translations {
					t.Fatalf("%s: %d Translate charges, %d translations counted", what, got, o.Translations)
				}
			}
			in2 := In(c.in, val.Str("A"), val.Str("B"))
			for i := 1; i <= 20; i++ {
				read(Eq(c.key, c.keyVal(i)), Ge(c.residual, val.Str(Key16(int64(i)))), in2)
			}
			want(1, "20 reads of one shape")
			for i := 1; i <= 3; i++ {
				read(Eq(c.key, c.keyVal(i)), Le(c.residual, val.Str(Key16(int64(i)))), in2)
			}
			want(2, "a changed residual operator")
			for i := 1; i <= 3; i++ {
				read(Eq(c.key, c.keyVal(i)), Eq(c.deeper, val.Str("000001")), Ge(c.residual, val.Str("")), in2)
			}
			want(3, "a deeper key prefix")
			for i := 1; i <= 3; i++ {
				read(Eq(c.key, c.keyVal(i)), Ge(c.residual, val.Str("")), In(c.in, val.Str("A"), val.Str("B"), val.Str("C")))
			}
			want(4, "an IN list of another length")
			read(Eq(c.key, c.keyVal(7)), Ge(c.residual, val.Str("")), in2)
			want(4, "the first shape again")
		})
	}
}

func TestITabGroupBy(t *testing.T) {
	m := cost.NewMeter(cost.Default1996())
	tab := NewITab(m, "K", "V")
	for i := 0; i < 100; i++ {
		tab.Append(val.Int(int64(i%4)), val.Float(float64(i)))
	}
	var keys []int64
	var sums []float64
	err := tab.GroupBy([]string{"K"}, []Agg{
		{Fn: "SUM", Of: func(r []val.Value) val.Value { return r[1] }},
		{Fn: "COUNT", Of: func(r []val.Value) val.Value { return r[1] }},
	}, func(kv, av []val.Value) error {
		keys = append(keys, kv[0].AsInt())
		sums = append(sums, av[0].AsFloat())
		if av[1].AsInt() != 25 {
			t.Errorf("group count = %v", av[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys[0] != 0 || keys[3] != 3 {
		t.Fatalf("groups = %v", keys)
	}
	var want float64
	for i := 0; i < 100; i += 4 {
		want += float64(i)
	}
	if sums[0] != want {
		t.Fatalf("sum = %v want %v", sums[0], want)
	}
	// Two-phase grouping must have charged materialization I/O.
	if m.Count(cost.PageWrite) == 0 || m.Count(cost.SeqRead) == 0 {
		t.Error("GroupBy must charge write+re-read (two-phase)")
	}
}

func TestITabSortAndLookup(t *testing.T) {
	m := cost.NewMeter(cost.Default1996())
	tab := NewITab(m, "A", "B")
	for _, x := range []int64{5, 3, 9, 1, 7} {
		tab.Append(val.Int(x), val.Int(x*10))
	}
	tab.Sort("A")
	if tab.Get(0, "A").AsInt() != 1 || tab.Get(4, "A").AsInt() != 9 {
		t.Fatal("sort failed")
	}
	if row, ok := tab.LookupSorted("A", val.Int(7)); !ok || row[1].AsInt() != 70 {
		t.Fatal("binary search failed")
	}
	if _, ok := tab.LookupSorted("A", val.Int(4)); ok {
		t.Fatal("binary search false positive")
	}
}

func TestBatchInputOrderEntry(t *testing.T) {
	sys, g := installedSys(t, Release22) // masters must exist for the checks to succeed
	b := sys.NewBatchInput(2)
	var order *dbgen.Order
	g.UF1Orders(func(o *dbgen.Order) error {
		if order == nil {
			order = o
		}
		return nil
	})
	if err := b.EnterOrder(order); err != nil {
		t.Fatal(err)
	}
	// The dominant cost must be consistency checking.
	m := b.Meter()
	if m.ByKind(cost.Check) < m.Elapsed()/2 {
		t.Errorf("checking is not dominant: %v of %v", m.ByKind(cost.Check), m.Elapsed())
	}
	// One whole document enters through one lane, so a second idle worker
	// cannot shorten it.
	if b.Elapsed() != m.Elapsed() {
		t.Errorf("single record: elapsed %v, want full lane time %v", b.Elapsed(), m.Elapsed())
	}
	// The order landed (TestWritersAgree checks every row batch input
	// writes) and can be deleted again.
	o := sys.OpenSQL(cost.NewMeter(sys.DB.Model()))
	vbeln := Key16(order.Key)
	if _, ok, _ := o.SelectSingle("VBAK", []Cond{Eq("VBELN", val.Str(vbeln))}); !ok {
		t.Fatal("entered order not found")
	}
	if err := b.DeleteOrder(order.Key); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := o.SelectSingle("VBAK", []Cond{Eq("VBELN", val.Str(vbeln))}); ok {
		t.Fatal("deleted order still present")
	}
	// The delete round-robined onto the second lane, overlapping the entry
	// in simulated time: wall time is the slower lane, not the sum.
	if b.Elapsed() >= b.Meter().Elapsed() {
		t.Error("two busy lanes must overlap: elapsed should be below summed work")
	}
}

// TestDialogChecksNameDictionaryFields holds the dialog's check table to the
// dictionary: every check's field is a column of its anchor table and the
// whole key of its check table, so the check is a SELECT SINGLE on a value
// the anchor row carries.
func TestDialogChecksNameDictionaryFields(t *testing.T) {
	sys, err := Install(Config{Release: Release22})
	if err != nil {
		t.Fatal(err)
	}
	for anchor, checks := range dialogChecks {
		for _, c := range checks {
			at, ct := sys.Table(anchor), sys.Table(c.table)
			if at == nil || ct == nil || at.ColIndex(c.field) < 0 ||
				!slices.Equal(ct.KeyCols, []string{"MANDT", c.field}) {
				t.Errorf("%s → %s.%s does not name a field of %s keying %s", anchor, c.table, c.field, anchor, c.table)
			}
		}
	}
}

func TestSAPDatabaseIsMuchBigger(t *testing.T) {
	sys, g := installedSys(t, Release22)

	var sapData int64
	for _, lt := range sys.Tables() {
		d, _ := sys.PhysicalSizes(lt.Name)
		sapData += d
	}
	// Rough original-DB size: count bytes the original schema would use.
	origPerLineitem := int64(150)
	origEstimate := int64(float64(g.NumOrders())*4.0)*origPerLineitem + int64(g.NumOrders())*130
	ratio := float64(sapData) / float64(origEstimate)
	if ratio < 5 {
		t.Errorf("SAP/original data ratio = %.1f, paper reports ~10x", ratio)
	}
}

// TestCursorCacheSeesDropIndex: the cursor cache keeps prepared statements
// across DDL, so a cached SELECT that probes VBEP_EDATU must stop using the
// index when the paper's 3.0 tuning step drops it — the dropped tree is no
// longer maintained, and a row inserted afterwards would stay invisible to
// the cached cursor.
func TestCursorCacheSeesDropIndex(t *testing.T) {
	sys, _ := installedSys(t, Release30)
	o := sys.OpenSQL(cost.NewMeter(sys.DB.Model()))
	var day val.Value
	if err := o.Select("VBEP", nil, func(r Row) error { day = r.Get("EDATU"); return nil }); err != nil {
		t.Fatal(err)
	}
	count := func() int {
		t.Helper()
		n := 0
		if err := o.Select("VBEP", []Cond{Eq("EDATU", day)}, func(Row) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	before := count()
	plan, err := sys.DB.NewSession().Explain(`SELECT * FROM VBEP WHERE MANDT = ? AND EDATU = ?`)
	if err != nil || !strings.Contains(plan, "VBEP_EDATU") {
		t.Fatalf("fixture: the cached cursor does not probe VBEP_EDATU: %v\n%s", err, plan)
	}
	if err := sys.DropIndex("VBEP", "VBEP_EDATU"); err != nil {
		t.Fatal(err)
	}
	if err := o.InsertGroup("VBEP", []map[string]val.Value{{"VBELN": val.Str("ZZ"), "POSNR": val.Str("1"), "ETENR": val.Str("0001"), "EDATU": day}}); err != nil {
		t.Fatal(err)
	}
	if after := count(); before == 0 || after != before+1 {
		t.Errorf("the cached cursor counts %d rows after the insert, %d before", after, before)
	}
}
