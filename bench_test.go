package r3bench

// One benchmark per table/figure of the paper's evaluation, plus the
// ablations DESIGN.md calls out. Each benchmark reports the *simulated*
// (1996-hardware) time per operation as "sim-ms/op" next to Go's own
// wall-clock ns/op — the simulated number is the one comparable to the
// paper.

import (
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/engine"
	"r3bench/internal/r3"
	"r3bench/internal/r3/reports"
	"r3bench/internal/sqlparse"
	"r3bench/internal/tpcd"
	"r3bench/internal/val"
	"r3bench/internal/warehouse"
)

const benchSF = 0.005

// benchOrderKey hands out unique order keys across benchmark iterations.
var benchOrderKey int64

var (
	benchOnce sync.Once
	benchErr  error
	bGen      *dbgen.Generator
	bRDB      *engine.DB
	bSys2     *r3.System
	bSys3     *r3.System
)

func benchEnv(b *testing.B) (*dbgen.Generator, *engine.DB, *r3.System, *r3.System) {
	b.Helper()
	benchOnce.Do(func() {
		bGen = dbgen.New(benchSF)
		bRDB = engine.Open(engine.Config{})
		if benchErr = tpcd.Load(bRDB, bGen, nil); benchErr != nil {
			return
		}
		if bSys2, benchErr = r3.Install(r3.Config{Release: r3.Release22}); benchErr != nil {
			return
		}
		if benchErr = bSys2.LoadDirect(bGen); benchErr != nil {
			return
		}
		if bSys3, benchErr = r3.Install(r3.Config{Release: r3.Release30}); benchErr != nil {
			return
		}
		if benchErr = bSys3.LoadDirect(bGen); benchErr != nil {
			return
		}
		if benchErr = bSys3.ConvertToTransparent("KONV", nil); benchErr != nil {
			return
		}
		benchErr = bSys3.DropIndex("VBEP", "VBEP_EDATU")
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return bGen, bRDB, bSys2, bSys3
}

// simPerOp reports simulated milliseconds per benchmark iteration.
func simPerOp(b *testing.B, m *cost.Meter, start int64) {
	total := int64(m.Elapsed()) - start
	b.ReportMetric(float64(total)/1e6/float64(b.N), "sim-ms/op")
}

// --- Table 2: database construction and sizes ---

func BenchmarkTable2_LoadOriginalDB(b *testing.B) {
	g := dbgen.New(benchSF)
	for i := 0; i < b.N; i++ {
		db := engine.Open(engine.Config{})
		if err := tpcd.Load(db, g, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_LoadSAPDB(b *testing.B) {
	g := dbgen.New(benchSF)
	var ratio float64
	for i := 0; i < b.N; i++ {
		sys, err := r3.Install(r3.Config{Release: r3.Release22})
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.LoadDirect(g); err != nil {
			b.Fatal(err)
		}
		var sap int64
		for _, t := range sys.Tables() {
			d, _ := sys.PhysicalSizes(t.Name)
			sap += d
		}
		db := engine.Open(engine.Config{})
		if err := tpcd.Load(db, g, nil); err != nil {
			b.Fatal(err)
		}
		var orig int64
		for _, n := range db.TableNames() {
			orig += db.Table(n).DataBytes()
		}
		ratio = float64(sap) / float64(orig)
	}
	b.ReportMetric(ratio, "sap/orig-data-x")
}

// --- Table 3: batch input vs bulk load ---

func BenchmarkTable3_BatchInputOrder(b *testing.B) {
	_, _, sys2, _ := benchEnv(b)
	bi := sys2.NewBatchInput(2)
	var orders []*dbgen.Order
	bGen.UF1Orders(func(o *dbgen.Order) error {
		cp := *o
		orders = append(orders, &cp)
		return nil
	})
	start := int64(bi.Meter().Elapsed())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := orders[i%len(orders)]
		// Keys must stay fresh across b.N calibration rounds too.
		o.Key = 1_000_000 + atomic.AddInt64(&benchOrderKey, 1)
		for li := range o.Lines {
			o.Lines[li].OrderKey = o.Key
		}
		if err := bi.EnterOrder(o); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	simPerOp(b, bi.Meter(), start)
}

func BenchmarkTable3_BulkLoadOrder(b *testing.B) {
	// The RDBMS bulk path SAP never uses: same rows, no dialog checks.
	db := engine.Open(engine.Config{})
	if err := tpcd.CreateSchema(db, nil); err != nil {
		b.Fatal(err)
	}
	g := dbgen.New(benchSF)
	var orders []*dbgen.Order
	g.Orders(func(o *dbgen.Order) error {
		if len(orders) < 64 {
			cp := *o
			orders = append(orders, &cp)
		}
		return nil
	})
	m := cost.NewMeter(db.Model())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := orders[i%len(orders)]
		o.Key = 2_000_000 + atomic.AddInt64(&benchOrderKey, 1)
		rows := [][]val.Value{tpcd.OrderRow(o)}
		if err := db.BulkLoad("ORDERS", rows, m); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	simPerOp(b, m, 0)
}

// --- Tables 4 and 5: the power test per strategy ---

func benchPower(b *testing.B, impl tpcd.Implementation) {
	start := int64(impl.Meter().Elapsed())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for q := 1; q <= 17; q++ {
			if _, err := impl.RunQuery(q); err != nil {
				b.Fatalf("Q%d: %v", q, err)
			}
		}
	}
	b.StopTimer()
	simPerOp(b, impl.Meter(), start)
}

func BenchmarkPower22_RDBMS(b *testing.B) {
	g, rdb, _, _ := benchEnv(b)
	benchPower(b, tpcd.NewRDBMS(rdb, g))
}

func BenchmarkPower22_NativeSQL(b *testing.B) {
	g, _, sys2, _ := benchEnv(b)
	benchPower(b, reports.New(sys2, g, reports.Native22))
}

func BenchmarkPower22_OpenSQL(b *testing.B) {
	g, _, sys2, _ := benchEnv(b)
	benchPower(b, reports.New(sys2, g, reports.Open22))
}

func BenchmarkPower30_NativeSQL(b *testing.B) {
	g, _, _, sys3 := benchEnv(b)
	benchPower(b, reports.New(sys3, g, reports.Native30))
}

func BenchmarkPower30_OpenSQL(b *testing.B) {
	g, _, _, sys3 := benchEnv(b)
	benchPower(b, reports.New(sys3, g, reports.Open30))
}

// --- Parallel query execution (DESIGN.md §5): power test by degree ---

// applyParallel sets the shared database's parallel degree and returns
// the function that puts back the options it found.
func applyParallel(db *engine.DB, degree int) (restore func()) {
	saved := db.Options()
	o := saved
	o.Parallel = degree
	db.SetOptions(o)
	return func() { db.SetOptions(saved) }
}

func benchPowerParallel(b *testing.B, degree int) {
	g, rdb, _, _ := benchEnv(b)
	defer applyParallel(rdb, degree)()
	benchPower(b, tpcd.NewRDBMS(rdb, g))
}

func BenchmarkPowerParallel1_RDBMS(b *testing.B) { benchPowerParallel(b, 1) }
func BenchmarkPowerParallel2_RDBMS(b *testing.B) { benchPowerParallel(b, 2) }
func BenchmarkPowerParallel4_RDBMS(b *testing.B) { benchPowerParallel(b, 4) }
func BenchmarkPowerParallel8_RDBMS(b *testing.B) { benchPowerParallel(b, 8) }

// benchQueryParallel times one query at a given degree (the scan-bound
// queries are where partitioned execution pays off most).
func benchQueryParallel(b *testing.B, q, degree int) {
	g, rdb, _, _ := benchEnv(b)
	defer applyParallel(rdb, degree)()
	impl := tpcd.NewRDBMS(rdb, g)
	start := int64(impl.Meter().Elapsed())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := impl.RunQuery(q); err != nil {
			b.Fatalf("Q%d: %v", q, err)
		}
	}
	b.StopTimer()
	simPerOp(b, impl.Meter(), start)
}

func BenchmarkParallelQ1_Serial(b *testing.B)  { benchQueryParallel(b, 1, 1) }
func BenchmarkParallelQ1_Deg4(b *testing.B)    { benchQueryParallel(b, 1, 4) }
func BenchmarkParallelQ6_Serial(b *testing.B)  { benchQueryParallel(b, 6, 1) }
func BenchmarkParallelQ6_Deg4(b *testing.B)    { benchQueryParallel(b, 6, 4) }
func BenchmarkParallelQ12_Serial(b *testing.B) { benchQueryParallel(b, 12, 1) }
func BenchmarkParallelQ12_Deg4(b *testing.B)   { benchQueryParallel(b, 12, 4) }

// --- The batch executor (DESIGN.md §10): aggregation-heavy Q1 ---

// BenchmarkAggQ1 times TPC-D Q1 — a full lineitem scan into an
// 8-aggregate grouping, the executor's most allocation-heavy shape — and
// reports allocs/op so `make bench-smoke` can track the executor's real
// (wall-clock) cost beside the simulated time.
func BenchmarkAggQ1(b *testing.B) {
	g, rdb, _, _ := benchEnv(b)
	impl := tpcd.NewRDBMS(rdb, g)
	start := int64(impl.Meter().Elapsed())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := impl.RunQuery(1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	simPerOp(b, impl.Meter(), start)
}

// --- Multi-join queries, serial: histogram-driven join planning ---

func BenchmarkJoinQ5_Serial(b *testing.B) { benchQueryParallel(b, 5, 1) }
func BenchmarkJoinQ8_Serial(b *testing.B) { benchQueryParallel(b, 8, 1) }
func BenchmarkJoinQ9_Serial(b *testing.B) { benchQueryParallel(b, 9, 1) }

// --- ORDER BY-heavy queries, serial: precomputed-key output sort ---

func BenchmarkOrderQ1_Serial(b *testing.B) { benchQueryParallel(b, 1, 1) }
func BenchmarkOrderQ3_Serial(b *testing.B) { benchQueryParallel(b, 3, 1) }

// --- SQL front end (DESIGN.md §11): real parse cost, no simulated time ---

// The parse benchmarks mirror internal/sqlparse's so bench_snapshot.sh
// lands their allocs/op in BENCH_<date>.json for the benchdiff
// -max-parse-allocs ceiling. A warm-up parse runs before the timer: the
// snapshot uses -benchtime 1x, and the pooled parser's one-time
// construction would otherwise dominate the single measured iteration.

// BenchmarkParseSelect drives a TPC-D Q1-class statement through the
// public pooled Parse — the path Exec/Prepare take on a fingerprint
// cache miss.
func BenchmarkParseSelect(b *testing.B) {
	src := tpcd.Queries(1.0)[0].SQL[0]
	if _, err := sqlparse.Parse(src); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparse.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseSelectReused recycles one Parser's arena — the
// per-session reuse pattern; steady state allocates nothing.
func BenchmarkParseSelectReused(b *testing.B) {
	src := tpcd.Queries(1.0)[0].SQL[0]
	p := sqlparse.NewParser()
	if _, err := p.Parse(src); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParsePointLiteral drives the ad hoc literal point read — a
// text the fingerprint cache has not seen — through the pooled Parse.
func BenchmarkParsePointLiteral(b *testing.B) {
	const src = "SELECT * FROM orders WHERE o_orderkey = 123456"
	if _, err := sqlparse.Parse(src); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparse.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// (BenchmarkParseSelectOld — the pre-rewrite contrast at 131 allocs/op —
// lives in internal/sqlparse, next to the preserved old parser; test-only
// symbols cannot be mirrored here.)

// --- Table 6: parameterized access-path choice (Figure 3) ---

func table6Setup(b *testing.B) *r3.System {
	_, _, _, sys3 := benchEnv(b)
	s := sys3.DB.NewSessionWithMeter(nil)
	_, err := s.Exec(`CREATE INDEX VBAP_KWM ON VBAP (KWMENG)`)
	if err != nil && err.Error() != "engine: index VBAP_KWM already exists" {
		b.Fatal(err)
	}
	return sys3
}

func BenchmarkTable6_NativeLiteral(b *testing.B) {
	sys := table6Setup(b)
	m := cost.NewMeter(sys.DB.Model())
	n := sys.NativeSQL(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Exec(`SELECT KWMENG FROM VBAP WHERE KWMENG < 9999 AND MANDT = '301'`); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	simPerOp(b, m, 0)
}

func BenchmarkTable6_OpenParameterized(b *testing.B) {
	sys := table6Setup(b)
	m := cost.NewMeter(sys.DB.Model())
	o := sys.OpenSQL(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := o.Select("VBAP", []r3.Cond{r3.Lt("KWMENG", val.Float(9999))}, func(r3.Row) error {
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	simPerOp(b, m, 0)
}

// --- Table 7: complex aggregation, pushdown vs application server ---

func BenchmarkTable7_NativePushdown(b *testing.B) {
	_, _, _, sys3 := benchEnv(b)
	m := cost.NewMeter(sys3.DB.Model())
	n := sys3.NativeSQL(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := n.Exec(`
SELECT KPOSN, AVG(KAWRT * (1 + KBETR / 1000)) FROM KONV
WHERE MANDT = '301' AND STUNR = '040' AND ZAEHK = '01' AND KSCHL = 'DISC'
GROUP BY KPOSN ORDER BY KPOSN`)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	simPerOp(b, m, 0)
}

// benchTable7Open is Table 7's client-side aggregation with the two
// options its ablation owns set to opts on the shared 3.0E system, which
// gets back the options it had.
func benchTable7Open(b *testing.B, opts r3.Options) {
	_, _, _, sys3 := benchEnv(b)
	saved := sys3.Options()
	o := saved
	o.Engine.ArrayFetch, o.ITabSinglePass = opts.Engine.ArrayFetch, opts.ITabSinglePass
	sys3.SetOptions(o)
	defer sys3.SetOptions(saved)
	m := cost.NewMeter(sys3.DB.Model())
	sql := sys3.OpenSQL(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := sys3.NewITab(m, "KPOSN", "CHARGE")
		err := sql.Select("KONV", []r3.Cond{
			r3.Eq("STUNR", val.Str("040")), r3.Eq("ZAEHK", val.Str("01")),
			r3.Eq("KSCHL", val.Str("DISC")),
		}, func(r r3.Row) error {
			tab.Append(r.Get("KPOSN"),
				val.Float(r.Get("KAWRT").AsFloat()*(1+r.Get("KBETR").AsFloat()/1000)))
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		err = tab.GroupBy([]string{"KPOSN"}, []r3.Agg{
			{Fn: "AVG", Of: func(r []val.Value) val.Value { return r[1] }},
		}, func(kv, av []val.Value) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	simPerOp(b, m, 0)
}

// BenchmarkTable7_OpenClientGrouping is the paper's configuration: one
// interface round trip per row, two-phase grouping.
func BenchmarkTable7_OpenClientGrouping(b *testing.B) { benchTable7Open(b, r3.Options{}) }

// BenchmarkTable7_OpenModernized is the EXPERIMENTS.md Table 7 ablation
// row: the same client-side aggregation with the 1996 limitations
// replaced — rows ship in array-fetch packets and the internal table
// groups in a single streaming pass (DESIGN.md §10). Identical output;
// the sim-ms/op gap against BenchmarkTable7_OpenClientGrouping is the
// modeled penalty of the per-row interface plus two-phase grouping.
func BenchmarkTable7_OpenModernized(b *testing.B) {
	benchTable7Open(b, r3.Options{Engine: engine.Options{ArrayFetch: true}, ITabSinglePass: true})
}

// --- Table 8: application-server table buffering (Figure 5) ---

func benchTable8(b *testing.B, cacheBytes int64) {
	_, _, sys2, _ := benchEnv(b)
	sys2.SetBuffered("MARA", cacheBytes)
	defer sys2.SetBuffered("MARA", 0)
	m := cost.NewMeter(sys2.DB.Model())
	o := sys2.OpenSQL(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := o.Select("VBAP", nil, func(r r3.Row) error {
			_, _, err := o.SelectSingle("MARA", []r3.Cond{r3.Eq("MATNR", r.Get("MATNR"))})
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	simPerOp(b, m, 0)
	if buf := sys2.Buffer("MARA"); buf != nil {
		b.ReportMetric(buf.HitRatio()*100, "hit-%")
	}
}

func BenchmarkTable8_NoCache(b *testing.B) { benchTable8(b, 0) }

func BenchmarkTable8_SmallCache(b *testing.B) {
	scale := benchSF / 0.2
	benchTable8(b, int64(float64(2<<20)*scale))
}

func BenchmarkTable8_LargeCache(b *testing.B) {
	scale := benchSF / 0.2
	benchTable8(b, int64(float64(20<<20)*scale))
}

// --- Table 9: warehouse extraction ---

func BenchmarkTable9_Extract(b *testing.B) {
	_, _, _, sys3 := benchEnv(b)
	ex := warehouse.New(sys3)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.ExtractAll(dir); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	simPerOp(b, ex.Meter(), 0)
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblation_CostModelUniformIO re-runs Table 6's parameterized
// query under a cost model where random reads cost the same as
// sequential ones: the access-path blunder stops mattering, evidence the
// effect is I/O-structural, not a tuned constant.
func BenchmarkAblation_CostModelUniformIO(b *testing.B) {
	sys, err := r3.Install(r3.Config{Release: r3.Release30, CostModel: cost.Default1996().UniformIO()})
	if err != nil {
		b.Fatal(err)
	}
	g := dbgen.New(benchSF)
	if err := sys.LoadDirect(g); err != nil {
		b.Fatal(err)
	}
	s := sys.DB.NewSessionWithMeter(nil)
	if _, err := s.Exec(`CREATE INDEX VBAP_KWM ON VBAP (KWMENG)`); err != nil {
		b.Fatal(err)
	}
	m := cost.NewMeter(sys.DB.Model())
	o := sys.OpenSQL(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := o.Select("VBAP", []r3.Cond{r3.Lt("KWMENG", val.Float(9999))}, func(r3.Row) error {
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	simPerOp(b, m, 0)
}

// BenchmarkAblation_LiteralVsParameterized contrasts the same engine
// query planned with a literal (statistics apply → sequential scan) and
// with a parameter (blind → index), the engine-level root of Table 6.
func BenchmarkAblation_LiteralVsParameterized(b *testing.B) {
	sys := table6Setup(b)
	lit := sys.DB.NewSessionWithMeter(nil)
	par := sys.DB.NewSessionWithMeter(nil)
	stmt, err := par.Prepare(`SELECT KWMENG FROM VBAP WHERE MANDT = '301' AND KWMENG < ?`)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("literal", func(b *testing.B) {
		m := lit.Meter
		start := int64(m.Elapsed())
		for i := 0; i < b.N; i++ {
			if _, err := lit.Exec(`SELECT KWMENG FROM VBAP WHERE MANDT = '301' AND KWMENG < 9999`); err != nil {
				b.Fatal(err)
			}
		}
		simPerOp(b, m, start)
	})
	b.Run("parameterized", func(b *testing.B) {
		m := par.Meter
		start := int64(m.Elapsed())
		for i := 0; i < b.N; i++ {
			if _, err := stmt.Query(val.Float(9999)); err != nil {
				b.Fatal(err)
			}
		}
		simPerOp(b, m, start)
	})
}

// TestMain silences example binaries during -bench runs.
func TestMain(m *testing.M) { os.Exit(m.Run()) }
