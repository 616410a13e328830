package engine_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/engine"
	"r3bench/internal/tpcd"
)

// planCacheSelects are the ad hoc SELECTs of TestCachedPlanMatchesFreshPlan
// beside Q1–Q17. The first seven are blocks whose plans follow a table's
// size. Five read the unanalyzed table TINY, whose row estimate is its row
// count: joins that probe an index from a few rows of TINY and hash from
// more, or lead with the other table, or probe TINY's primary key once TINY
// is large; a single-table block that goes parallel once TINY is wide
// enough for two workers. Two read WIDE, analyzed while empty, so that only
// its page count moves: the same parallel block, and a join that leads
// with ORDERS once WIDE is long enough. The last two read the two views the
// sequence creates and drops.
var planCacheSelects = []string{
	`SELECT t_k, c_name FROM tiny, customer WHERE t_ck = c_custkey AND t_nk = 3`,
	`SELECT o_orderkey, t_pad FROM orders, tiny WHERE o_orderkey = t_k AND o_totalprice > 400000`,
	`SELECT n_name, COUNT(*) FROM tiny, nation, region WHERE t_nk = n_nationkey AND n_regionkey = r_regionkey GROUP BY n_name ORDER BY n_name`,
	`SELECT COUNT(*), MAX(t_pad) FROM tiny WHERE t_ck > 10`,
	`SELECT c_name, t_k FROM customer, tiny WHERE c_custkey = t_ck AND c_acctbal > 9000`,
	`SELECT COUNT(*), MAX(w_pad) FROM wide WHERE w_k > 10`,
	`SELECT o_orderkey, w_pad FROM orders, wide WHERE o_orderkey = w_k AND o_totalprice > 400000`,
	`SELECT c_name, COUNT(*) FROM tiny_cust GROUP BY c_name ORDER BY 2 DESC, 1 LIMIT 3`,
	`SELECT COUNT(*) FROM regions`,
}

// tinyViews are two definitions of the view TINY_CUST; a definition made
// from the same text again is the same definition.
var tinyViews = []string{
	`CREATE VIEW tiny_cust AS SELECT t_k, t_ck, c_name FROM tiny, customer WHERE t_ck = c_custkey`,
	`CREATE VIEW tiny_cust AS SELECT t_k, t_ck, c_name FROM customer, tiny WHERE t_ck = c_custkey AND t_nk < 20`,
}

// TestCachedPlanMatchesFreshPlan is the oracle for the fingerprint cache's
// plan rule: two identically loaded databases run one seeded sequence of ad
// hoc SELECTs (Q1–Q17 and planCacheSelects), INSERTs and DELETEs that grow
// and shrink TINY across page boundaries, INSERTs that lengthen WIDE and a
// re-creation that empties it, CREATE (from one of two definitions) and
// DROP of a view over TINY, the same of one over REGION, CREATE and DROP INDEX on TINY, ANALYZE and changes of
// the parallel degree. One serves its cached plans; the other
// plans every statement afresh (PlanEveryTime). After every statement both
// must show the same error or rows, the same meter lap and count of every
// event kind, and — after a SELECT — the same plan, as a prepared
// statement of the text explains it.
func TestCachedPlanMatchesFreshPlan(t *testing.T) {
	const sf, steps = 0.002, 400
	type side struct {
		db *engine.DB
		s  *engine.Session
	}
	var sides [2]side
	for i := range sides {
		db := engine.Open(engine.Config{})
		if err := tpcd.Load(db, dbgen.New(sf), nil); err != nil {
			t.Fatal(err)
		}
		coldStart(db)
		sides[i] = side{db, db.NewSession()}
	}
	defer engine.PlanEveryTime(false)
	// run executes sql on both sides, the second planning afresh, and
	// returns the plans a prepared statement of a SELECT text explains.
	run := func(step int, sql string) [2]string {
		t.Helper()
		var got, plans [2]string
		for i, sd := range sides {
			engine.PlanEveryTime(i == 1)
			res, err := sd.s.Exec(sql)
			var b strings.Builder
			if err != nil {
				fmt.Fprintf(&b, "error %v", err)
			} else {
				fmt.Fprintf(&b, "%d rows %x", len(res.Rows), sha256.Sum256(fmt.Append(nil, res.Rows)))
			}
			if strings.HasPrefix(sql, "SELECT") {
				if st, err := sd.s.Prepare(sql); err == nil {
					plans[i] = st.Explain()
				} else {
					plans[i] = err.Error()
				}
			}
			engine.PlanEveryTime(false)
			fmt.Fprintf(&b, "; lap %v;", sd.s.Meter.Elapsed())
			for k := cost.SeqRead; k <= cost.WalWrite; k++ {
				fmt.Fprintf(&b, " %s %d", k, sd.s.Meter.Count(k))
			}
			got[i] = b.String()
		}
		if got[0] != got[1] || plans[0] != plans[1] {
			t.Fatalf("step %d: %s\n cached: %s\n%s fresh:  %s\n%s", step, sql, got[0], plans[0], got[1], plans[1])
		}
		return plans
	}
	run(0, `CREATE TABLE tiny (t_k INTEGER PRIMARY KEY, t_ck INTEGER, t_nk INTEGER, t_pad CHAR(150))`)
	createWide := func(step int) {
		run(step, `CREATE TABLE wide (w_k INTEGER PRIMARY KEY, w_pad CHAR(1000))`)
		for _, sd := range sides {
			if err := sd.db.Analyze("WIDE"); err != nil {
				t.Fatal(err)
			}
		}
	}
	createWide(0)

	rng := rand.New(rand.NewSource(42))
	var queries []string
	for _, q := range tpcd.Queries(sf) {
		if len(q.SQL) == 1 {
			queries = append(queries, q.SQL[0])
		}
	}
	q15 := tpcd.Queries(sf)[14].SQL
	nextKey, wideKey, tinyView, regionView, index := 0, 0, false, false, false
	// insertRows runs one INSERT of n rows into table, each row's values
	// made by row.
	insertRows := func(step int, table string, n int, row func() string) {
		var b strings.Builder
		fmt.Fprintf(&b, `INSERT INTO %s VALUES `, table)
		for j := 0; j < n; j++ {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(row())
		}
		run(step, b.String())
	}
	insert := func(step, n int) {
		insertRows(step, "tiny", n, func() string {
			nextKey++
			return fmt.Sprintf("(%d, %d, %d, 'pad %d')", nextKey, 1+rng.Intn(300), rng.Intn(25), nextKey)
		})
	}
	insertWide := func(step, n int) {
		insertRows(step, "wide", n, func() string {
			wideKey++
			return fmt.Sprintf("(%d, 'pad %d')", wideKey, wideKey)
		})
	}
	insert(0, 3)
	// probe runs the seven size-following SELECTs after a write; sized
	// counts the plans that changed with no index DDL, ANALYZE, change of
	// degree or re-creation of WIDE since the text last ran: changes that
	// only a table's size explains.
	lastPlan, sized := map[string]string{}, 0
	probe := func(step int) {
		for _, sql := range planCacheSelects[:7] {
			p := run(step, sql)[1]
			if last, ok := lastPlan[sql]; ok && p != last {
				sized++
			}
			lastPlan[sql] = p
		}
	}
	for step := 1; step <= steps; step++ {
		switch r := rng.Intn(100); {
		case r < 25:
			run(step, planCacheSelects[rng.Intn(len(planCacheSelects))])
		case r < 35:
			run(step, queries[rng.Intn(len(queries))])
		case r < 55:
			insert(step, 1+rng.Intn(40))
			probe(step)
		case r < 63:
			insertWide(step, 1+rng.Intn(40))
			probe(step)
		case r < 67:
			lo := 1 + rng.Intn(nextKey)
			run(step, fmt.Sprintf(`DELETE FROM tiny WHERE t_k BETWEEN %d AND %d`, lo, lo+rng.Intn(30)))
			probe(step)
		case r < 73:
			// Keep at most the last 160 keys: TINY's row count crosses
			// the joins' switch points again and again, while its pages
			// only grow.
			run(step, fmt.Sprintf(`DELETE FROM tiny WHERE t_k <= %d`, nextKey-rng.Intn(160)))
			probe(step)
		case r < 76:
			run(step, `DROP TABLE wide`)
			createWide(step)
			wideKey = 0
			clear(lastPlan)
		case r < 80:
			for _, sql := range q15 {
				run(step, sql)
			}
		case r < 84:
			if tinyView = !tinyView; tinyView {
				run(step, tinyViews[rng.Intn(len(tinyViews))])
			} else {
				run(step, `DROP VIEW tiny_cust`)
			}
		case r < 88:
			if regionView = !regionView; regionView {
				run(step, `CREATE VIEW regions AS SELECT r_name FROM region`)
			} else {
				run(step, `DROP VIEW regions`)
			}
		case r < 92:
			if index = !index; index {
				run(step, `CREATE INDEX tiny_ck ON tiny (t_ck)`)
			} else {
				run(step, `DROP INDEX tiny_ck`)
			}
			clear(lastPlan)
		case r < 96:
			// TINY stays unanalyzed until the last quarter of the run.
			tables := []string{"ORDERS", "CUSTOMER", "NATION"}
			if step > steps*3/4 {
				tables = append(tables, "TINY")
			}
			name := tables[rng.Intn(len(tables))]
			for _, sd := range sides {
				if err := sd.db.Analyze(name); err != nil {
					t.Fatal(err)
				}
			}
			clear(lastPlan)
		default:
			degree := 2 * rng.Intn(2)
			for _, sd := range sides {
				sd.db.SetOptions(engine.Options{Parallel: degree})
			}
			clear(lastPlan)
		}
	}
	if sized == 0 {
		t.Fatal("fixture: no plan changed with a table's size alone")
	}
	t.Logf("%d rows inserted into TINY; %d plans changed with a table's size alone", nextKey, sized)
}

// TestPlanCacheServesQ1ToQ17: Q15 creates and drops its view on every run,
// and nothing else in Q1–Q17 changes what a plan read. After Q1–Q17 and
// Q15's three statements once more, a second round of Q1–Q17 is served
// every SELECT's cached plan — Q15's too, since its CREATE VIEW text comes
// back from the fingerprint cache as the same definition. A view made from
// another text is another definition: Q15's SELECT plans again over it.
func TestPlanCacheServesQ1ToQ17(t *testing.T) {
	const sf = 0.002
	db := engine.Open(engine.Config{})
	if err := tpcd.Load(db, dbgen.New(sf), nil); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	queries := tpcd.Queries(sf)
	// exec runs sql and returns the plan hits and misses it counted.
	exec := func(sql string) [2]int64 {
		before := db.Stats()
		if _, err := s.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		st := db.Stats()
		return [2]int64{st.PlanHits - before.PlanHits, st.PlanMisses - before.PlanMisses}
	}
	for _, q := range queries {
		for _, sql := range q.SQL {
			exec(sql)
		}
	}
	q15 := queries[14].SQL
	for _, sql := range q15 {
		exec(sql)
	}
	for _, q := range queries {
		for _, sql := range q.SQL {
			want := [2]int64{1, 0}
			if !strings.HasPrefix(strings.TrimSpace(sql), "SELECT") {
				want = [2]int64{}
			}
			if got := exec(sql); got != want {
				t.Errorf("Q%d %.40q: %d plan hits, %d misses; want %d, %d", q.Num, sql, got[0], got[1], want[0], want[1])
			}
		}
	}
	exec(q15[0] + " ")
	if got := exec(q15[1]); got != [2]int64{0, 1} {
		t.Errorf("Q15 over a view made from another text: %d plan hits, %d misses; want 0, 1", got[0], got[1])
	}
}
