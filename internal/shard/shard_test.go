package shard

import (
	"strings"
	"testing"

	"r3bench/internal/dbgen"
	"r3bench/internal/engine"
	"r3bench/internal/tpcd"
	"r3bench/internal/val"
)

// testSF matches the tpcd suite: 3000 orders, ~12000 lineitems — enough
// that every query returns rows and every exchange actually ships.
const testSF = 0.002

// encodeResult serializes a result byte-exactly: any difference in a
// value (down to the last float ulp) or in row order changes it.
func encodeResult(rows [][]val.Value) string {
	var b []byte
	for _, r := range rows {
		b = append(b, val.EncodeKey(r...)...)
		b = append(b, 0xFE, 0xFD)
	}
	return string(b)
}

// serialBaseline runs Q1–Q17 on a plain single engine and returns the
// encoded results — the ground truth every cluster shape must hit.
func serialBaseline(t *testing.T) []string {
	t.Helper()
	g := dbgen.New(testSF)
	db := engine.Open(engine.Config{})
	if err := tpcd.Load(db, g, nil); err != nil {
		t.Fatalf("load: %v", err)
	}
	impl := tpcd.NewRDBMS(db, g)
	enc := make([]string, 18)
	for q := 1; q <= 17; q++ {
		rows, err := impl.RunQuery(q)
		if err != nil {
			t.Fatalf("serial Q%d: %v", q, err)
		}
		enc[q] = encodeResult(rows)
	}
	return enc
}

func loadedCluster(t *testing.T, shards, parallel int) *Cluster {
	t.Helper()
	c := Open(Config{Shards: shards, Options: engine.Options{Parallel: parallel}})
	if err := c.Load(dbgen.New(testSF)); err != nil {
		t.Fatalf("cluster load (%d shards): %v", shards, err)
	}
	return c
}

func TestShardOfDeterministicAndBalanced(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		counts := make([]int, n)
		for key := int64(1); key <= 12000; key++ {
			s := shardOf(key, n)
			if s != shardOf(key, n) {
				t.Fatalf("shardOf(%d, %d) not deterministic", key, n)
			}
			counts[s]++
		}
		want := 12000 / n
		for s, got := range counts {
			if got < want/2 || got > want*2 {
				t.Errorf("n=%d shard %d holds %d of 12000 keys; want near %d", n, s, got, want)
			}
		}
	}
	// dbgen order keys are strided by 4; the mix must not collapse them
	// onto a subset of shards.
	counts := make([]int, 4)
	for key := int64(1); key <= 12000; key += 4 {
		counts[shardOf(key, 4)]++
	}
	for s, got := range counts {
		if got == 0 {
			t.Errorf("strided keys never reach shard %d", s)
		}
	}
}

func TestRewriteIdent(t *testing.T) {
	cases := []struct{ sql, from, to, want string }{
		{"SELECT * FROM lineitem, lineitem l2", "lineitem", "lineitem_sx",
			"SELECT * FROM lineitem_sx, lineitem_sx l2"},
		{"s_suppkey FROM supplier WHERE", "supplier", "supplier_gx",
			"s_suppkey FROM supplier_gx WHERE"},
		{"FROM suppliers", "supplier", "x", "FROM suppliers"}, // longer ident
		{"ps_partkey = p_partkey", "part", "part_bx", "ps_partkey = p_partkey"},
		{"revenue0 WHERE total_revenue = (SELECT MAX(total_revenue) FROM revenue0)",
			"revenue0", "revenue0_dx",
			"revenue0_dx WHERE total_revenue = (SELECT MAX(total_revenue) FROM revenue0_dx)"},
		{"customer", "customer", "customer_bx", "customer_bx"},
	}
	for _, tc := range cases {
		if got := rewriteIdent(tc.sql, tc.from, tc.to); got != tc.want {
			t.Errorf("rewriteIdent(%q, %q, %q) = %q; want %q", tc.sql, tc.from, tc.to, got, tc.want)
		}
	}
}

// TestClusterByteIdenticalAcrossShardCounts is the tentpole guarantee:
// every TPC-D query returns byte-identical results on 1-, 2-, 4- and
// 8-shard clusters, at intra-shard parallel degrees 1 and 2, because
// partials merge in shard order through exact accumulators and all
// ordering/LIMIT/HAVING decisions happen once, at the coordinator.
func TestClusterByteIdenticalAcrossShardCounts(t *testing.T) {
	serial := serialBaseline(t)
	for _, shards := range []int{1, 2, 4, 8} {
		for _, par := range []int{1, 2} {
			c := loadedCluster(t, shards, par)
			for q := 1; q <= 17; q++ {
				rows, err := c.RunQuery(q)
				if err != nil {
					t.Fatalf("shards=%d par=%d Q%d: %v", shards, par, q, err)
				}
				if got := encodeResult(rows); got != serial[q] {
					t.Errorf("shards=%d par=%d Q%d result differs from serial run", shards, par, q)
				}
			}
		}
	}
}

// TestClusterUpdateFunctions routes UF1/UF2 by the partitioning hash and
// checks the database returns to its pre-update state (UF2 deletes
// exactly what UF1 inserted), so queries still match the baseline.
func TestClusterUpdateFunctions(t *testing.T) {
	serial := serialBaseline(t)
	c := loadedCluster(t, 4, 1)
	if err := c.RunUF1(); err != nil {
		t.Fatalf("UF1: %v", err)
	}
	if err := c.RunUF2(); err != nil {
		t.Fatalf("UF2: %v", err)
	}
	for _, q := range []int{1, 4, 12} { // order/lineitem-heavy queries
		rows, err := c.RunQuery(q)
		if err != nil {
			t.Fatalf("post-UF Q%d: %v", q, err)
		}
		if encodeResult(rows) != serial[q] {
			t.Errorf("post-UF Q%d differs from baseline: UF1/UF2 not inverse", q)
		}
	}
}

// TestClusterMeterReconciliation asserts the exchange-boundary ledger:
// for every query, the recorded span tree's Total equals the cluster
// meter's lap over the call exactly — every lane combine, every NetShip
// charge, every coordinator finalize is attributed to some span node.
func TestClusterMeterReconciliation(t *testing.T) {
	for _, shards := range []int{1, 4} {
		c := loadedCluster(t, shards, 2)
		for q := 1; q <= 17; q++ {
			start := c.Meter().Elapsed()
			if _, err := c.RunQuery(q); err != nil {
				t.Fatalf("shards=%d Q%d: %v", shards, q, err)
			}
			lap := c.Meter().Elapsed() - start
			sp := c.LastSpan()
			if sp == nil {
				t.Fatalf("shards=%d Q%d: no span recorded", shards, q)
			}
			if sp.Total() != lap {
				t.Errorf("shards=%d Q%d: span total %v != meter lap %v", shards, q, sp.Total(), lap)
			}
		}
	}
}

// TestClusterShipsRows: with more than one shard every query moves at
// least its partial results over the network; a single shard ships
// nothing. The exchange classes that move base-table rows ship more
// than partial-only queries at the same shard count.
func TestClusterShipsRows(t *testing.T) {
	c1 := loadedCluster(t, 1, 1)
	c4 := loadedCluster(t, 4, 1)
	for q := 1; q <= 17; q++ {
		if _, err := c1.RunQuery(q); err != nil {
			t.Fatalf("1-shard Q%d: %v", q, err)
		}
		if _, err := c4.RunQuery(q); err != nil {
			t.Fatalf("4-shard Q%d: %v", q, err)
		}
		if got := c1.ShippedFor(q); got != 0 {
			t.Errorf("1-shard Q%d shipped %d rows; want 0", q, got)
		}
		if got := c4.ShippedFor(q); got <= 0 {
			t.Errorf("4-shard Q%d shipped %d rows; want > 0", q, got)
		}
	}
	// Q17 repartitions lineitem: it must dominate scan-class shipping.
	if c4.ShippedFor(17) <= c4.ShippedFor(1) {
		t.Errorf("shuffle Q17 shipped %d <= scan Q1 %d", c4.ShippedFor(17), c4.ShippedFor(1))
	}
	if c4.RowsShipped() <= 0 {
		t.Errorf("total rows shipped = %d; want > 0", c4.RowsShipped())
	}
}

// TestClusterSpansShowExchanges: the recorded operator tree names the
// exchange and carries its crossing-row count — the EXPLAIN ANALYZE
// surface for distributed runs.
func TestClusterSpansShowExchanges(t *testing.T) {
	c := loadedCluster(t, 4, 1)
	if _, err := c.RunQuery(3); err != nil {
		t.Fatalf("Q3: %v", err)
	}
	out := c.LastSpan().Render(c.model)
	for _, want := range []string{"broadcast(customer→customer_bx)", "partial execute", "gather-merge + finalize", "shard 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("Q3 span tree missing %q:\n%s", want, out)
		}
	}
}

// TestClusterScalesPowerTest: the whole point — the simulated power
// test gets faster as shards are added, because each shard scans a
// fraction of the facts and the exchanges ship far fewer rows than the
// scans save.
func TestClusterScalesPowerTest(t *testing.T) {
	c1 := loadedCluster(t, 1, 1)
	c4 := loadedCluster(t, 4, 1)
	s1 := c1.Meter().Elapsed()
	pr1 := tpcd.RunPowerTest(c1)
	e1 := c1.Meter().Elapsed() - s1
	s4 := c4.Meter().Elapsed()
	pr4 := tpcd.RunPowerTest(c4)
	e4 := c4.Meter().Elapsed() - s4
	for _, pr := range []*tpcd.PowerResult{pr1, pr4} {
		for _, st := range pr.Steps {
			if st.Err != nil {
				t.Fatalf("%s %s: %v", pr.Impl, st.Label, st.Err)
			}
		}
	}
	if e4*12 >= e1*10 { // require ≥1.2× on the tiny test SF
		t.Errorf("4-shard power test %v not faster than 1-shard %v", e4, e1)
	}
}
