package engine

import (
	"fmt"
	"math"
	"math/big"
	"testing"
	"time"

	"r3bench/internal/val"
)

// vecQueries exercises every pipeline shape plus the batch-boundary edge
// cases: an empty input, an empty result, results smaller than one
// batch, results spanning several batch growths (64/256/1024 flush
// points at 1500 rows), LIMIT cutting mid-batch, and the blocks that can
// stop early and so run at batch capacity 1 (LIMIT without ORDER BY,
// correlated EXISTS).
var vecQueries = []string{
	`SELECT id, v FROM tt WHERE grp = 1`,
	`SELECT id, v FROM tt WHERE grp = 999`, // empty result
	`SELECT COUNT(*), SUM(v) FROM te`,      // aggregate over empty input
	`SELECT id FROM te`,                    // empty batch end to end
	`SELECT grp, COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM tt GROUP BY grp ORDER BY grp`,
	`SELECT g_name, SUM(v) FROM tt, dim WHERE grp = g_id GROUP BY g_name ORDER BY g_name`,
	`SELECT DISTINCT grp FROM tt ORDER BY grp`,
	`SELECT id, v FROM tt ORDER BY v DESC, id LIMIT 7`, // LIMIT mid-batch
	`SELECT id FROM tt WHERE grp = 2 LIMIT 5`,          // early stop mid-scan
	`SELECT grp, COUNT(*) FROM tt WHERE v > 500 GROUP BY grp HAVING COUNT(*) > 10 ORDER BY grp`,
	`SELECT t.id, d.g_name FROM tt t LEFT OUTER JOIN dim d ON t.grp = d.g_id WHERE t.id < 70 ORDER BY t.id`,
	`SELECT id FROM tt WHERE EXISTS (SELECT g_id FROM dim WHERE g_id = grp AND g_name = 'GROUP1') ORDER BY id LIMIT 9`,
	`SELECT g_id FROM dim WHERE EXISTS (SELECT id FROM tt WHERE grp = g_id) ORDER BY g_id`, // correlated scan stops at its first match
	`SELECT g_name, id FROM dim, tt WHERE g_id = grp LIMIT 5`,                              // early stop inside a multi-match hash probe
	`SELECT t.id, d.g_name FROM tt t LEFT OUTER JOIN dim d ON t.grp = d.g_id LIMIT 3`,      // early stop inside a row-at-a-time step
}

func encodeRows(rows [][]val.Value) string {
	var b []byte
	for _, r := range rows {
		b = append(b, val.EncodeKey(r...)...)
		b = append(b, 0xFE, 0xFD)
	}
	return string(b)
}

// TestArrayFetchPackets pins the array interface's charging model: a
// query shipping R rows records ceil(R/cost.ArrayFetchRows) packets,
// zero-row results ship zero packets, and the engine's interface
// counters see calls, rows and packets.
func TestArrayFetchPackets(t *testing.T) {
	vec := vecDB(t, 150, 0)
	vec.db.SetOptions(Options{ArrayFetch: true})
	base := vec.db.Stats()
	res := mustExec(t, vec, `SELECT id FROM tt`)
	if len(res.Rows) != 150 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	st := vec.db.Stats()
	if got := st.RowsShipped - base.RowsShipped; got != 150 {
		t.Errorf("rows shipped = %d, want 150", got)
	}
	if got := st.Packets - base.Packets; got != 2 { // ceil(150/100)
		t.Errorf("packets = %d, want 2", got)
	}
	if st.InterfaceCalls <= base.InterfaceCalls {
		t.Errorf("interface calls did not advance")
	}
	base = st
	mustExec(t, vec, `SELECT id FROM tt WHERE grp = 999`)
	st = vec.db.Stats()
	if got := st.Packets - base.Packets; got != 0 {
		t.Errorf("empty result shipped %d packets, want 0", got)
	}
}

// TestArrayFetchCheaperForBigResults pins the point of the array
// interface: shipping a large result in packets costs less simulated
// time than per-row shipping, and returns the same rows.
func TestArrayFetchCheaperForBigResults(t *testing.T) {
	s := vecDB(t, 1500, 0)
	lap := func() (string, time.Duration) {
		start := s.Meter.Elapsed()
		res := mustExec(t, s, `SELECT id, v FROM tt`)
		return encodeRows(res.Rows), s.Meter.Lap(start)
	}
	perRow, perRowLap := lap()
	s.db.SetOptions(Options{ArrayFetch: true})
	array, arrayLap := lap()
	if array != perRow {
		t.Fatal("array fetch changed the result")
	}
	if arrayLap >= perRowLap {
		t.Errorf("array fetch cost %v, not cheaper than per-row %v", arrayLap, perRowLap)
	}
}

// TestFloatExpansionExactness holds the exact SUM to direct summation:
// for adversarial operand streams — half-ulp ties decided three or more
// components down, heavy cancellation, subnormals, values past expGuard,
// streams whose expansion outgrows expCap, sums past the float64 range —
// the SUM an aggregate state finalizes equals, bit for bit, the
// correctly rounded sum that adding every input to a 2200-bit big.Float
// gives. Each stream also runs split into 2–8 lanes (at most one per
// value), each lane folded on its own and the lanes merged into a fresh
// state in every order: the invariant that makes parallel and sharded
// aggregates byte-identical to the serial one.
func TestFloatExpansionExactness(t *testing.T) {
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	sign := func(f float64) float64 {
		if next()&1 == 0 {
			return -f
		}
		return f
	}
	randFloat := func(maxExp int) float64 {
		mant := float64(next()%(1<<53)) / (1 << 53)
		exp := int(next()%uint64(2*maxExp)) - maxExp
		return sign(math.Ldexp(mant, exp))
	}
	streams := map[string][]float64{
		"denormal-span":   {5e-324, 1e308, -1e308, 5e-324, math.Ldexp(1, -1070)},
		"cancellation":    {1e16, 1, -1e16, 1e-8, 3.14, -1, -1e-8},
		"past-guard":      {4.5e307, 4.5e307, -4.5e307, 1.0, -4.5e307},
		"inf-guard":       {1, math.Inf(1), 2.5},
		"neg-inf":         {-1e300, math.Inf(-1), 7},
		"overflow-to-inf": {1.7e308, 1.7e308, 1},
		"overflow-back":   {1.7e308, 1.7e308, -1.7e308, 1e-300},
		"tie-even-down":   {1, 0x1p-53},
		"tie-even-up":     {1 + 0x1p-52, 0x1p-53},
		"tie-broken-up":   {1, 0x1p-53, 0x1p-106},
		"tie-broken-down": {1, 0x1p-53, -0x1p-106},
		"tie-four":        {0x1p60, 0x1p7, 0x1p-50, 0x1p-110},
		"tie-four-down":   {-0x1p60, -0x1p7, 0x1p-60, -0x1p-120},
		"empty-result":    {0x1p-1074, -0x1p-1074},
	}
	// Ties decided far down: a, half an ulp of a, then one or two terms
	// far below that tip it or not.
	for i := 0; i < 40; i++ {
		a := randFloat(60)
		half := sign(math.Abs(math.Nextafter(a, math.Inf(1))-a) / 2)
		s := []float64{a, half}
		for k := int(next() % 3); k >= 0; k-- {
			s = append(s, sign(math.Ldexp(1, int(next()%40)-120+math.Ilogb(a))))
		}
		streams[fmt.Sprintf("tie-random-%d", i)] = s
	}
	wide := make([]float64, 400)
	for i := range wide {
		wide[i] = randFloat(1000) // forces expansions far past expCap
	}
	streams["wide-exponents"] = wide
	narrow := make([]float64, 1000)
	for i := range narrow {
		narrow[i] = randFloat(40) // the realistic aggregate regime
	}
	streams["narrow-exponents"] = narrow
	subnormal := make([]float64, 300)
	for i := range subnormal {
		subnormal[i] = sign(math.Float64frombits(next() % (1 << 52)))
		if i%10 == 0 {
			subnormal[i] = sign(math.Ldexp(1, -1022+int(next()%4)))
		}
	}
	streams["subnormals"] = subnormal
	huge := make([]float64, 200)
	for i := range huge {
		huge[i] = sign(math.Ldexp(1+float64(next()%(1<<52))/(1<<52), 1015+int(next()%9)))
		if i%3 == 0 {
			huge[i] = randFloat(30)
		}
	}
	streams["huge"] = huge

	for name, vals := range streams {
		want := directSum(vals)
		check := func(how string, got float64) {
			t.Helper()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s %s: sum %v (bits %x), direct big.Float sum %v (bits %x)",
					name, how, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		check("serial", sumMerged([]aggState{sumLane(vals)}, []int{0}))
		for k := 2; k <= min(8, max(2, len(vals))); k++ {
			lanes := make([]aggState, k)
			for i := range lanes {
				lanes[i] = sumLane(vals[i*len(vals)/k : (i+1)*len(vals)/k])
			}
			order := make([]int, k)
			for i := range order {
				order[i] = i
			}
			failed := false
			permute(order, len(order), func() {
				if got := sumMerged(lanes, order); !failed && math.Float64bits(got) != math.Float64bits(want) {
					failed = true
					check(fmt.Sprintf("%d lanes merged in order %v", k, order), got)
				}
			})
		}
	}
}

// directSum is the reference: every input added to a big.Float wide enough
// that no addition rounds, then rounded to float64 once.
func directSum(vals []float64) float64 {
	acc := new(big.Float).SetPrec(exactSumPrec)
	for _, x := range vals {
		acc.Add(acc, new(big.Float).SetFloat64(x))
	}
	f, _ := acc.Float64()
	return f
}

// permute calls fn with every order of a[:n] (Heap's algorithm).
func permute(a []int, n int, fn func()) {
	if n <= 1 {
		fn()
		return
	}
	for i := 0; i < n-1; i++ {
		permute(a, n-1, fn)
		if n%2 == 0 {
			a[i], a[n-1] = a[n-1], a[i]
		} else {
			a[0], a[n-1] = a[n-1], a[0]
		}
	}
	permute(a, n-1, fn)
}

// sumSpec is the SUM aggregate the exactness test folds values into.
var sumSpec = aggSpec{fn: "SUM"}

// sumLane folds vals into a fresh SUM state, as one lane of an aggregate
// does, and readies it to be merged.
func sumLane(vals []float64) aggState {
	var st aggState
	for _, x := range vals {
		st.fold(sumSpec.fn, val.Float(x))
	}
	return st
}

// sumMerged merges lanes into a fresh state in the given order and returns
// its finalized SUM.
func sumMerged(lanes []aggState, order []int) float64 {
	var st aggState
	for _, i := range order {
		st.merge(&lanes[i])
	}
	st.nonNull = true // a stream of no values still finalizes its sum
	return st.result(sumSpec).AsFloat()
}
