package engine

import (
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

// TestFloatExpansionExactness hammers the Shewchuk expansion with
// adversarial operand streams — wild exponent spreads, heavy
// cancellation, denormals, values past the overflow guard — and checks
// that pouring the expansion into an exactSum yields the same
// correctly-rounded float64, bit for bit, as adding every input
// directly. This is the invariant that lets the batch executor defer its
// big.Float work.
func TestFloatExpansionExactness(t *testing.T) {
	tmp := new(big.Float).SetPrec(53)
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	randFloat := func(maxExp int) float64 {
		mant := float64(next()%(1<<53)) / (1 << 53)
		exp := int(next()%uint64(2*maxExp)) - maxExp
		f := math.Ldexp(mant, exp)
		if next()&1 == 0 {
			f = -f
		}
		return f
	}
	streams := map[string][]float64{
		"denormal-span": {5e-324, 1e308, -1e308, 5e-324, math.Ldexp(1, -1070)},
		"cancellation":  {1e16, 1, -1e16, 1e-8, 3.14, -1, -1e-8},
		"past-guard":    {4.5e307, 4.5e307, -4.5e307, 1.0, -4.5e307},
		"inf-guard":     {1, math.Inf(1), 2.5}, // both paths wedge at +Inf
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

	for name, vals := range streams {
		var ref exactSum
		var got exactSum
		var exp floatExp
		for _, x := range vals {
			ref.addTmp(x, new(big.Float).SetPrec(53))
			if !exp.add(x) {
				var st aggState
				st.exp, st.sum = exp, got
				st.flushExp(tmp)
				exp, got = st.exp, st.sum
				got.addTmp(x, tmp)
			}
		}
		var st aggState
		st.exp, st.sum = exp, got
		st.flushExp(tmp)
		got = st.sum
		r, g := ref.value(), got.value()
		if math.Float64bits(r) != math.Float64bits(g) {
			t.Errorf("%s: expansion sum %v (bits %x) != direct sum %v (bits %x)",
				name, g, math.Float64bits(g), r, math.Float64bits(r))
		}
	}
}
