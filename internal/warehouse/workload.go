package warehouse

import (
	"fmt"
	"math/rand"
	"strings"

	"r3bench/internal/engine"
	"r3bench/internal/val"
)

// A DWEB-style parameterized workload generator (Darmont et al., "Data
// Warehouse Benchmarking with DWEB"): instead of a fixed query set, a
// seeded generator with a handful of knobs — how many dimensions a
// query touches, how selective its predicates are, how deep drill-down
// chains go, what share of queries falls outside the aggregate
// vocabulary — emits unbounded decision-support workloads over the star
// schema. Every query is plain SQL text, so it exercises the engine's
// statement-fingerprint cache and the planner rewrite hook exactly as a
// client would.

// WorkloadSpec is the generator's knob set.
type WorkloadSpec struct {
	// Seed makes the workload reproducible: same spec, same queries.
	Seed int64
	// Queries is the total number of queries to emit.
	Queries int
	// MaxDims caps how many dimensions one query groups by (>= 1).
	MaxDims int
	// Selectivity is the probability that a query carries an extra
	// range/membership predicate on one of its cube's dimensions
	// (0 = never, 1 = always).
	Selectivity float64
	// DrillDepth is the maximum length of a drill-down chain: each step
	// adds one grouping dimension and pins the previous one to a member
	// value, the classic roll-up-to-drill-down navigation.
	DrillDepth int
	// MissShare is the fraction of queries deliberately generated
	// outside the aggregate vocabulary (grouping on L_QUANTITY or the
	// order date), so the rewrite pass must prove it leaves them alone.
	MissShare float64
}

// DefaultWorkload is the experiment's spec at a given seed.
func DefaultWorkload(seed int64, queries int) WorkloadSpec {
	return WorkloadSpec{
		Seed:        seed,
		Queries:     queries,
		MaxDims:     3,
		Selectivity: 0.6,
		DrillDepth:  3,
		MissShare:   0.25,
	}
}

// WorkloadQuery is one generated query.
type WorkloadQuery struct {
	SQL string
	// Rewritable marks queries inside the aggregate vocabulary: the
	// rewrite hook must hit exactly these and miss the rest.
	Rewritable bool
}

// wlDim is one grouping dimension the generator can touch.
type wlDim struct {
	expr    string
	values  []string // SQL-rendered member domain
	numeric bool     // range predicates make sense
}

func years() []string {
	out := make([]string, 0, 7)
	for y := 1992; y <= 1998; y++ {
		out = append(out, fmt.Sprint(y))
	}
	return out
}

func intRange(lo, hi int) []string {
	out := make([]string, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		out = append(out, fmt.Sprint(i))
	}
	return out
}

// hitCubes are the aggregation lattices the generator draws dimensions
// from, each a materialized aggregate's vocabulary: return flag, line
// status and month; nation and year.
var hitCubes = [][]wlDim{
	{
		{expr: "L_RETURNFLAG", values: []string{"'R'", "'A'", "'N'"}},
		{expr: "L_LINESTATUS", values: []string{"'O'", "'F'"}},
		{expr: "YEAR(L_SHIPDATE)", values: years(), numeric: true},
		{expr: "MONTH(L_SHIPDATE)", values: intRange(1, 12), numeric: true},
	},
	{
		{expr: "L_NATIONKEY", values: intRange(0, 24), numeric: true},
		{expr: "YEAR(L_SHIPDATE)", values: years(), numeric: true},
	},
}

// missDims group outside every aggregate's vocabulary; queries over
// them must run on the fact table in both modes.
var missDims = []wlDim{
	{expr: "L_QUANTITY", values: intRange(1, 50), numeric: true},
	{expr: "YEAR(L_ORDERDATE)", values: years(), numeric: true},
}

var measureSQL = []string{
	"SUM(L_QUANTITY)",
	"SUM(L_EXTENDEDPRICE)",
	"SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT))",
	"COUNT(*)",
}

// GenerateWorkload emits spec.Queries queries deterministically from
// spec.Seed.
func GenerateWorkload(spec WorkloadSpec) []WorkloadQuery {
	if spec.Queries <= 0 {
		return nil
	}
	if spec.MaxDims < 1 {
		spec.MaxDims = 1
	}
	if spec.DrillDepth < 1 {
		spec.DrillDepth = 1
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	var out []WorkloadQuery
	for len(out) < spec.Queries {
		if rng.Float64() < spec.MissShare {
			out = append(out, missQuery(rng))
			continue
		}
		out = append(out, drillChain(rng, spec, spec.Queries-len(out))...)
	}
	return out
}

// drillChain emits one drill-down navigation over a hit cube: the first
// query groups by one dimension; each further step adds the next
// dimension and pins the previous one to a member value.
func drillChain(rng *rand.Rand, spec WorkloadSpec, quota int) []WorkloadQuery {
	cube := hitCubes[rng.Intn(len(hitCubes))]
	order := rng.Perm(len(cube))
	depth := 1 + rng.Intn(spec.DrillDepth)
	if depth > len(order) {
		depth = len(order)
	}
	if depth > spec.MaxDims {
		depth = spec.MaxDims
	}
	if depth > quota {
		depth = quota
	}
	var out []WorkloadQuery
	var pins []string
	for step := 0; step < depth; step++ {
		dims := make([]wlDim, 0, step+1)
		for _, di := range order[:step+1] {
			dims = append(dims, cube[di])
		}
		var preds []string
		preds = append(preds, pins...)
		// Extra selectivity predicates draw from the dimensions not yet
		// pinned by the drill-down, so a chain never contradicts itself.
		if free := order[step:]; rng.Float64() < spec.Selectivity && len(free) > 0 {
			if p := rangePred(rng, cube[free[rng.Intn(len(free))]]); p != "" {
				preds = append(preds, p)
			}
		}
		out = append(out, WorkloadQuery{
			SQL:        assemble(rng, dims, preds),
			Rewritable: true,
		})
		// Drill down: pin the dimension just grouped to one member.
		d := cube[order[step]]
		pins = append(pins, fmt.Sprintf("%s = %s", d.expr, d.values[rng.Intn(len(d.values))]))
	}
	return out
}

// missQuery emits one deliberately non-rewritable query.
func missQuery(rng *rand.Rand) WorkloadQuery {
	d := missDims[rng.Intn(len(missDims))]
	var preds []string
	if rng.Float64() < 0.5 {
		if p := rangePred(rng, d); p != "" {
			preds = append(preds, p)
		}
	}
	return WorkloadQuery{
		SQL:        assemble(rng, []wlDim{d}, preds),
		Rewritable: false,
	}
}

// rangePred builds one selectivity predicate on a dimension: BETWEEN on
// numeric domains, IN on categorical ones.
func rangePred(rng *rand.Rand, d wlDim) string {
	n := len(d.values)
	if n < 2 {
		return ""
	}
	if d.numeric {
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo)
		return fmt.Sprintf("%s BETWEEN %s AND %s", d.expr, d.values[lo], d.values[hi])
	}
	k := 1 + rng.Intn(n-1)
	picks := rng.Perm(n)[:k]
	members := make([]string, 0, k)
	for _, p := range picks {
		members = append(members, d.values[p])
	}
	return fmt.Sprintf("%s IN (%s)", d.expr, strings.Join(members, ", "))
}

// Fingerprint renders a result's row values byte-stably for
// rewrite-on/off and refresh-vs-rebuild identity checks. Only values
// are rendered — the rewritten shape gives synthetic names to unnamed
// expression columns — with floats at the same 4 decimal places TPC-D
// answer checking uses. The stored money amounts are multiples of
// 0.0001 far from any rounding boundary, so the engine's exact
// summation makes both query shapes render identically.
func Fingerprint(res *engine.Result) string {
	var b strings.Builder
	for _, row := range res.Rows {
		for i, v := range row {
			if i > 0 {
				b.WriteByte('|')
			}
			switch v.K {
			case val.KFloat:
				fmt.Fprintf(&b, "%.4f", v.F)
			case val.KInt:
				fmt.Fprintf(&b, "%d", v.I)
			case val.KNull:
				b.WriteString("NULL")
			default:
				b.WriteString(v.AsStr())
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// assemble renders the query: grouped dimensions, a random non-empty
// measure subset, predicates AND-ed, ORDER BY every group key (group
// keys are unique, so the output order is total in both the base and
// rewritten shapes).
func assemble(rng *rand.Rand, dims []wlDim, preds []string) string {
	var sel []string
	var group []string
	var order []string
	for _, d := range dims {
		sel = append(sel, d.expr)
		group = append(group, d.expr)
		dir := ""
		if rng.Intn(4) == 0 {
			dir = " DESC"
		}
		order = append(order, d.expr+dir)
	}
	picked := false
	for _, m := range measureSQL {
		if rng.Intn(2) == 0 {
			sel = append(sel, m)
			picked = true
		}
	}
	if !picked {
		sel = append(sel, measureSQL[rng.Intn(len(measureSQL))])
	}
	var b strings.Builder
	b.WriteString("SELECT ")
	b.WriteString(strings.Join(sel, ", "))
	b.WriteString(" FROM LINEITEM_F")
	if len(preds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(preds, " AND "))
	}
	b.WriteString(" GROUP BY ")
	b.WriteString(strings.Join(group, ", "))
	b.WriteString(" ORDER BY ")
	b.WriteString(strings.Join(order, ", "))
	return b.String()
}
