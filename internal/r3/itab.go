package r3

import (
	"sort"
	"strings"

	"r3bench/internal/cost"
	"r3bench/internal/val"
)

// ITab is an ABAP internal table: the application server's in-memory
// (but paging) row store that Release 2.2 reports use to materialize
// intermediate results and that both releases use for client-side
// grouping and aggregation.
//
// Its GroupBy deliberately follows SAP R/3's two-phase strategy the paper
// measures in Section 4.2: "first, sorting and writing the sorted result
// to secondary storage, and then re-reading the sorted table to perform
// the grouping" — unlike the RDBMS's pipelined sort-group. It is also
// "not possible to define indexes on temporary tables" (Section 2.3), so
// lookups are linear.
type ITab struct {
	meter *cost.Meter
	cols  map[string]int
	names []string
	rows  [][]val.Value
	// free is the unused tail of the chunk rows are carved from: a chunk
	// holds as many rows as the table already has, at least four, at most
	// itabChunkMax values. Sort permutes rows, never the values under them.
	free []val.Value
	// chars holds the rows' CHAR bytes: an internal table is a copy, and
	// keeps no page image alive.
	chars val.Slab
	// singlePass selects streaming hash grouping for GroupBy instead of
	// the two-phase sort-materialize-rescan strategy, fixed when the
	// table is declared; see System.NewITab.
	singlePass bool
}

// NewITab declares an internal table with the given field names, grouping
// by the paper's two-phase strategy.
func NewITab(m *cost.Meter, fields ...string) *ITab {
	t := &ITab{meter: m, cols: make(map[string]int, len(fields)), names: fields}
	for i, f := range fields {
		t.cols[f] = i
	}
	return t
}

// NewITab declares an internal table on this system's application server:
// it groups by the strategy of the system's options at the moment of
// declaration (Options.ITabSinglePass). Reports declare their work tables
// here, so the Table 7 ablation reaches them through the system's options
// and one system's experiment never changes another system's reports.
func (sys *System) NewITab(m *cost.Meter, fields ...string) *ITab {
	t := NewITab(m, fields...)
	t.singlePass = sys.itabSinglePass.Load()
	return t
}

// itabChunkMax bounds the value count of an internal table's row chunk.
const itabChunkMax = 1024

// Append adds a copy of one row (APPEND TO itab).
func (t *ITab) Append(vals ...val.Value) {
	t.meter.Charge(cost.TupleCPU, 1)
	if len(vals) > len(t.free) {
		n := min(max(4, len(t.rows))*len(vals), itabChunkMax)
		t.free = make([]val.Value, max(n, len(vals)))
	}
	row := t.free[:len(vals):len(vals)]
	t.free = t.free[len(vals):]
	copy(row, vals)
	t.chars.Own(row)
	t.rows = append(t.rows, row)
}

// Len returns the row count.
func (t *ITab) Len() int { return len(t.rows) }

// Rows exposes the raw rows (read-only by convention).
func (t *ITab) Rows() [][]val.Value { return t.rows }

// Col returns a field's position.
func (t *ITab) Col(name string) int { return t.cols[name] }

// Get reads field name of row i.
func (t *ITab) Get(i int, name string) val.Value { return t.rows[i][t.cols[name]] }

// estRowBytes models the paged size of one internal-table row.
func (t *ITab) estRowBytes() int64 { return int64(len(t.names)) * 24 }

// chargeSort charges the comparison CPU of sorting n rows.
func (t *ITab) chargeSort(n int) {
	cost.ChargeComparisons(t.meter, int64(n), int64(n))
}

// Sort orders the table by the given fields ascending (SORT itab BY ...).
func (t *ITab) Sort(fields ...string) {
	idx := make([]int, len(fields))
	for i, f := range fields {
		idx[i] = t.cols[f]
	}
	t.chargeSort(len(t.rows))
	sort.SliceStable(t.rows, func(a, b int) bool {
		for _, ci := range idx {
			if c := val.Compare(t.rows[a][ci], t.rows[b][ci]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}

// Agg describes one aggregate computed by GroupBy: Fn over the value
// produced by Of (an arbitrary client-side expression — this is exactly
// what Open SQL cannot push down).
type Agg struct {
	Fn string // SUM, AVG, COUNT, MIN, MAX
	Of func(row []val.Value) val.Value
}

// aggAcc is one aggregate's running state over the rows of one group. The
// zero aggAcc has seen none: min and max are NULL.
type aggAcc struct {
	sum      float64
	count    int64
	min, max val.Value
}

// add folds v in for the aggregate fn; NULL counts for nothing. Only SUM and
// AVG read v as a number: COUNT, MIN and MAX take CHAR values as they are.
func (a *aggAcc) add(fn string, v val.Value) {
	if v.IsNull() {
		return
	}
	a.count++
	if fn == "SUM" || fn == "AVG" {
		a.sum += v.AsFloat()
	}
	if a.min.IsNull() || val.Compare(v, a.min) < 0 {
		a.min = v
	}
	if a.max.IsNull() || val.Compare(v, a.max) > 0 {
		a.max = v
	}
}

// result returns the aggregate fn of what was added.
func (a *aggAcc) result(fn string) val.Value {
	switch {
	case fn == "COUNT":
		return val.Int(a.count)
	case fn == "SUM" && a.count > 0:
		return val.Float(a.sum)
	case fn == "AVG" && a.count > 0:
		return val.Float(a.sum / float64(a.count))
	case fn == "MIN":
		return a.min
	case fn == "MAX":
		return a.max
	}
	return val.Null
}

// GroupBy performs SAP-style two-phase grouping: sort by the key fields,
// write the sorted table to secondary storage, re-read it, and emit one
// row of key values + aggregate results per group. The materialization
// I/O is what makes this >3× the RDBMS's pipelined grouping (Table 7).
// A table declared single-pass (Options.ITabSinglePass) instead
// hash-groups in one streaming pass.
func (t *ITab) GroupBy(keys []string, aggs []Agg, emit func(keyVals []val.Value, aggVals []val.Value) error) error {
	if t.singlePass {
		return t.groupBySinglePass(keys, aggs, emit)
	}
	t.Sort(keys...)
	// Phase 1.5: materialize the sorted table to secondary storage and
	// re-read it (EXTRACT ... SORT ... LOOP in ABAP terms).
	pages := int64(len(t.rows))*t.estRowBytes()/8192 + 1
	t.meter.Charge(cost.PageWrite, pages)
	t.meter.Charge(cost.SeqRead, pages)

	idx := make([]int, len(keys))
	for i, k := range keys {
		idx[i] = t.cols[k]
	}
	sameKey := func(a, b []val.Value) bool {
		for _, ci := range idx {
			if val.Compare(a[ci], b[ci]) != 0 {
				return false
			}
		}
		return true
	}
	var start int
	flush := func(end int) error {
		if end == start {
			return nil
		}
		group := t.rows[start:end]
		keyVals := make([]val.Value, len(idx))
		for i, ci := range idx {
			keyVals[i] = group[0][ci]
		}
		aggVals := make([]val.Value, len(aggs))
		for ai, a := range aggs {
			var acc aggAcc
			for _, row := range group {
				t.meter.Charge(cost.TupleCPU, 1)
				acc.add(a.Fn, a.Of(row))
			}
			aggVals[ai] = acc.result(a.Fn)
		}
		return emit(keyVals, aggVals)
	}
	for i := 1; i <= len(t.rows); i++ {
		if i == len(t.rows) || !sameKey(t.rows[i], t.rows[start]) {
			if err := flush(i); err != nil {
				return err
			}
			start = i
		}
	}
	return nil
}

// groupBySinglePass is GroupBy's streaming strategy: one pass hashes
// every row into its group's running accumulators (charging a hash probe
// plus the same per-row aggregate evaluation the two-phase loop
// charges), then only the G result groups sort for key-ordered emission.
// The full-table sort and the secondary-storage materialization of the
// two-phase strategy disappear entirely. The emitted groups, their order
// and every aggregate value are identical (Go's stable sort keeps
// within-group rows in append order, so both strategies accumulate each
// group's floats in the same sequence); only the charged work changes.
// The EXPERIMENTS Table 7 ablation uses this to ask how much of the
// client-side grouping penalty is strategy rather than interface.
//
// Groups form by the key fields' val.Compare equality, matching the
// two-phase sameKey test: CHAR values right-trim before hashing because
// val.Compare treats trailing spaces as insignificant.
func (t *ITab) groupBySinglePass(keys []string, aggs []Agg, emit func(keyVals []val.Value, aggVals []val.Value) error) error {
	idx := make([]int, len(keys))
	for i, k := range keys {
		idx[i] = t.cols[k]
	}
	// Groups are numbered in first-seen order; group g's key values are
	// keyVals[g*len(idx):] and its accumulators accs[g*len(aggs):].
	var groups val.KeyTable
	var keyVals []val.Value
	var accs []aggAcc
	keyBuf := make([]byte, 0, 64)
	for _, row := range t.rows {
		t.meter.Charge(cost.TupleCPU, 1) // hash the grouping key, probe the table
		keyBuf = keyBuf[:0]
		for _, ci := range idx {
			v := row[ci]
			if v.K == val.KStr {
				v = val.Str(strings.TrimRight(v.S, " "))
			}
			keyBuf = val.AppendKey(keyBuf, v)
		}
		g, isNew := groups.Insert(keyBuf)
		if isNew {
			for _, ci := range idx {
				keyVals = append(keyVals, row[ci])
			}
			accs = append(accs, make([]aggAcc, len(aggs))...)
		}
		for ai := range aggs {
			t.meter.Charge(cost.TupleCPU, 1)
			accs[int(g)*len(aggs)+ai].add(aggs[ai].Fn, aggs[ai].Of(row))
		}
	}
	// Sort only the groups so emission order matches the two-phase
	// strategy's sorted output.
	keysOf := func(g int32) []val.Value {
		at := int(g) * len(idx)
		return keyVals[at : at+len(idx) : at+len(idx)]
	}
	order := make([]int32, groups.Len())
	for g := range order {
		order[g] = int32(g)
	}
	t.chargeSort(len(order))
	sort.SliceStable(order, func(a, b int) bool {
		ka, kb := keysOf(order[a]), keysOf(order[b])
		for i := range idx {
			if c := val.Compare(ka[i], kb[i]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	for _, g := range order {
		aggVals := make([]val.Value, len(aggs))
		for ai, a := range aggs {
			aggVals[ai] = accs[int(g)*len(aggs)+ai].result(a.Fn)
		}
		if err := emit(keysOf(g), aggVals); err != nil {
			return err
		}
	}
	return nil
}

// LookupSorted binary-searches a table previously Sorted by field (READ
// TABLE ... BINARY SEARCH).
func (t *ITab) LookupSorted(field string, v val.Value) ([]val.Value, bool) {
	ci := t.cols[field]
	lo, hi := 0, len(t.rows)
	for lo < hi {
		mid := (lo + hi) / 2
		t.meter.Charge(cost.TupleCPU, 1)
		if val.Compare(t.rows[mid][ci], v) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(t.rows) && val.Compare(t.rows[lo][ci], v) == 0 {
		return t.rows[lo], true
	}
	return nil, false
}
