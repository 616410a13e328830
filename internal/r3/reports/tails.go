package reports

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"r3bench/internal/r3"
	"r3bench/internal/val"
)

// A report is a fetch and a tail. The fetch belongs to the strategy
// (open22.go, open30.go, native22.go, native30.go): what it sends through
// Open SQL or Native SQL and what it keeps of each row that comes back. The
// tail belongs to the query and is written once, here: the internal-table
// GROUP BY and the shape of its output, an accumulator where the ABAP keeps
// running variables, the final order and the top-N cut — the same ABAP
// whichever way the rows crossed the database interface (paper Section
// 4.2). A fetch returns its query's tail filled; RunQuery finishes it.
//
// Tails address their work table by field name. Of what happens here only
// ITab.Append, GroupBy and Sort charge the simulated clock; the plain-Go
// accumulators and sortRows do not (EXPERIMENTS.md, known deviations).

// tail is the application-server half of a report, holding what the fetch
// handed it; rows finishes the report.
type tail interface {
	rows() ([][]val.Value, error)
}

// fetch is a strategy's half of a report: it returns the query's tail,
// filled. A fetchTable holds a strategy's seventeen, indexed by query
// number (entry 0 stays nil).
type (
	fetch      func() (tail, error)
	fetchTable [18]fetch
)

// done is the tail of a report pushed down whole: the rows are the answer.
type done [][]val.Value

func (d done) rows() ([][]val.Value, error) { return d, nil }

// aggOf is the client-side expression an aggregate runs over; a pricing
// finds a work table's revenue expression.
type (
	aggOf   = func(row []val.Value) val.Value
	pricing func(*r3.ITab) aggOf
)

// col aggregates over a work table's field as it stands.
func col(work *r3.ITab, field string) aggOf {
	i := work.Col(field)
	return func(r []val.Value) val.Value { return r[i] }
}

// revCol is the pricing of the Open SQL fetches, which compute NETWR × (1 −
// discount) as they append and aggregate over that REV column.
func revCol(work *r3.ITab) aggOf { return col(work, "REV") }

// netOf is the pricing of Native SQL 2.2, which groups its fetch table
// where it lies: the same product from the row's NETWR and DISC.
func netOf(tab *r3.ITab) aggOf {
	netwr, disc := tab.Col("NETWR"), tab.Col("DISC")
	return func(r []val.Value) val.Value {
		return val.Float(r[netwr].AsFloat() * (1 - r[disc].AsFloat()))
	}
}

// sumBy groups work by keys and hands each group's key values and SUM(of)
// to emit.
func sumBy(work *r3.ITab, keys []string, of aggOf, emit func(kv []val.Value, sum val.Value)) error {
	return work.GroupBy(keys, []r3.Agg{{Fn: "SUM", Of: of}}, func(kv, av []val.Value) error {
		emit(kv, av[0])
		return nil
	})
}

// sortRows orders final client-side results.
func sortRows(rows [][]val.Value, keys []int, desc []bool) {
	sort.SliceStable(rows, func(a, b int) bool {
		for i, k := range keys {
			c := val.Compare(rows[a][k], rows[b][k])
			if c == 0 {
				continue
			}
			if desc[i] {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

// sortedKeys lists an accumulator's keys in order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// top keeps the first n rows.
func top(rows [][]val.Value, n int) [][]val.Value {
	if len(rows) > n {
		return rows[:n]
	}
	return rows
}

// q1Work is Q1's work table — RF, LS, QTY, BASE, DISCP, CHARGE, DISC — and
// its tail: the pricing summary per (return flag, line status).
type q1Work struct{ *r3.ITab }

func (w q1Work) add(rf, ls, qty val.Value, base, d, t float64) {
	w.Append(rf, ls, qty, val.Float(base),
		val.Float(base*(1-d)), val.Float(base*(1-d)*(1+t)), val.Float(d))
}

func (w q1Work) rows() ([][]val.Value, error) {
	work := w.ITab
	var out [][]val.Value
	err := work.GroupBy([]string{"RF", "LS"}, []r3.Agg{
		{Fn: "SUM", Of: col(work, "QTY")},
		{Fn: "SUM", Of: col(work, "BASE")},
		{Fn: "SUM", Of: col(work, "DISCP")},
		{Fn: "SUM", Of: col(work, "CHARGE")},
		{Fn: "AVG", Of: col(work, "QTY")},
		{Fn: "AVG", Of: col(work, "BASE")},
		{Fn: "AVG", Of: col(work, "DISC")},
		{Fn: "COUNT", Of: col(work, "RF")},
	}, func(kv, av []val.Value) error {
		out = append(out, append(append([]val.Value(nil), kv...), av...))
		return nil
	})
	return out, err
}

// q2Offers is Q2's tail: the minimum-cost offers in order, the first hundred.
type q2Offers [][]val.Value

func (out q2Offers) rows() ([][]val.Value, error) {
	sortRows(out, []int{0, 2, 1, 3}, []bool{true, false, false, false})
	return top(out, 100), nil
}

// q3Work is Q3's tail: revenue per (VBELN, AUDAT, LPRIO), the ten largest.
type q3Work struct {
	*r3.ITab
	rev pricing
}

func (w q3Work) rows() ([][]val.Value, error) {
	var out [][]val.Value
	err := sumBy(w.ITab, []string{"VBELN", "AUDAT", "LPRIO"}, w.rev(w.ITab), func(kv []val.Value, sum val.Value) {
		out = append(out, []val.Value{kv[0], sum, kv[1], kv[2]})
	})
	sortRows(out, []int{1, 2}, []bool{true, false})
	return top(out, 10), err
}

// tally counts rows per key and emits (key, count) in key order: Q13's
// orders per priority in Open SQL 2.2, and the counting half of Q4.
type tally map[string]int64

func (t tally) rows() ([][]val.Value, error) {
	var out [][]val.Value
	for _, k := range sortedKeys(t) {
		out = append(out, []val.Value{val.Str(k), val.Int(t[k])})
	}
	return out, nil
}

// orderTally is Q4's accumulator: late orders per priority, an order
// counted once however many of its items are late — the EXISTS that Open
// SQL cannot express.
type orderTally struct {
	tally
	seen map[string]bool
}

func newOrderTally() orderTally { return orderTally{tally{}, map[string]bool{}} }

func (o orderTally) add(vbeln, priority string) {
	if o.seen[vbeln] {
		return
	}
	o.seen[vbeln] = true
	o.tally[priority]++
}

// q5Work is Q5's tail: revenue per LANDX, largest first.
type q5Work struct {
	*r3.ITab
	rev pricing
}

func (w q5Work) rows() ([][]val.Value, error) {
	var out [][]val.Value
	err := sumBy(w.ITab, []string{"LANDX"}, w.rev(w.ITab), func(kv []val.Value, sum val.Value) {
		out = append(out, []val.Value{kv[0], sum})
	})
	sortRows(out, []int{1}, []bool{true})
	return out, err
}

// discountRevenue is Q6's running sum: the revenue given away as discount.
type discountRevenue struct{ sum float64 }

// inQ6Range is Q6's discount predicate where it cannot be pushed down.
func inQ6Range(d float64) bool { return d >= 0.05 && d <= 0.07 }

func (a *discountRevenue) add(netwr, d float64) { a.sum += netwr * d }

func (a *discountRevenue) rows() ([][]val.Value, error) {
	return [][]val.Value{{val.Float(a.sum)}}, nil
}

// q7Work is Q7's work table — SUPP, CUST, YR, REV — and its tail: revenue
// per (SUPP, CUST, YR), which grouping leaves in the order asked for.
type q7Work struct{ *r3.ITab }

func (w q7Work) rows() ([][]val.Value, error) {
	var out [][]val.Value
	err := sumBy(w.ITab, []string{"SUPP", "CUST", "YR"}, revCol(w.ITab), func(kv []val.Value, sum val.Value) {
		out = append(out, []val.Value{kv[0], kv[1], kv[2], sum})
	})
	return out, err
}

// marketShare is Q8's accumulator: per order year, BRAZIL's volume over
// the whole volume.
type marketShare map[int64]*struct{ num, den float64 }

func (m marketShare) add(year int64, nation string, vol float64) {
	sh := m[year]
	if sh == nil {
		sh = &struct{ num, den float64 }{}
		m[year] = sh
	}
	sh.den += vol
	if nation == "BRAZIL" {
		sh.num += vol
	}
}

func (m marketShare) rows() ([][]val.Value, error) {
	var out [][]val.Value
	for _, y := range sortedKeys(m) {
		out = append(out, []val.Value{val.Int(y), val.Float(m[y].num / m[y].den)})
	}
	return out, nil
}

// q9Work is Q9's work table — NATION, YR, PROFIT — and its tail: profit per
// (NATION, YR), nations ascending, years descending.
type q9Work struct{ *r3.ITab }

func (w q9Work) rows() ([][]val.Value, error) {
	var out [][]val.Value
	err := sumBy(w.ITab, []string{"NATION", "YR"}, col(w.ITab, "PROFIT"), func(kv []val.Value, sum val.Value) {
		out = append(out, []val.Value{kv[0], kv[1], sum})
	})
	sortRows(out, []int{0, 1}, []bool{false, true})
	return out, err
}

// q10Work is Q10's tail: lost revenue per customer, the twenty largest.
type q10Work struct {
	*r3.ITab
	rev pricing
}

func (w q10Work) rows() ([][]val.Value, error) {
	var out [][]val.Value
	err := sumBy(w.ITab, []string{"KUNNR", "NAME1", "ACCBL", "TELF1", "LANDX", "STRAS", "CLUSTD"}, w.rev(w.ITab),
		func(kv []val.Value, sum val.Value) {
			out = append(out, []val.Value{kv[0], kv[1], sum, kv[2], kv[4], kv[5], kv[3], kv[6]})
		})
	sortRows(out, []int{2}, []bool{true})
	return top(out, 20), err
}

// q11Work is Q11's work table — MATNR, VAL — with the grand total kept as
// rows are added, and its tail: value per part, the parts above the
// fraction of the total that the scale factor fixes, largest first.
type q11Work struct {
	*r3.ITab
	total, fraction float64
}

func (s *SAPImpl) q11Work() *q11Work {
	return &q11Work{ITab: s.sys.NewITab(s.m, "MATNR", "VAL"), fraction: 0.0001 / s.gen.SF}
}

func (w *q11Work) add(matnr val.Value, v float64) {
	w.total += v
	w.Append(matnr, val.Float(v))
}

func (w *q11Work) rows() ([][]val.Value, error) {
	threshold := w.total * w.fraction
	var out [][]val.Value
	err := sumBy(w.ITab, []string{"MATNR"}, col(w.ITab, "VAL"), func(kv []val.Value, sum val.Value) {
		if sum.AsFloat() > threshold {
			out = append(out, []val.Value{kv[0], sum})
		}
	})
	sortRows(out, []int{1}, []bool{true})
	return out, err
}

// lineCounts is Q12's accumulator: per ship mode, lineitems of high and of
// low order priority.
type lineCounts map[string]*struct{ high, low int64 }

func (m lineCounts) add(mode, priority string) {
	c := m[mode]
	if c == nil {
		c = &struct{ high, low int64 }{}
		m[mode] = c
	}
	if priority == "1-URGENT" || priority == "2-HIGH" {
		c.high++
	} else {
		c.low++
	}
}

func (m lineCounts) rows() ([][]val.Value, error) {
	var out [][]val.Value
	for _, mode := range sortedKeys(m) {
		out = append(out, []val.Value{val.Str(mode), val.Int(m[mode].high), val.Int(m[mode].low)})
	}
	return out, nil
}

// promoShare is Q14's running pair: promotional volume over all volume.
type promoShare struct{ num, den float64 }

func (a *promoShare) add(mtart string, vol float64) {
	a.den += vol
	if strings.HasPrefix(mtart, "PROMO") {
		a.num += vol
	}
}

func (a *promoShare) rows() ([][]val.Value, error) {
	if a.den == 0 {
		return [][]val.Value{{val.Null}}, nil
	}
	return [][]val.Value{{val.Float(100 * a.num / a.den)}}, nil
}

// q15Work is Q15's tail: revenue per LIFNR, the suppliers tied for the
// maximum, each completed with what the strategy's lookup returns for it —
// rows of LIFNR, NAME1, STRAS, TELF1 — ordered by supplier.
type q15Work struct {
	*r3.ITab
	rev      pricing
	supplier func(lifnr string) ([][]val.Value, error)
}

func (w q15Work) rows() ([][]val.Value, error) {
	type supplierRev struct {
		lifnr string
		total float64
	}
	var tops []supplierRev
	err := sumBy(w.ITab, []string{"LIFNR"}, w.rev(w.ITab), func(kv []val.Value, sum val.Value) {
		tops = append(tops, supplierRev{kv[0].AsStr(), sum.AsFloat()})
	})
	if err != nil {
		return nil, err
	}
	best := -1.0
	for _, t := range tops {
		if t.total > best {
			best = t.total
		}
	}
	var out [][]val.Value
	for _, t := range tops {
		if t.total != best {
			continue
		}
		rows, err := w.supplier(t.lifnr)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			out = append(out, append(append([]val.Value(nil), r...), val.Float(t.total)))
		}
	}
	sortRows(out, []int{0}, []bool{false})
	return out, nil
}

// partGroup is Q16's grouping key.
type partGroup struct {
	brand, ptype string
	size         int64
}

// supplierSets is Q16's accumulator: the distinct suppliers per (brand,
// type, size) — COUNT DISTINCT runs in the application server.
type supplierSets map[partGroup]map[string]bool

func (m supplierSets) add(k partGroup, lifnr string) {
	if m[k] == nil {
		m[k] = map[string]bool{}
	}
	m[k][lifnr] = true
}

func (m supplierSets) rows() ([][]val.Value, error) {
	var out [][]val.Value
	for k, set := range m {
		out = append(out, []val.Value{val.Str(k.brand), val.Str(k.ptype),
			val.Float(float64(k.size)), val.Int(int64(len(set)))})
	}
	sortRows(out, []int{3, 0, 1, 2}, []bool{true, false, false, false})
	return out, nil
}

// smallOrders is Q17's accumulator: the revenue of lineitems ordering less
// than a fifth of their part's average quantity.
type smallOrders struct {
	total       float64
	contributed bool
}

// add takes one part's lineitems (KWMENG, NETWR) in two passes — the
// correlated subquery unrolled by hand.
func (a *smallOrders) add(lines *r3.ITab) {
	var qsum float64
	for i := range lines.Rows() {
		qsum += lines.Get(i, "KWMENG").AsFloat()
	}
	limit := 0.2 * qsum / float64(lines.Len())
	for i := range lines.Rows() {
		if lines.Get(i, "KWMENG").AsFloat() < limit {
			a.total += lines.Get(i, "NETWR").AsFloat()
			a.contributed = true
		}
	}
}

func (a *smallOrders) rows() ([][]val.Value, error) {
	if !a.contributed {
		// SUM over no rows is NULL, as in the SQL formulations.
		return [][]val.Value{{val.Null}}, nil
	}
	return [][]val.Value{{val.Float(a.total / 7.0)}}, nil
}
