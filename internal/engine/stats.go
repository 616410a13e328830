package engine

import (
	"cmp"
	"math"
	stdruntime "runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"r3bench/internal/cost"
	"r3bench/internal/storage"
	"r3bench/internal/val"
)

// distinctTrackLimit bounds the exact distinct-count tracking per column;
// past it the estimator switches to the sample-based Duj1 estimate.
const distinctTrackLimit = 1 << 16

// Statistics-gathering knobs. Sampling is deterministic: ANALYZE takes
// every ⌊N/sampleTarget⌋-th of a table's N rows, counted before the scan —
// all of a table under 2^17 rows, 2^16 to 2^17−1 rows of a larger one — so
// two ANALYZE runs over the same data build identical statistics.
const (
	histBuckets   = 64      // equi-depth histogram buckets per column
	mcvMax        = 8       // most-common values kept per column
	mcvMinFrac    = 0.01    // sample fraction below which a value is not "common"
	sampleTarget  = 1 << 16 // a table of N rows is sampled at stride max(1, ⌊N/sampleTarget⌋)
	likeSampleMax = 128     // string values retained for LIKE estimation
)

// histBucket is one equi-depth bucket: Cum is the fraction of non-null
// values <= Hi. Bucket lower bounds are implicit (the previous bucket's
// Hi, or the column Min for the first bucket).
type histBucket struct {
	Hi  val.Value
	Cum float64
}

// mcvEntry is one most-common value with its fraction of non-null values.
type mcvEntry struct {
	V    val.Value
	Frac float64
}

// ColumnStats summarises one column for the optimizer.
type ColumnStats struct {
	Min, Max val.Value
	Distinct int64
	NullFrac float64
	Hist     []histBucket // equi-depth histogram (nil before ANALYZE gathers one)
	MCVs     []mcvEntry   // most-common values, by descending frequency
	MCVFrac  float64      // total fraction of non-null values covered by MCVs
	// LikeSample holds a small, sorted, evenly-strided sample of a string
	// column's values, used to estimate LIKE patterns with no literal
	// prefix (e.g. '%green%') by matching the pattern against the sample.
	LikeSample []string
}

// TableStats carries optimizer statistics for one table. They are rebuilt
// by DB.Analyze, mirroring an explicit ANALYZE/UPDATE STATISTICS run.
type TableStats struct {
	mu       sync.RWMutex
	RowCount int64
	Columns  []ColumnStats
	analyzed bool
	opt      *optCounters // owning DB's optimizer counters (nil in bare tests)
}

// optCounters aggregates the optimizer observability counters of one DB:
// how often plans were built with peeked binds, how often feedback forced
// a replan, and whether selectivity estimates came from gathered
// statistics or blind defaults.
type optCounters struct {
	peeks   atomic.Int64
	replans atomic.Int64
	histEst atomic.Int64 // estimates served from histograms/MCVs/distincts
	defEst  atomic.Int64 // estimates that fell back to blind default constants
}

func newTableStats(nCols int, opt *optCounters) *TableStats {
	return &TableStats{Columns: make([]ColumnStats, nCols), opt: opt}
}

// fromStats marks an estimate as statistics-derived; fromDefault marks a
// blind-constant fallback. Both return their argument so selectivity
// returns can be wrapped in place.
func (s *TableStats) fromStats(f float64) float64 {
	if s.opt != nil {
		s.opt.histEst.Add(1)
	}
	return f
}

func (s *TableStats) fromDefault(f float64) float64 {
	if s.opt != nil {
		s.opt.defEst.Add(1)
	}
	return f
}

// Analyzed reports whether statistics have been gathered.
func (s *TableStats) Analyzed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.analyzed
}

// Analyze rebuilds statistics for the table with a full scan. Statistics
// maintenance is administrative work, not part of any measured query, so
// it charges no meter.
func (db *DB) Analyze(tableName string) error {
	t := db.Table(tableName)
	if t == nil {
		return errNoTable(tableName)
	}
	if err := analyzeTable(t); err != nil {
		return err
	}
	db.bumpPlanEpoch() // fresh statistics obsolete cached fingerprint plans
	return nil
}

// AnalyzeAll rebuilds statistics for every table.
func (db *DB) AnalyzeAll() error {
	for _, name := range db.TableNames() {
		if err := db.Analyze(name); err != nil {
			return err
		}
	}
	return nil
}

// colScan is what ANALYZE's scan gathers of one column.
type colScan struct {
	nulls, nans int64
	min, max    val.Value
	distinct    map[val.Value]struct{} // strided sample only; nil past distinctTrackLimit
	sample      []val.Value
}

// analyzeTable gathers the table's statistics in one scan, then finishes
// the columns — sort, distinct count, distribution — on lanes, one per
// processor: each column is its own work, so the statistics do not depend
// on the lanes. A table under 2*sampleTarget rows is sampled whole, and its
// distinct counts are the runs of the sorted sample.
//
// A NaN takes no part in a column's statistics: it is no min, max,
// distinct value, histogram bound or MCV, and no NULL. val.Compare calls a
// NaN equal to everything, so a kept NaN would pin min and max, break the
// sample's order and turn estimates into NaN.
func analyzeTable(t *Table) error {
	n := len(t.Cols)
	// Deterministic stride sample: the stride derives from the heap's
	// row count before the scan, so the sampled positions — and thus the
	// histograms, MCVs and overflow distinct estimates — are a pure
	// function of the stored data.
	stride, total := int64(1), t.Heap.Rows()
	if total > sampleTarget {
		stride = total / sampleTarget
	}
	scans := make([]colScan, n)
	for i := range scans {
		scans[i].sample = make([]val.Value, 0, total/stride+1)
		if stride > 1 {
			scans[i].distinct = make(map[val.Value]struct{})
		}
	}
	var rows int64
	err := t.Heap.Scan(nil, func(rid storage.RID, row []val.Value) error {
		sampled := rows%stride == 0
		rows++
		for i, v := range row {
			c := &scans[i]
			switch {
			case v.IsNull():
				c.nulls++
				continue
			case v.K == val.KFloat && math.IsNaN(v.F):
				c.nans++
				continue
			}
			if c.min.IsNull() || sampleCompare(v, c.min) < 0 {
				c.min = v
			}
			if c.max.IsNull() || sampleCompare(v, c.max) > 0 {
				c.max = v
			}
			if c.distinct != nil {
				c.distinct[v] = struct{}{}
				if len(c.distinct) > distinctTrackLimit {
					c.distinct = nil
				}
			}
			if sampled {
				c.sample = append(c.sample, v)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	cols := make([]ColumnStats, n)
	var next atomic.Int64
	lanes := make(cost.Lanes, min(stdruntime.GOMAXPROCS(0), n))
	_ = lanes.Run(func(int, *cost.Meter) error { // finishing a column cannot fail
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			c, cs := &scans[i], &cols[i]
			cs.Min, cs.Max = c.min, c.max
			slices.SortFunc(c.sample, sampleCompare)
			runs := buildDistribution(cs, c.sample)
			switch {
			case stride == 1: // the sample is the whole column
				cs.Distinct = runs
			case c.distinct == nil:
				cs.Distinct = duj1Distinct(c.sample, rows-c.nulls-c.nans)
			default:
				cs.Distinct = int64(len(c.distinct))
			}
			if rows > 0 {
				cs.NullFrac = float64(c.nulls) / float64(rows)
			}
		}
		return nil
	})
	// The scan decoded views of the heap's page images; statistics outlive
	// it, so what they keep gets storage of its own.
	var chars val.Slab
	for i := range cols {
		cols[i].own(&chars)
	}
	t.stats.mu.Lock()
	t.stats.RowCount = rows
	t.stats.Columns = cols
	t.stats.analyzed = true
	t.stats.mu.Unlock()
	return nil
}

// sampleCompare is val.Compare for two values ANALYZE keeps of one column,
// which have the column's kind, are neither NULL nor NaN and, if CHARs, end
// in no blank (ColSet.Decode right-trims them): their keys alone order them,
// and == says when they are equal.
func sampleCompare(a, b val.Value) int {
	switch a.K {
	case val.KStr:
		return strings.Compare(a.S, b.S)
	case val.KFloat:
		return cmp.Compare(a.F, b.F)
	}
	return cmp.Compare(a.I, b.I)
}

// own copies the CHAR values the statistics keep into chars.
func (cs *ColumnStats) own(chars *val.Slab) {
	cs.Min.S, cs.Max.S = chars.Copy(cs.Min.S), chars.Copy(cs.Max.S)
	for i := range cs.Hist {
		cs.Hist[i].Hi.S = chars.Copy(cs.Hist[i].Hi.S)
	}
	for i := range cs.MCVs {
		cs.MCVs[i].V.S = chars.Copy(cs.MCVs[i].V.S)
	}
	for i, s := range cs.LikeSample {
		cs.LikeSample[i] = chars.Copy(s)
	}
}

// duj1Distinct estimates column cardinality from a sorted sample of a
// column whose exact distinct tracking overflowed, using the Duj1
// estimator of Haas et al.: D = d / (1 - (1 - n/N) * f1/n), where d is
// the sample's distinct count, f1 the number of sample values seen
// exactly once, n the sample size and N the population size.
func duj1Distinct(sorted []val.Value, population int64) int64 {
	n := int64(len(sorted))
	if n == 0 || population <= 0 {
		return 0
	}
	var d, f1 int64
	runLen := int64(0)
	for i := range sorted {
		runLen++
		last := i == len(sorted)-1 || val.Compare(sorted[i], sorted[i+1]) != 0
		if last {
			d++
			if runLen == 1 {
				f1++
			}
			runLen = 0
		}
	}
	denom := 1 - (1-float64(n)/float64(population))*float64(f1)/float64(n)
	if denom <= 0 {
		denom = float64(n) / float64(population) // all singletons: scale up
	}
	est := int64(float64(d) / denom)
	if est < d {
		est = d
	}
	if est > population {
		est = population
	}
	return est
}

// buildDistribution derives the MCV list, equi-depth histogram and (for
// string columns) the LIKE sample from a column's sorted sample, and returns
// the number of distinct values in it.
func buildDistribution(cs *ColumnStats, sorted []val.Value) int64 {
	ns := len(sorted)
	if ns == 0 {
		return 0
	}
	// MCVs: run lengths over the sorted sample. A value qualifies when it
	// repeats and covers a non-trivial fraction of the sample.
	type runCount struct {
		v val.Value
		c int
	}
	var runs []runCount
	var distinct int64
	runLen := 0
	for i := range sorted {
		runLen++
		last := i == len(sorted)-1 || sorted[i] != sorted[i+1]
		if last {
			distinct++
			if runLen >= 2 && float64(runLen) >= mcvMinFrac*float64(ns) {
				runs = append(runs, runCount{v: sorted[i], c: runLen})
			}
			runLen = 0
		}
	}
	slices.SortFunc(runs, func(a, b runCount) int {
		if a.c != b.c {
			return b.c - a.c
		}
		return sampleCompare(a.v, b.v)
	})
	if len(runs) > mcvMax {
		runs = runs[:mcvMax]
	}
	for _, r := range runs {
		frac := float64(r.c) / float64(ns)
		cs.MCVs = append(cs.MCVs, mcvEntry{V: r.v, Frac: frac})
		cs.MCVFrac += frac
	}
	// Equi-depth histogram: bucket b's upper bound sits at sample
	// position ceil(b*ns/B); equal boundaries merge, keeping the larger
	// cumulative fraction, so duplicate-heavy columns collapse cleanly.
	b := histBuckets
	if b > ns {
		b = ns
	}
	for k := 1; k <= b; k++ {
		idx := k*ns/b - 1
		hi, cum := sorted[idx], float64(idx+1)/float64(ns)
		if m := len(cs.Hist); m > 0 && cs.Hist[m-1].Hi == hi {
			cs.Hist[m-1].Cum = cum
			continue
		}
		cs.Hist = append(cs.Hist, histBucket{Hi: hi, Cum: cum})
	}
	if sorted[0].K == val.KStr {
		step := ns / likeSampleMax
		if step < 1 {
			step = 1
		}
		for i := 0; i < ns; i += step {
			cs.LikeSample = append(cs.LikeSample, sorted[i].AsStr())
		}
	}
	return distinct
}

// Default selectivities, used whenever a predicate's constant is unknown
// at plan time — most importantly for parameterized queries, where the
// optimizer "blindly generates a plan" (paper, Section 4.1). Join
// planning uses these moderate guesses; single-table access-path choice
// additionally falls back to the era's rule-based heuristic — an indexed
// predicate is worth the index, estimable or not — which is exactly what
// turns the paper's Table 6 Open SQL query into a 22× random-I/O disaster
// when the actual bound matches all 1.2M rows (see chooseAccessPath).
const (
	defaultEqSel    = 0.01
	defaultRangeSel = 0.05
	defaultLikeSel  = 0.10
	defaultInSel    = 0.04
)

// normProbe right-trims string probes: stored CHAR values are held
// right-trimmed, so a padded literal must not miss the MCV list.
func normProbe(v val.Value) val.Value {
	if v.K == val.KStr {
		return val.Str(strings.TrimRight(v.S, " "))
	}
	return v
}

// selEquals estimates the selectivity of col = const: an MCV hit returns
// the measured fraction; otherwise the residual non-MCV mass spreads
// uniformly over the remaining distinct values.
func (s *TableStats) selEquals(col int, v val.Value) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.analyzed || col >= len(s.Columns) {
		return s.fromDefault(defaultEqSel)
	}
	cs := &s.Columns[col]
	if v.IsNull() {
		return s.fromStats(cs.NullFrac)
	}
	nonNull := 1 - cs.NullFrac
	v = normProbe(v)
	for _, m := range cs.MCVs {
		if val.Compare(m.V, v) == 0 {
			return s.fromStats(clampSel(m.Frac * nonNull))
		}
	}
	if rest := cs.Distinct - int64(len(cs.MCVs)); rest > 0 {
		return s.fromStats(clampSel((1 - cs.MCVFrac) / float64(rest) * nonNull))
	}
	if cs.Distinct > 0 {
		return s.fromStats(clampSel(1 / float64(cs.Distinct)))
	}
	return s.fromDefault(defaultEqSel)
}

// selRange estimates the selectivity of a range predicate on col. op is
// one of "<", "<=", ">", ">=". An unknown (non-literal, non-peeked)
// bound yields the blind default. With a histogram the estimate is the
// cumulative fraction at the bound (byte-prefix interpolation inside the
// containing bucket for strings); without one the old linear Min/Max
// interpolation remains for numeric columns.
func (s *TableStats) selRange(col int, op string, v val.Value, known bool) float64 {
	if !known {
		return s.fromDefault(defaultRangeSel)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.analyzed || col >= len(s.Columns) {
		return s.fromDefault(defaultRangeSel)
	}
	cs := &s.Columns[col]
	if len(cs.Hist) > 0 {
		le := histLE(cs, normProbe(v))
		nonNull := 1 - cs.NullFrac
		switch op {
		case "<", "<=":
			return s.fromStats(clampSel(le * nonNull))
		default: // ">", ">="
			return s.fromStats(clampSel((1 - le) * nonNull))
		}
	}
	if cs.Min.IsNull() || cs.Max.IsNull() {
		return s.fromDefault(defaultRangeSel)
	}
	lo, hi := cs.Min.AsFloat(), cs.Max.AsFloat()
	if v.K == val.KStr || cs.Min.K == val.KStr {
		// No numeric interpolation for strings without a histogram.
		return s.fromDefault(defaultRangeSel)
	}
	if hi <= lo {
		return s.fromDefault(defaultEqSel)
	}
	x := v.AsFloat()
	frac := (x - lo) / (hi - lo)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	switch op {
	case "<", "<=":
		return s.fromStats(clampSel(frac))
	default: // ">", ">="
		return s.fromStats(clampSel(1 - frac))
	}
}

// histLE returns the estimated fraction of the column's non-null values
// that are <= v, reading the equi-depth histogram and interpolating
// inside the containing bucket.
func histLE(cs *ColumnStats, v val.Value) float64 {
	if val.Compare(v, cs.Min) < 0 {
		return 0
	}
	prevHi, prevCum := cs.Min, 0.0
	for _, b := range cs.Hist {
		c := val.Compare(v, b.Hi)
		if c > 0 {
			prevHi, prevCum = b.Hi, b.Cum
			continue
		}
		if c == 0 {
			return b.Cum
		}
		return prevCum + (b.Cum-prevCum)*valueFrac(prevHi, b.Hi, v)
	}
	return 1
}

// valueFrac maps v into [0,1] between lo and hi. Numeric and date kinds
// interpolate linearly; strings interpolate over their byte prefixes.
func valueFrac(lo, hi, v val.Value) float64 {
	if lo.K == val.KStr || hi.K == val.KStr || v.K == val.KStr {
		return strFrac(lo.AsStr(), hi.AsStr(), v.AsStr())
	}
	l, h := lo.AsFloat(), hi.AsFloat()
	if h <= l || math.IsInf(h-l, 0) { // an infinite span places no v
		return 0.5
	}
	return clampFrac((v.AsFloat() - l) / (h - l))
}

// strFrac interpolates v between the strings lo and hi: the common
// prefix of lo and hi carries no information and is stripped, then up to
// eight following bytes of each string are read as a base-256 fraction.
func strFrac(lo, hi, v string) float64 {
	p := 0
	for p < len(lo) && p < len(hi) && lo[p] == hi[p] {
		p++
	}
	lf, hf := bytesFrac(lo, p), bytesFrac(hi, p)
	if hf <= lf {
		return 0.5
	}
	return clampFrac((bytesFrac(v, p) - lf) / (hf - lf))
}

// bytesFrac reads up to eight bytes of s starting at off as a base-256
// fraction in [0,1); missing bytes read as zero.
func bytesFrac(s string, off int) float64 {
	f, scale := 0.0, 1.0
	for i := 0; i < 8; i++ {
		scale /= 256
		var b byte
		if off+i < len(s) {
			b = s[off+i]
		}
		f += float64(b) * scale
	}
	return f
}

func clampFrac(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// selLike estimates col LIKE pattern. A literal prefix becomes a
// histogram range probe over [prefix, prefix+0xFF); a pattern with no
// usable prefix is matched against the column's retained string sample.
func (s *TableStats) selLike(col int, pattern string) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.analyzed || col >= len(s.Columns) {
		return s.fromDefault(defaultLikeSel)
	}
	cs := &s.Columns[col]
	nonNull := 1 - cs.NullFrac
	if prefix := likePrefix(pattern); prefix != "" && len(cs.Hist) > 0 {
		lo := histLE(cs, val.Str(prefix))
		hi := histLE(cs, val.Str(prefix+"\xff"))
		return s.fromStats(clampSel((hi - lo) * nonNull))
	}
	if len(cs.LikeSample) > 0 {
		matches := 0
		for _, sv := range cs.LikeSample {
			if val.Like(sv, pattern) {
				matches++
			}
		}
		return s.fromStats(clampSel(float64(matches) / float64(len(cs.LikeSample)) * nonNull))
	}
	return s.fromDefault(defaultLikeSel)
}

// likePrefix returns the literal prefix of a LIKE pattern — the bytes
// before the first wildcard — or "" when the pattern starts with one.
func likePrefix(pattern string) string {
	for i := 0; i < len(pattern); i++ {
		if pattern[i] == '%' || pattern[i] == '_' {
			return pattern[:i]
		}
	}
	return pattern
}

// selInList estimates col IN (v1, ..., vk) as the sum of the individual
// equality selectivities.
func (s *TableStats) selInList(col int, vals []val.Value) float64 {
	sum := 0.0
	for _, v := range vals {
		sum += s.selEquals(col, v)
	}
	return clampSel(sum)
}

func clampSel(f float64) float64 {
	if f < 0.0005 {
		return 0.0005
	}
	if f > 1 {
		return 1
	}
	return f
}

// RowEstimate returns the stats row count, falling back to the live heap
// count when not analyzed.
func (t *Table) RowEstimate() int64 {
	t.stats.mu.RLock()
	analyzed, rc := t.stats.analyzed, t.stats.RowCount
	t.stats.mu.RUnlock()
	if analyzed {
		return rc
	}
	return t.Heap.Rows()
}

func errNoTable(name string) error {
	return &NotFoundError{Kind: "table", Name: name}
}

// NotFoundError reports a missing catalog object.
type NotFoundError struct {
	Kind, Name string
}

func (e *NotFoundError) Error() string {
	return "engine: no " + e.Kind + " named " + e.Name
}
