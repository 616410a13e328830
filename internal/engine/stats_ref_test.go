package engine

import (
	"sort"

	"r3bench/internal/storage"
	"r3bench/internal/val"
)

// analyzeTableReference is the straightforward ANALYZE that analyzeTable
// must reproduce: one generic distinct map per column, val.Compare
// everywhere, sort.Slice. TestAnalyzeMatchesReference holds the two to
// identical statistics on every table that holds no NaN.
func analyzeTableReference(t *Table) error {
	n := len(t.Cols)
	cols := make([]ColumnStats, n)
	nulls := make([]int64, n)
	distinct := make([]map[val.Value]struct{}, n)
	overflow := make([]bool, n)
	for i := range distinct {
		distinct[i] = make(map[val.Value]struct{})
	}
	stride := int64(1)
	if total := t.Heap.Rows(); total > sampleTarget {
		stride = total / sampleTarget
	}
	samples := make([][]val.Value, n)
	var rows int64
	err := t.Heap.Scan(nil, func(rid storage.RID, row []val.Value) error {
		sampled := rows%stride == 0
		rows++
		for i, v := range row {
			if v.IsNull() {
				nulls[i]++
				continue
			}
			cs := &cols[i]
			if cs.Min.IsNull() || val.Compare(v, cs.Min) < 0 {
				cs.Min = v
			}
			if cs.Max.IsNull() || val.Compare(v, cs.Max) > 0 {
				cs.Max = v
			}
			if !overflow[i] {
				distinct[i][v] = struct{}{}
				if len(distinct[i]) > distinctTrackLimit {
					overflow[i] = true
					distinct[i] = nil
				}
			}
			if sampled {
				samples[i] = append(samples[i], v)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i := range cols {
		sample := samples[i]
		sort.Slice(sample, func(a, b int) bool { return val.Compare(sample[a], sample[b]) < 0 })
		if overflow[i] {
			cols[i].Distinct = duj1DistinctReference(sample, rows-nulls[i])
		} else {
			cols[i].Distinct = int64(len(distinct[i]))
		}
		if rows > 0 {
			cols[i].NullFrac = float64(nulls[i]) / float64(rows)
		}
		buildDistributionReference(&cols[i], sample)
	}
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

func duj1DistinctReference(sorted []val.Value, population int64) int64 {
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
		denom = float64(n) / float64(population)
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

func buildDistributionReference(cs *ColumnStats, sorted []val.Value) {
	ns := len(sorted)
	if ns == 0 {
		return
	}
	type runCount struct {
		v val.Value
		c int
	}
	var runs []runCount
	runLen := 0
	for i := range sorted {
		runLen++
		last := i == len(sorted)-1 || val.Compare(sorted[i], sorted[i+1]) != 0
		if last {
			if runLen >= 2 && float64(runLen) >= mcvMinFrac*float64(ns) {
				runs = append(runs, runCount{v: sorted[i], c: runLen})
			}
			runLen = 0
		}
	}
	sort.Slice(runs, func(a, b int) bool {
		if runs[a].c != runs[b].c {
			return runs[a].c > runs[b].c
		}
		return val.Compare(runs[a].v, runs[b].v) < 0
	})
	if len(runs) > mcvMax {
		runs = runs[:mcvMax]
	}
	for _, r := range runs {
		frac := float64(r.c) / float64(ns)
		cs.MCVs = append(cs.MCVs, mcvEntry{V: r.v, Frac: frac})
		cs.MCVFrac += frac
	}
	b := histBuckets
	if b > ns {
		b = ns
	}
	for k := 1; k <= b; k++ {
		idx := k*ns/b - 1
		hi, cum := sorted[idx], float64(idx+1)/float64(ns)
		if m := len(cs.Hist); m > 0 && val.Compare(cs.Hist[m-1].Hi, hi) == 0 {
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
}
