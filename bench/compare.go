package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Result files hold one JSON object per run, appended by every run
// (out/results.jsonl); -compare reads two of them, typically ten runs per
// workload of the parent commit and ten of the change.

func appendResult(path string, res *result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readResults(path string) ([]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		res := &result{}
		if err := json.Unmarshal(sc.Bytes(), res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// lastUntraced finds the newest untraced run of the same workload and seed
// in the results file of this checkout, to set a traced run against.
func lastUntraced(res *result) *result {
	all, err := readResults(benchDir() + "/out/results.jsonl")
	if err != nil {
		return nil
	}
	for i := len(all) - 1; i >= 0; i-- {
		if r := all[i]; r.Trace == 0 && r.Workload == res.Workload && r.Seed == res.Seed {
			return r
		}
	}
	return nil
}

// samples collects one end-to-end metric of one workload from untraced
// runs.
func samples(runs []*result, workload, metric string) []float64 {
	var xs []float64
	for _, r := range runs {
		if r.Trace == 0 && r.Workload == workload {
			if v, ok := r.Metrics[metric]; ok {
				xs = append(xs, v)
			}
		}
	}
	return xs
}

// verdict judges b against a by the benchmark's own rule: medians compared
// against the metric's bound, and no verdict where either side's own
// spread (interquartile range over median) is wider than the bound.
func verdict(m metric, a, b []float64) string {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	if spread(a) > *m.Bound || spread(b) > *m.Bound {
		return "unresolved"
	}
	change := ratio(mb-ma, ma)
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case change > *m.Bound:
		return "worse"
	case change < -*m.Bound:
		return "better"
	}
	return "same"
}

func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	s := (q3 - q1) / q2
	if s < 0 {
		s = -s
	}
	return s
}

// compareFiles prints one row per workload and end-to-end metric.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-18s %-17s %3s %12s %8s %3s %12s %8s %6s  %s\n",
		"workload", "metric", "n", "median a", "spread", "n", "median b", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			xa, xb := samples(a, wl.name, m.Name), samples(b, wl.name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			_, ma, _ := quartiles(xa)
			_, mb, _ := quartiles(xb)
			fmt.Fprintf(w, "%-18s %-17s %3d %12.6g %7.2f%% %3d %12.6g %7.2f%% %5.0f%%  %s\n",
				wl.name, m.Name, len(xa), ma, 100*spread(xa), len(xb), mb, 100*spread(xb), 100**m.Bound, verdict(m, xa, xb))
		}
	}
	return nil
}
