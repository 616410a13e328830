// Command benchdiff compares two benchmark snapshots produced by
// scripts/bench_snapshot.sh and fails when a gate trips. It is the CI
// gate against accidental cost regressions:
//
//	benchdiff OLD.json NEW.json
//
// Every gate is a row of the table in gates.go (DESIGN.md §7 prints
// it): what it selects from the snapshots, how it compares, the
// threshold, and the label a failing row gets. One loop evaluates and
// prints them all; exit status 1 means at least one row failed. Names
// present in only one snapshot are reported as ADDED/REMOVED and never
// fail a comparison that needs both sides. There are no flags: a
// threshold changes by editing its row, under review.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

type snapshot struct {
	Benchmarks []benchmark        `json:"benchmarks"`
	Metrics    map[string]float64 `json:"metrics"`
}

type benchmark struct {
	Name        string  `json:"name"`
	SimMS       float64 `json:"sim_ms"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
}

func load(path string) (*snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// row is one selected name with its two sides and its verdict: "" passes,
// a gate's label fails, ADDED/REMOVED are one-sided and never fail.
type row struct {
	name           string
	old, new       float64
	hasOld, hasNew bool
	status         string
}

// growth is NEW over OLD in percent; a zero baseline has none.
func (r row) growth() float64 {
	if r.old == 0 {
		return 0
	}
	return (r.new - r.old) / r.old * 100
}

// selectRows pairs up what gate g selects from the two snapshots.
func (g gate) selectRows(oldS, newS *snapshot) []row {
	var rows []row
	at := map[string]int{}
	for i, s := range []*snapshot{newS, oldS} {
		take := func(name string, v float64) {
			if !strings.HasPrefix(name, g.prefix) || !strings.HasSuffix(name, g.suffix) ||
				g.except != "" && strings.Contains(name, g.except) {
				return
			}
			j, seen := at[name]
			if !seen {
				j, at[name] = len(rows), len(rows)
				rows = append(rows, row{name: name})
			}
			if i == 0 {
				rows[j].new, rows[j].hasNew = v, true
			} else {
				rows[j].old, rows[j].hasOld = v, true
			}
		}
		for name, v := range s.Metrics {
			if g.field == "" {
				take(name, v)
			}
		}
		for _, b := range s.Benchmarks {
			switch {
			case g.field == "sim_ms":
				take(b.Name, b.SimMS)
			case g.field == "allocs_per_op" && b.AllocsPerOp > 0:
				take(b.Name, b.AllocsPerOp)
			case g.field == "bytes_per_op" && b.BytesPerOp > 0:
				take(b.Name, b.BytesPerOp)
			}
		}
	}
	if g.field == "" {
		sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	}
	listed := rows[:0]
	for _, r := range rows {
		if r.hasNew && (r.hasOld || g.absolute) || !g.matched && !g.absolute {
			listed = append(listed, r)
		}
	}
	return listed
}

// holds reports whether row r passes g. q is the gate's quotient, 0 when
// NEW lacks a side of it: such a snapshot cannot fail the gate.
func (g gate) holds(r row, q float64) bool {
	matched := r.hasOld && r.hasNew
	switch {
	case g.den != "":
		return r.name != g.den || q == 0 || q >= g.limit
	case g.cmp == growthPct:
		return !matched || r.growth() <= g.limit
	case g.cmp == ceiling:
		return !r.hasNew || r.new <= g.limit
	case g.cmp == floor:
		return !r.hasNew || r.new >= g.limit
	case g.cmp == dropPoints:
		return !matched || (r.old-r.new)*100 <= g.limit
	default: // ratioFloor
		return !matched || r.old <= 0 || r.new/r.old >= g.limit
	}
}

// print writes one section of the report: heading, rows, quotient.
func (g gate) print(w io.Writer, rows []row, q float64) {
	format, heads := g.format, [3]string{"old", "new", ""}
	if format == "" {
		format = "%.4g"
	}
	// Beside its status, a two-sided row shows how the gate saw it move.
	switch {
	case g.field == "sim_ms":
		heads = [3]string{"old sim_ms", "new sim_ms", "delta"}
	case g.cmp == growthPct:
		heads[2] = "delta"
	case g.cmp == ratioFloor:
		heads[2] = "ratio"
	}
	line := func(name, oldCol, newCol, last string) {
		if g.absolute {
			fmt.Fprintf(w, "%-36s %12s %12s\n", name, newCol, last)
		} else {
			fmt.Fprintf(w, "%-36s %12s %12s %9s\n", name, oldCol, newCol, last)
		}
	}
	line(g.title, heads[0], heads[1], heads[2])
	for _, r := range rows {
		oldCol, newCol, last := "-", "-", r.status
		if r.hasOld {
			oldCol = fmt.Sprintf(format, r.old)
		} else if last == "" && !g.absolute {
			last = "ADDED"
		}
		if r.hasNew {
			newCol = fmt.Sprintf(format, r.new)
		} else {
			last = "REMOVED"
		}
		if heads[2] != "" && r.hasOld && r.hasNew {
			if last != "" {
				last = "  " + last
			}
			if heads[2] == "ratio" {
				last = fmt.Sprintf("%8.2fx", r.new/r.old) + last
			} else {
				last = fmt.Sprintf("%+8.1f%%", r.growth()) + last
			}
		}
		line(r.name, oldCol, newCol, last)
	}
	if q > 0 {
		fmt.Fprintf(w, "%-36s %35.*fx\n", g.caption, g.places, q)
	}
}

// run evaluates the gate table over the two snapshots and prints the
// report, one section per title and then the verdict; it reports whether
// a gate failed.
func run(w io.Writer, oldS, newS *snapshot) (failed bool) {
	printed := false
	var fails []string
	for i := 0; i < len(gates); {
		g := gates[i]
		rows := g.selectRows(oldS, newS)
		q := 0.0
		if n, d := newS.Metrics[g.num], newS.Metrics[g.den]; g.den != "" && n > 0 && d > 0 {
			q = n / d
		}
		// Every gate of the section judges its rows; the first one a row
		// fails names it.
		for ; i < len(gates) && gates[i].title == g.title; i++ {
			tripped := false
			for j := range rows {
				if r := &rows[j]; !gates[i].holds(*r, q) {
					tripped = true
					if r.status == "" {
						r.status = gates[i].label
					}
				}
			}
			if tripped {
				fails = append(fails, fmt.Sprintf(gates[i].fail, gates[i].limit))
			}
		}
		if len(rows) == 0 {
			continue
		}
		if printed {
			fmt.Fprintln(w)
		}
		printed = true
		g.print(w, rows, q)
	}
	for _, f := range fails {
		fmt.Fprintf(w, "\nFAIL: %s\n", f)
	}
	if len(fails) == 0 {
		fmt.Fprintf(w, "\nOK: no benchmark regressed by more than %.4g%% simulated time\n", float64(simGrowthPct))
	}
	return len(fails) > 0
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff OLD.json NEW.json")
		os.Exit(2)
	}
	var snaps [2]*snapshot
	for i, path := range os.Args[1:] {
		s, err := load(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		snaps[i] = s
	}
	if run(os.Stdout, snaps[0], snaps[1]) {
		os.Exit(1)
	}
}
