package tpcd

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"r3bench/internal/cost"
	"r3bench/internal/engine"
	"r3bench/internal/val"
)

// -update rewrites the package's goldens under testdata from this run
// instead of comparing against them. q_golden.json was recorded from the
// row-at-a-time pipeline the batch executor replaced, so regenerate it
// only for a change that is meant to move results or the simulated clock.
var updateGolden = flag.Bool("update", false, "rewrite the testdata goldens from this run")

// goldenQuery is one recorded TPC-D query execution: its result (SHA-256
// of encodeResult) and the simulated time it charged.
type goldenQuery struct {
	Degree int    `json:"degree"`
	Query  int    `json:"query"`
	Digest string `json:"digest"`
	LapNS  int64  `json:"lap_ns"`
}

// TestQueryGolden is the end-to-end oracle on the real workload: Q1–Q17
// at parallel degrees 1, 2 and 8, on one session in this order, must
// return the recorded rows and charge the recorded simulated time — to
// the byte and to the nanosecond.
func TestQueryGolden(t *testing.T) {
	db, g := loadedDB(t)
	impl := NewRDBMS(db, g)
	var got []goldenQuery
	for _, deg := range []int{1, 2, 8} {
		db.SetOptions(engine.Options{Parallel: deg})
		for q := 1; q <= 17; q++ {
			start := impl.Meter().Elapsed()
			rows, err := impl.RunQuery(q)
			if err != nil {
				t.Fatalf("deg=%d Q%d: %v", deg, q, err)
			}
			sum := sha256.Sum256([]byte(encodeResult(rows)))
			got = append(got, goldenQuery{
				Degree: deg, Query: q,
				Digest: hex.EncodeToString(sum[:]),
				LapNS:  int64(impl.Meter().Lap(start)),
			})
		}
	}
	if *updateGolden {
		// One entry per line, so a moved number is a one-line diff.
		lines := make([]string, len(got))
		for i, g := range got {
			b, err := json.Marshal(g)
			if err != nil {
				t.Fatal(err)
			}
			lines[i] = string(b)
		}
		out := "[\n" + strings.Join(lines, ",\n") + "\n]\n"
		if err := os.WriteFile("testdata/q_golden.json", []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile("testdata/q_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenQuery
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("ran %d executions, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("got  %+v\nwant %+v", got[i], want[i])
		}
	}
}

// TestExplainAnalyzeAddsQueryLap pins what one executor makes true by
// construction: profiling is the same run with spans installed. For every
// TPC-D query, with the array interface off and on, at degrees 1 and 2,
// ExplainAnalyze charges exactly the simulated time a plain execution
// charges, returns the same rows and moves the interface counters the same
// way. The span tree of every SELECT and the counters after each case must
// equal testdata/analyze_golden.txt (-update re-records). At degree 1 every
// lap is also its events priced, to the nanosecond.
func TestExplainAnalyzeAddsQueryLap(t *testing.T) {
	dbPlain, _ := loadedDB(t)
	dbProf, _ := loadedDB(t)
	plain, prof := dbPlain.NewSession(), dbProf.NewSession()
	model := prof.Meter.Model()
	var b strings.Builder
	for _, array := range []bool{false, true} {
		for _, deg := range []int{1, 2} {
			dbPlain.SetOptions(engine.Options{Parallel: deg, ArrayFetch: array})
			dbProf.SetOptions(engine.Options{Parallel: deg, ArrayFetch: array})
			fmt.Fprintf(&b, "== array fetch %v, degree %d\n", array, deg)
			for _, q := range Queries(testSF) {
				pStart, aStart := plain.Meter.Elapsed(), prof.Meter.Elapsed()
				var counts [cost.NumKinds]int64
				for k := range counts {
					counts[k] = prof.Meter.Count(cost.Kind(k))
				}
				var pRows, aRows [][]val.Value
				for _, sql := range q.SQL {
					res, err := plain.Exec(sql)
					if err != nil {
						t.Fatalf("array=%v deg=%d Q%d: %v", array, deg, q.Num, err)
					}
					if res.Cols == nil {
						// Q15's CREATE VIEW / DROP VIEW bracket its SELECT.
						if _, err := prof.Exec(sql); err != nil {
							t.Fatalf("array=%v deg=%d Q%d: %v", array, deg, q.Num, err)
						}
						continue
					}
					ap, err := prof.ExplainAnalyze(sql)
					if err != nil {
						t.Fatalf("array=%v deg=%d Q%d analyzed: %v", array, deg, q.Num, err)
					}
					pRows, aRows = res.Rows, ap.Result.Rows
					fmt.Fprintf(&b, "Q%d\n%s", q.Num, ap)
				}
				if encodeResult(pRows) != encodeResult(aRows) {
					t.Errorf("array=%v deg=%d Q%d: ExplainAnalyze returned different rows", array, deg, q.Num)
				}
				if p, a := plain.Meter.Lap(pStart), prof.Meter.Lap(aStart); p != a {
					t.Errorf("array=%v deg=%d Q%d: Exec charged %v, ExplainAnalyze %v", array, deg, q.Num, p, a)
				}
				var priced time.Duration
				for k := range counts {
					priced += time.Duration(prof.Meter.Count(cost.Kind(k))-counts[k]) * model.PerEvent[k]
				}
				if a := prof.Meter.Lap(aStart); deg == 1 && a != priced {
					t.Errorf("array=%v Q%d: lap %d ns, Σ ΔCount × PerEvent %d ns", array, q.Num, a, priced)
				}
			}
			p, a := ifaceCounters(dbPlain.Stats()), ifaceCounters(dbProf.Stats())
			if p != a {
				t.Errorf("array=%v deg=%d: Exec counted %s, ExplainAnalyze %s", array, deg, p, a)
			}
			fmt.Fprintf(&b, "%s\n", a)
		}
	}
	checkTextGolden(t, "testdata/analyze_golden.txt", b.String())
}

// ifaceCounters renders the execution counters a SELECT moves.
func ifaceCounters(st engine.EngineStats) string {
	return fmt.Sprintf("selects=%d interface_calls=%d rows_shipped=%d packets=%d",
		st.Selects, st.InterfaceCalls, st.RowsShipped, st.Packets)
}

// checkTextGolden compares got with the golden file at path, or rewrites
// the file under -update.
func checkTextGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			gl, wl := "(end)", "(end)"
			if i < len(g) {
				gl = g[i]
			}
			if i < len(w) {
				wl = w[i]
			}
			t.Fatalf("%s: first difference at line %d:\ngot  %s\nwant %s", path, i+1, gl, wl)
		}
	}
}
