package tpcd

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"

	"r3bench/internal/engine"
	"r3bench/internal/val"
)

// -update rewrites testdata/q_golden.json from this run instead of
// comparing against it. The checked-in file was recorded from the
// row-at-a-time pipeline the batch executor replaced, so regenerate it
// only for a change that is meant to move results or the simulated clock.
var updateGolden = flag.Bool("update", false, "rewrite testdata/q_golden.json from this run")

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
// construction: profiling is the same run with spans installed, so for
// every TPC-D query at degrees 1 and 2 ExplainAnalyze charges exactly the
// simulated time a plain execution charges and returns the same rows.
func TestExplainAnalyzeAddsQueryLap(t *testing.T) {
	dbPlain, _ := loadedDB(t)
	dbProf, _ := loadedDB(t)
	plain, prof := dbPlain.NewSession(), dbProf.NewSession()
	for _, deg := range []int{1, 2} {
		dbPlain.SetOptions(engine.Options{Parallel: deg})
		dbProf.SetOptions(engine.Options{Parallel: deg})
		for _, q := range Queries(testSF) {
			pStart, aStart := plain.Meter.Elapsed(), prof.Meter.Elapsed()
			var pRows, aRows [][]val.Value
			for _, sql := range q.SQL {
				res, err := plain.Exec(sql)
				if err != nil {
					t.Fatalf("deg=%d Q%d: %v", deg, q.Num, err)
				}
				if res.Cols == nil {
					// Q15's CREATE VIEW / DROP VIEW bracket its SELECT.
					if _, err := prof.Exec(sql); err != nil {
						t.Fatalf("deg=%d Q%d: %v", deg, q.Num, err)
					}
					continue
				}
				ap, err := prof.ExplainAnalyze(sql)
				if err != nil {
					t.Fatalf("deg=%d Q%d analyzed: %v", deg, q.Num, err)
				}
				pRows, aRows = res.Rows, ap.Result.Rows
			}
			if encodeResult(pRows) != encodeResult(aRows) {
				t.Errorf("deg=%d Q%d: ExplainAnalyze returned different rows", deg, q.Num)
			}
			if p, a := plain.Meter.Lap(pStart), prof.Meter.Lap(aStart); p != a {
				t.Errorf("deg=%d Q%d: Exec charged %v, ExplainAnalyze %v", deg, q.Num, p, a)
			}
		}
	}
}
