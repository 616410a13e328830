package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"r3bench/internal/cost"
)

// -update rewrites testdata/exec_golden.json from this run instead of
// comparing against it. The checked-in file was recorded from the
// row-at-a-time pipeline the batch executor replaced, so regenerate it
// only for a change that is meant to move results or the simulated clock.
var updateGolden = flag.Bool("update", false, "rewrite testdata/exec_golden.json from this run")

// goldenRun is one recorded execution: where it ran, what it returned
// (SHA-256 of encodeRows) and what it charged the simulated clock.
type goldenRun struct {
	Cold     bool   `json:"cold,omitempty"`
	Rows     int    `json:"rows"`
	Degree   int    `json:"degree"`
	Query    string `json:"query"`
	Digest   string `json:"digest"`
	LapNS    int64  `json:"lap_ns"`
	SeqRead  int64  `json:"seq_read"`
	TupleCPU int64  `json:"tuple_cpu"`
}

// coldPoolBytes is a buffer pool smaller than tt at 1500 rows, so scans
// pay page reads and an early stop shows up in SeqRead as well as TupleCPU.
const coldPoolBytes = 16 * 8192

// vecDB builds the executor-test database: a 4-row dimension, an empty
// table, and tt with the given row count. tt's pad column makes 1500 rows
// span enough pages (42) for the parallel gate to open, so degrees 2 and 8
// really run partitioned lanes. poolBytes 0 is the default pool, which
// keeps every table resident.
func vecDB(t *testing.T, rows, poolBytes int) *Session {
	t.Helper()
	db := Open(Config{BufferBytes: poolBytes})
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE dim (g_id INTEGER PRIMARY KEY, g_name CHAR(12))`)
	for g := 0; g < 4; g++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO dim VALUES (%d, 'GROUP%d')`, g, g))
	}
	mustExec(t, s, `CREATE TABLE tt (id INTEGER PRIMARY KEY, grp INTEGER, v DECIMAL(10,2), pad CHAR(200))`)
	for i := 0; i < rows; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO tt VALUES (%d, %d, %d.%02d, 'x')`,
			i, i%4, (i*7919)%1000, i%100))
	}
	mustExec(t, s, `CREATE TABLE te (id INTEGER PRIMARY KEY, v DECIMAL(10,2))`)
	if err := db.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	return s
}

// record runs q on s and returns its golden entry.
func record(t *testing.T, s *Session, cold bool, rows, degree int, q string) goldenRun {
	t.Helper()
	start, seq, cpu := s.Meter.Elapsed(), s.Meter.Count(cost.SeqRead), s.Meter.Count(cost.TupleCPU)
	res, err := s.Query(q)
	if err != nil {
		t.Fatalf("rows=%d deg=%d %q: %v", rows, degree, q, err)
	}
	sum := sha256.Sum256([]byte(encodeRows(res.Rows)))
	return goldenRun{
		Cold: cold, Rows: rows, Degree: degree, Query: q,
		Digest:   hex.EncodeToString(sum[:]),
		LapNS:    int64(s.Meter.Lap(start)),
		SeqRead:  s.Meter.Count(cost.SeqRead) - seq,
		TupleCPU: s.Meter.Count(cost.TupleCPU) - cpu,
	}
}

// goldenPass replays the recorded schedule for one table size on one
// session, so each entry sees the buffer-pool history it was recorded
// under: every query of vecQueries at degrees 1, 2 and 8 with the tables
// resident, or — cold — serially against a pool the table does not fit
// (lanes racing for a small pool would not charge reproducibly).
func goldenPass(t *testing.T, rows int, cold bool) (*Session, []goldenRun) {
	t.Helper()
	poolBytes, degrees := 0, []int{1, 2, 8}
	if cold {
		poolBytes, degrees = coldPoolBytes, []int{1}
	}
	s := vecDB(t, rows, poolBytes)
	var got []goldenRun
	for _, deg := range degrees {
		s.db.SetOptions(Options{Parallel: deg})
		for _, q := range vecQueries {
			got = append(got, record(t, s, cold, rows, deg, q))
		}
	}
	return s, got
}

// TestExecGolden is the executor's oracle: every pipeline shape, at table
// sizes on, below and beyond the batch boundaries and at serial and
// parallel degrees, must return the recorded rows and charge the recorded
// simulated time — to the byte and to the nanosecond.
func TestExecGolden(t *testing.T) {
	var got []goldenRun
	for _, n := range []int{0, 1, 64, 65, 1500} {
		_, warm := goldenPass(t, n, false)
		got = append(got, warm...)
	}
	_, cold := goldenPass(t, 1500, true)
	got = append(got, cold...)

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
		if err := os.WriteFile("testdata/exec_golden.json", []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile("testdata/exec_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenRun
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

// TestEarlyStopIsRowExact pins the batch-capacity rule: a block that can
// stop early (LIMIT without ORDER BY, a correlated EXISTS) takes each row
// from its scan before the next is read, so it touches strictly fewer
// rows and pages than the same block made to run to the end. (That it
// touches exactly the recorded ones is TestExecGolden's cold pass.)
func TestEarlyStopIsRowExact(t *testing.T) {
	const (
		limitQ  = `SELECT id FROM tt WHERE grp = 2 LIMIT 5`
		existsQ = `SELECT g_id FROM dim WHERE EXISTS (SELECT id FROM tt WHERE grp = g_id) ORDER BY g_id`
	)
	s, got := goldenPass(t, 1500, true)
	stopped := map[string]goldenRun{}
	for _, g := range got {
		stopped[g.Query] = g
	}
	for early, full := range map[string]string{
		limitQ:  `SELECT id FROM tt WHERE grp = 2`,
		existsQ: `SELECT g_id FROM dim WHERE 0 < (SELECT COUNT(*) FROM tt WHERE grp = g_id) ORDER BY g_id`,
	} {
		e, ok := stopped[early]
		if !ok {
			t.Fatalf("%q is not in vecQueries", early)
		}
		f := record(t, s, true, 1500, 1, full)
		if e.SeqRead >= f.SeqRead || e.TupleCPU >= f.TupleCPU {
			t.Errorf("%q read %d pages, %d tuples: not fewer than %d, %d of %q",
				early, e.SeqRead, e.TupleCPU, f.SeqRead, f.TupleCPU, full)
		}
	}
}

// TestParallelGroupedSumBitExact guards the lanes' flush-before-merge
// rule: each lane's pending float expansions must be poured into its exact
// sums before the coordinator merges accumulators, or the merged SUM/AVG
// drifts from the serial result. Run under -race it also checks that lanes
// share no batch or slab.
func TestParallelGroupedSumBitExact(t *testing.T) {
	const q = `SELECT grp, COUNT(*), SUM(v), AVG(v) FROM tt GROUP BY grp ORDER BY grp`
	s := vecDB(t, 1500, 0)
	serial := encodeRows(mustExec(t, s, q).Rows)
	s.db.SetOptions(Options{Parallel: 8})
	base := s.db.Stats().ParallelRuns
	if got := encodeRows(mustExec(t, s, q).Rows); got != serial {
		t.Errorf("degree-8 grouped SUM differs from serial")
	}
	if s.db.Stats().ParallelRuns == base {
		t.Errorf("degree 8 did not engage parallel lanes")
	}
}
