package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"r3bench/internal/client"
	"r3bench/internal/cost"
	"r3bench/internal/engine"
	"r3bench/internal/race"
	"r3bench/internal/val"
	"r3bench/internal/wire"
)

// loadInts creates t(a INTEGER PRIMARY KEY, s CHAR(12)) holding a = 0..n-1.
func loadInts(t *testing.T, c *client.Conn, n int) {
	t.Helper()
	if _, err := c.Query(`CREATE TABLE t (a INTEGER PRIMARY KEY, s CHAR(12))`); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < n; lo += 100 {
		var vals []string
		for a := lo; a < lo+100 && a < n; a++ {
			vals = append(vals, fmt.Sprintf("(%d, 'row%d')", a, a))
		}
		if _, err := c.Query(`INSERT INTO t VALUES ` + strings.Join(vals, ", ")); err != nil {
			t.Fatal(err)
		}
	}
}

// failsAt501 streams rows a = 0..501 and then fails: its scalar subquery
// returns no row below 500, one row at 500 and 501, two — an error — at
// 502, by which time five packets have gone out.
const failsAt501 = `SELECT x.a, (SELECT y.a FROM t y WHERE y.a >= 501 AND y.a <= x.a) FROM t x`

// TestStatementFailsMidStream: rows leave the server while the statement
// still runs, so a runtime error can arrive after rows were sent. On the
// array path the error ends the stream in place of MsgResultEnd; on the
// whole-result path nothing had been sent and the error is the reply.
// Either way the client gets a *wire.Error and the connection carries on.
func TestStatementFailsMidStream(t *testing.T) {
	db := engine.Open(engine.Config{})
	c := dial(t, startServer(t, db))
	loadInts(t, c, 700)

	var got []int64
	cols, _, err := c.QueryArray(failsAt501, nil, func(batch [][]val.Value) error {
		for _, r := range batch {
			got = append(got, r[0].AsInt())
		}
		return nil
	})
	var we *wire.Error
	if !errors.As(err, &we) || !strings.Contains(we.Msg, "scalar subquery returned 2 rows") {
		t.Fatalf("array stream ended with %v (cols %v), want the statement's *wire.Error", err, cols)
	}
	if len(got) != 5*cost.ArrayFetchRows {
		t.Errorf("%d rows arrived before the error, want the %d of the full packets", len(got), 5*cost.ArrayFetchRows)
	}
	for i, a := range got {
		if a != int64(i) {
			t.Fatalf("row %d of the stream is a = %d", i, a)
		}
	}

	if res, err := c.Query(failsAt501); !errors.As(err, &we) || res != nil {
		t.Fatalf("whole-result reply = %v, %v, want only the statement's *wire.Error", res, err)
	}
	st, err := c.Prepare(failsAt501)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := st.Query(); !errors.As(err, &we) || res != nil {
		t.Fatalf("prepared reply = %v, %v, want only the statement's *wire.Error", res, err)
	}

	// The connection and the session behind it are intact.
	res, err := c.Query(`SELECT COUNT(*), MAX(a) FROM t`)
	if err != nil || res.Rows[0][0].AsInt() != 700 || res.Rows[0][1].AsInt() != 699 {
		t.Fatalf("after the failures: %v, %v", res, err)
	}
	n := 0
	if _, _, err := c.QueryArray(`SELECT a, s FROM t`, nil, func(b [][]val.Value) error { n += len(b); return nil }); err != nil || n != 700 {
		t.Fatalf("array stream after the failures: %d rows, %v", n, err)
	}
}

// TestPreparedStmtSeesDDLOverWire is the engine's stale-plan regression
// (TestPreparedStmtSeesDDL) through conn.stmts: a server-side statement
// outlives DDL on its tables and must answer as the same text would ad hoc.
func TestPreparedStmtSeesDDLOverWire(t *testing.T) {
	db := engine.Open(engine.Config{})
	c := dial(t, startServer(t, db))
	exec := func(sql string) {
		t.Helper()
		if _, err := c.Query(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	load := func(rows, perKey int) {
		t.Helper()
		exec(`CREATE TABLE D (ID INTEGER PRIMARY KEY, N INTEGER, PAD CHAR(200))`)
		for lo := 0; lo < rows; lo += 100 {
			var vals []string
			for i := lo; i < lo+100; i++ {
				vals = append(vals, fmt.Sprintf("(%d, %d, 'x')", i, i%(rows/perKey)))
			}
			exec(`INSERT INTO D VALUES ` + strings.Join(vals, ", "))
		}
	}
	load(3000, 6)
	exec(`CREATE INDEX D_N ON D (N)`)
	if err := db.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	if plan, err := db.NewSession().Explain(`SELECT ID FROM D WHERE N = ?`); err != nil || !strings.Contains(plan, "via D_N") {
		t.Fatalf("fixture: the statement does not use D_N: %v\n%s", err, plan)
	}
	st, err := c.Prepare(`SELECT ID FROM D WHERE N = ?`)
	if err != nil {
		t.Fatal(err)
	}
	rows := func(want int) {
		t.Helper()
		res, err := st.Query(val.Int(3))
		if err != nil {
			t.Fatal(err)
		}
		adhoc, err := c.Query(`SELECT ID FROM D WHERE N = 3`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != want || len(adhoc.Rows) != want {
			t.Fatalf("prepared returns %d rows, ad hoc %d, want %d", len(res.Rows), len(adhoc.Rows), want)
		}
	}
	rows(6)
	exec(`DROP INDEX D_N`)
	exec(`INSERT INTO D VALUES (10000, 3, 'x')`)
	rows(7)
	exec(`DROP TABLE D`)
	var we *wire.Error
	if _, err := st.Query(val.Int(3)); !errors.As(err, &we) {
		t.Fatalf("with its table dropped the statement returned %v, want a *wire.Error", err)
	}
	load(5000, 50)
	rows(50)
}

// TestRoundTripAllocationBudget bounds what one prepared one-row lookup
// allocates end to end — client encode, both transports, session, engine,
// reply encode, client decode, counted across both goroutines — at 20, twice
// the 10 allocations it measured while each frame's 4-byte header escaped
// to the heap in both directions (6 now; 11 while the index probe put its
// B-tree iterator on the heap; 14 while every execution backed its frames
// and projection slab afresh; 17 while the fetch made a string of each of
// the row's three CHAR values only for conn to encode it; 44 before
// statements kept their run state, rows were streamed into the reply frame
// and a frame was decoded into one slab), and a prepared one-row DELETE at
// 18, twice the 9 of that time (4 now, with the index keys on the stack too;
// 10 while the B-tree write built its entry key on the heap; 11 with the
// heap iterator; 88 while every execution planned its match scan afresh).
// On the server a streamed row costs nothing at all: the scan's CHAR values
// are views of the page image and conn encodes them straight into the reply
// frame, and a single-table block hands its first 1024 rows on one at a time
// in the one frame its statement keeps, so an array stream of 2000 more rows
// allocates 8 more times (the frames of the batches it grows to after 1024
// rows; 19 while its batch grew from the first row), not 7500.
func TestRoundTripAllocationBudget(t *testing.T) {
	db := engine.Open(engine.Config{})
	c := dial(t, startServer(t, db))
	if _, err := c.Query(`CREATE TABLE o (k INTEGER PRIMARY KEY, a CHAR(1), b DECIMAL(12,2), c DATE, d CHAR(15), e CHAR(15), f INTEGER, g CHAR(40), h INTEGER)`); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < 3000; lo += 100 {
		var vals []string
		for k := lo; k < lo+100; k++ {
			vals = append(vals, fmt.Sprintf(`(%d, 'O', %d.25, DATE '1996-01-02', '5-LOW', 'Clerk#000000951', 0, 'nstructions sleep furiously among', %d)`, k, k, k))
		}
		if _, err := c.Query(`INSERT INTO o VALUES ` + strings.Join(vals, ", ")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	st, err := c.Prepare(`SELECT * FROM o WHERE k = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if plan, err := db.NewSession().Explain(`SELECT * FROM o WHERE k = ?`); err != nil || !strings.Contains(plan, "index scan") {
		t.Fatalf("fixture: not an index lookup: %v\n%s", err, plan)
	}
	n := testing.AllocsPerRun(200, func() {
		if res, err := st.Query(val.Int(17)); err != nil || len(res.Rows) != 1 || len(res.Rows[0]) != 9 {
			t.Fatalf("%v, %v", res, err)
		}
	})
	if !race.Enabled && n > 20 {
		t.Errorf("one prepared one-row round trip allocates %.0f times, budget 20", n)
	}
	del, err := c.Prepare(`DELETE FROM o WHERE k = ?`)
	if err != nil {
		t.Fatal(err)
	}
	k := int64(0)
	n = testing.AllocsPerRun(200, func() {
		if res, err := del.Query(val.Int(k)); err != nil || res.RowsAffected != 1 {
			t.Fatalf("%v, %v", res, err)
		}
		k++
	})
	if !race.Enabled && n > 18 {
		t.Errorf("one prepared one-row DELETE round trip allocates %.0f times, budget 18", n)
	}

	sc := &conn{sess: db.NewSession(), w: bufio.NewWriter(io.Discard)}
	stream := func(rows int) float64 {
		q := fmt.Sprintf(`SELECT * FROM o WHERE k < %d`, rows)
		return testing.AllocsPerRun(10, func() {
			sc.begin(true)
			if err := sc.finish(sc.sess.ExecTo(sc, q)); err != nil {
				t.Fatal(err)
			}
		})
	}
	if perRow := (stream(2500) - stream(500)) / 2000; !race.Enabled && perRow > 0.02 {
		t.Errorf("the server allocates %.3f times per row of an array stream, budget 0.02", perRow)
	}
}
