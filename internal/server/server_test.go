package server

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"r3bench/internal/client"
	"r3bench/internal/cost"
	"r3bench/internal/engine"
	"r3bench/internal/val"
	"r3bench/internal/wire"
)

// startServer brings up a server on a loopback listener and returns its
// address. The server shuts down with the test.
func startServer(t *testing.T, db *engine.DB) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db)
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(srv.Close)
	return l.Addr().String()
}

func dial(t *testing.T, addr string) *client.Conn {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestQueryRoundTrip(t *testing.T) {
	db := engine.Open(engine.Config{})
	addr := startServer(t, db)
	c := dial(t, addr)

	if _, err := c.Query(`CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR(10), f DECIMAL(8,2), d DATE)`); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(`INSERT INTO t VALUES (1, 'one', 1.5, DATE '1996-01-02'), (2, 'two', 2.5, DATE '1996-03-04')`)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 2 {
		t.Fatalf("RowsAffected = %d, want 2", res.RowsAffected)
	}
	res, err = c.Query(`SELECT a, b, f, d FROM t ORDER BY a`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 4 || res.Cols[0] != "A" && res.Cols[0] != "a" {
		t.Fatalf("Cols = %v", res.Cols)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
	// Every kind survives the wire: int, string, float, date.
	r0 := res.Rows[0]
	if r0[0].AsInt() != 1 || r0[1].AsStr() != "one" || r0[2].AsFloat() != 1.5 || r0[3].K != val.KDate {
		t.Fatalf("row 0 = %v", r0)
	}
	// NULL round-trips too.
	res, err = c.Query(`SELECT NULL FROM t WHERE a = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rows[0][0].IsNull() {
		t.Fatalf("NULL arrived as %v", res.Rows[0][0])
	}
}

func TestPreparedExec(t *testing.T) {
	db := engine.Open(engine.Config{})
	addr := startServer(t, db)
	c := dial(t, addr)

	if _, err := c.Query(`CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER)`); err != nil {
		t.Fatal(err)
	}
	ins, err := c.Prepare(`INSERT INTO t VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 50; i++ {
		if _, err := ins.Query(val.Int(i), val.Int(i*i)); err != nil {
			t.Fatal(err)
		}
	}
	q, err := c.Prepare(`SELECT b FROM t WHERE a = ?`)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 50; i += 7 {
		res, err := q.Query(val.Int(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != i*i {
			t.Fatalf("a=%d: %v", i, res.Rows)
		}
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	// A closed statement errors without killing the connection.
	if _, err := q.Query(val.Int(1)); err == nil {
		t.Fatal("closed statement still executed")
	}
	if _, err := c.Query(`SELECT COUNT(*) FROM t`); err != nil {
		t.Fatalf("connection dead after statement error: %v", err)
	}
}

func TestArrayFetchStreams(t *testing.T) {
	db := engine.Open(engine.Config{})
	db.SetOptions(engine.Options{ArrayFetch: true})
	addr := startServer(t, db)
	c := dial(t, addr)

	if _, err := c.Query(`CREATE TABLE t (a INTEGER PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	const n = 250 // 2 full packets + 1 partial at ArrayFetchRows=100
	for i := 0; i < n; i += 50 {
		sql := `INSERT INTO t VALUES `
		for j := 0; j < 50; j++ {
			if j > 0 {
				sql += ", "
			}
			sql += fmt.Sprintf("(%d)", i+j)
		}
		if _, err := c.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	var batches []int
	var got int64
	cols, _, err := c.QueryArray(`SELECT a FROM t ORDER BY a`, nil, func(batch [][]val.Value) error {
		batches = append(batches, len(batch))
		for _, row := range batch {
			if row[0].AsInt() != got {
				return fmt.Errorf("row %d arrived as %v", got, row[0])
			}
			got++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 1 {
		t.Fatalf("cols = %v", cols)
	}
	if got != n {
		t.Fatalf("streamed %d rows, want %d", got, n)
	}
	want := []int{cost.ArrayFetchRows, cost.ArrayFetchRows, n - 2*cost.ArrayFetchRows}
	if len(batches) != len(want) {
		t.Fatalf("batches = %v, want %v", batches, want)
	}
	for i := range want {
		if batches[i] != want[i] {
			t.Fatalf("batches = %v, want %v", batches, want)
		}
	}
}

func TestParseErrorCarriesPosition(t *testing.T) {
	db := engine.Open(engine.Config{})
	addr := startServer(t, db)
	c := dial(t, addr)

	_, err := c.Query("SELECT x\nFROM t WHERE ^^ 1")
	if err == nil {
		t.Fatal("bad statement accepted")
	}
	we, ok := err.(*wire.Error)
	if !ok {
		t.Fatalf("error type %T, want *wire.Error", err)
	}
	if we.Line != 2 {
		t.Fatalf("Line = %d, want 2", we.Line)
	}
	if we.Col != 13 {
		t.Fatalf("Col = %d, want 13", we.Col)
	}
	// The connection survives statement failures.
	if _, err := c.Query(`CREATE TABLE ok (a INTEGER PRIMARY KEY)`); err != nil {
		t.Fatalf("connection dead after parse error: %v", err)
	}
}

// TestConcurrentClients runs several connections against one server —
// each is its own engine session on its own goroutine, so this is the
// network realization of the multi-session concurrency tests.
func TestConcurrentClients(t *testing.T) {
	db := engine.Open(engine.Config{})
	addr := startServer(t, db)
	setup := dial(t, addr)
	if _, err := setup.Query(`CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := setup.Query(`INSERT INTO t VALUES (?, ?)`, val.Int(int64(i)), val.Int(int64(i%8))); err != nil {
			t.Fatal(err)
		}
	}
	const clients, iters = 6, 40
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < iters; i++ {
				if g%2 == 0 {
					res, err := c.Query(`SELECT COUNT(*) FROM t WHERE b >= 0`)
					if err != nil {
						errs <- err
						return
					}
					if n := res.Rows[0][0].AsInt(); n < 64 {
						errs <- fmt.Errorf("client %d saw %d rows", g, n)
						return
					}
				} else {
					id := int64(1000 + g*iters + i)
					if _, err := c.Query(`INSERT INTO t VALUES (?, ?)`, val.Int(id), val.Int(id%8)); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res, err := setup.Query(`SELECT COUNT(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(64 + (clients/2)*iters)
	if got := res.Rows[0][0].AsInt(); got != want {
		t.Fatalf("final count = %d, want %d", got, want)
	}
}
