package client

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	stdruntime "runtime"
	"strings"
	"testing"

	"r3bench/internal/cost"
	"r3bench/internal/engine"
	"r3bench/internal/server"
	"r3bench/internal/val"
	"r3bench/internal/wire"
)

// serve brings up a server over a fresh database on a loopback listener
// and returns a connection to it; both shut down with the test.
func serve(t *testing.T) (*engine.DB, *Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	db := engine.Open(engine.Config{})
	srv := server.New(db)
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(srv.Close)
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return db, c
}

// load creates t(a INTEGER PRIMARY KEY, s VARCHAR(12), f DECIMAL(8,2),
// d DATE) with a = 0..n-1; s is NULL where a is a multiple of 7 and empty
// where it is a multiple of 5.
func load(t *testing.T, c *Conn, n int) {
	t.Helper()
	if _, err := c.Query(`CREATE TABLE t (a INTEGER PRIMARY KEY, s VARCHAR(12), f DECIMAL(8,2), d DATE)`); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < n; lo += 100 {
		var vals []string
		for a := lo; a < lo+100 && a < n; a++ {
			s := fmt.Sprintf("'row%d'", a)
			switch {
			case a%7 == 0:
				s = "NULL"
			case a%5 == 0:
				s = "''"
			}
			vals = append(vals, fmt.Sprintf("(%d, %s, %d.5, DATE '1996-01-02')", a, s, a))
		}
		res, err := c.Query(`INSERT INTO t VALUES ` + strings.Join(vals, ", "))
		if err != nil {
			t.Fatal(err)
		}
		if res.RowsAffected != int64(len(vals)) || res.Cols != nil || res.Rows != nil {
			t.Fatalf("INSERT of %d rows answered %+v", len(vals), res)
		}
	}
}

func TestQueryRoundTrip(t *testing.T) {
	_, c := serve(t)
	load(t, c, 30)
	res, err := c.Query(`SELECT a, s, f, d FROM t WHERE a >= ? AND a < ? ORDER BY a`, val.Int(5), val.Int(9))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Cols, []string{"A", "S", "F", "D"}) || res.RowsAffected != 0 || len(res.Rows) != 4 {
		t.Fatalf("result %+v", res)
	}
	// Every kind crosses the wire: int, empty string, string, NULL, float, date.
	if r := res.Rows[0]; r[0].AsInt() != 5 || r[1].K != val.KStr || r[1].S != "" || r[2].AsFloat() != 5.5 || r[3].K != val.KDate {
		t.Errorf("row a=5 arrived as %v", r)
	}
	if r := res.Rows[1]; r[1].AsStr() != "row6" {
		t.Errorf("row a=6 arrived as %v", r)
	}
	if r := res.Rows[2]; !r[1].IsNull() {
		t.Errorf("row a=7 arrived as %v", r)
	}
	// An empty answer has its columns and no rows.
	res, err = c.Query(`SELECT a FROM t WHERE a < 0`)
	if err != nil || len(res.Cols) != 1 || len(res.Rows) != 0 {
		t.Fatalf("empty answer: %+v, %v", res, err)
	}
}

func TestPreparedStatement(t *testing.T) {
	_, c := serve(t)
	load(t, c, 30)
	st, err := c.Prepare(`SELECT s FROM t WHERE a = ?`)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []int64{6, 11, 6} {
		res, err := st.Query(val.Int(a))
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].AsStr() != fmt.Sprintf("row%d", a) {
			t.Fatalf("a = %d: %+v, %v", a, res, err)
		}
	}
	ins, err := c.Prepare(`INSERT INTO t VALUES (?, ?, 0.5, DATE '1996-01-02')`)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := ins.Query(val.Int(100), val.Str("late")); err != nil || res.RowsAffected != 1 {
		t.Fatalf("prepared INSERT: %+v, %v", res, err)
	}
	if res, err := st.Query(val.Int(100)); err != nil || res.Rows[0][0].AsStr() != "late" {
		t.Fatalf("the inserted row reads back as %+v, %v", res, err)
	}
	// A closed statement is gone on the server; the connection is not.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	var we *wire.Error
	if _, err := st.Query(val.Int(6)); !errors.As(err, &we) || !strings.Contains(we.Msg, "unknown statement") {
		t.Fatalf("a closed statement answered %v", err)
	}
	if _, err := ins.Query(val.Int(101), val.Null); err != nil {
		t.Fatalf("the connection after a statement error: %v", err)
	}
}

func TestArrayFetch(t *testing.T) {
	_, c := serve(t)
	load(t, c, 250)
	var batches [][][]val.Value
	cols, affected, err := c.QueryArray(`SELECT a, s FROM t WHERE a >= ? ORDER BY a`, []val.Value{val.Int(10)}, func(batch [][]val.Value) error {
		batches = append(batches, batch) // kept: a packet's rows are its own
		return nil
	})
	if err != nil || !reflect.DeepEqual(cols, []string{"A", "S"}) || affected != 0 {
		t.Fatalf("cols %v, affected %d, %v", cols, affected, err)
	}
	if len(batches) != 3 || len(batches[0]) != cost.ArrayFetchRows || len(batches[2]) != 240-2*cost.ArrayFetchRows {
		t.Fatalf("240 rows arrived in %d packets", len(batches))
	}
	a := int64(10)
	for _, b := range batches {
		for _, r := range b {
			want := val.Str(fmt.Sprintf("row%d", a))
			switch {
			case a%7 == 0:
				want = val.Null
			case a%5 == 0:
				want = val.Str("")
			}
			if len(r) != 2 || r[0].AsInt() != a || r[1] != want {
				t.Fatalf("row a=%d arrived as %v", a, r)
			}
			a++
		}
	}
	// No rows: header and trailer only, the callback never runs.
	if _, _, err := c.QueryArray(`SELECT a FROM t WHERE a < 0`, nil, func([][]val.Value) error {
		t.Error("callback ran for an empty stream")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// A statement that returns no rows at all streams its count.
	if cols, affected, err := c.QueryArray(`DELETE FROM t WHERE a >= 200`, nil, nil); err != nil || cols != nil || affected != 50 {
		t.Fatalf("DELETE through the array path: cols %v, affected %d, %v", cols, affected, err)
	}
}

func TestErrorCarriesPosition(t *testing.T) {
	_, c := serve(t)
	_, err := c.Query("SELECT a\nFROM t WHERE ((a = 1")
	var we *wire.Error
	if !errors.As(err, &we) || we.Line != 2 || we.Col == 0 || we.Msg == "" {
		t.Fatalf("parse failure arrived as %#v", err)
	}
	// A failure with no source position has none.
	if _, err = c.Query(`SELECT a FROM nosuch`); !errors.As(err, &we) || we.Line != 0 || we.Col != 0 {
		t.Fatalf("planning failure arrived as %#v", err)
	}
	if _, err = c.Prepare(`SELECT FROM`); !errors.As(err, &we) || we.Line != 1 {
		t.Fatalf("Prepare of a malformed statement: %#v", err)
	}
}

// TestErrorEndsArrayStream: a statement that fails after its header went
// out ends the stream with its error; the rows of the packets before it
// were delivered, the error is the server's *wire.Error, and the
// connection is still good.
func TestErrorEndsArrayStream(t *testing.T) {
	_, c := serve(t)
	load(t, c, 400)
	// The scalar subquery returns two rows — an error — once x.a reaches 252.
	const q = `SELECT x.a, (SELECT y.a FROM t y WHERE y.a >= 251 AND y.a <= x.a) FROM t x`
	rows := 0
	_, _, err := c.QueryArray(q, nil, func(b [][]val.Value) error { rows += len(b); return nil })
	var we *wire.Error
	if !errors.As(err, &we) || !strings.Contains(we.Msg, "scalar subquery") {
		t.Fatalf("stream ended with %v", err)
	}
	if rows != 2*cost.ArrayFetchRows {
		t.Errorf("%d rows arrived before the error, want %d", rows, 2*cost.ArrayFetchRows)
	}
	if res, err := c.Query(`SELECT COUNT(*) FROM t`); err != nil || res.Rows[0][0].AsInt() != 400 {
		t.Fatalf("the connection after the failure: %v, %v", res, err)
	}
}

// TestNonFiniteSumOverTheWire: a SUM over +Inf and −Inf answers NaN, one
// over an infinity answers it, and the server answers the next statement —
// such a sum used to panic inside math/big and take the server down.
func TestNonFiniteSumOverTheWire(t *testing.T) {
	_, c := serve(t)
	load(t, c, 30)
	huge := "1" + strings.Repeat("0", 300) + ".0"
	if _, err := c.Query(`UPDATE t SET f = ` + huge + ` * ` + huge + ` WHERE a = 3`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(`UPDATE t SET f = 0 - ` + huge + ` * ` + huge + ` WHERE a = 4`); err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct {
		sql  string
		want float64
	}{
		{`SELECT SUM(f) FROM t`, math.NaN()},
		{`SELECT SUM(f * 0) FROM t WHERE a = 3`, math.NaN()},
		{`SELECT AVG(f) FROM t WHERE a <> 4`, math.Inf(1)},
	} {
		res, err := c.Query(q.sql)
		if err != nil {
			t.Fatalf("%s: %v", q.sql, err)
		}
		got := res.Rows[0][0].AsFloat()
		if math.IsNaN(q.want) != math.IsNaN(got) || !math.IsNaN(got) && got != q.want {
			t.Errorf("%s answered %v, want %v", q.sql, got, q.want)
		}
	}
	if res, err := c.Query(`SELECT COUNT(*) FROM t`); err != nil || res.Rows[0][0].AsInt() != 30 {
		t.Fatalf("the statement after the sums: %v, %v", res, err)
	}
}

func TestClose(t *testing.T) {
	_, c := serve(t)
	load(t, c, 10)
	st, err := c.Prepare(`SELECT a FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(`SELECT a FROM t`); err == nil {
		t.Error("Query on a closed connection succeeded")
	}
	if _, err := st.Query(); err == nil {
		t.Error("a statement of a closed connection executed")
	}
	if _, _, err := c.QueryArray(`SELECT a FROM t`, nil, nil); err == nil {
		t.Error("QueryArray on a closed connection succeeded")
	}
	if _, err := c.Prepare(`SELECT a FROM t`); err == nil {
		t.Error("Prepare on a closed connection succeeded")
	}
}

// --- frame decoding ---

// randValue draws a value of any kind, NULLs and empty strings included.
func randValue(rng *rand.Rand) val.Value {
	switch rng.Intn(6) {
	case 0:
		return val.Null
	case 1:
		return val.Int(rng.Int63() - 1<<62)
	case 2:
		return val.Float(rng.NormFloat64())
	case 3:
		return val.Date(int64(rng.Intn(20000)))
	case 4:
		return val.Str("")
	default:
		b := make([]byte, 1+rng.Intn(20))
		rng.Read(b)
		return val.Str(string(b))
	}
}

// randResult draws a result of up to 40 rows by up to 6 columns; zero rows
// and zero columns are both likely enough to come up.
func randResult(rng *rand.Rand) *engine.Result {
	res := &engine.Result{RowsAffected: int64(rng.Intn(3))}
	nCols, nRows := rng.Intn(7), 0
	if rng.Intn(5) > 0 {
		nRows = rng.Intn(41)
	}
	for i := 0; i < nCols; i++ {
		res.Cols = append(res.Cols, fmt.Sprintf("C%d", i))
	}
	for i := 0; i < nRows; i++ {
		row := make([]val.Value, nCols)
		for j := range row {
			row[j] = randValue(rng)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// encodeResult builds a MsgResult frame body the way the server does.
func encodeResult(b []byte, res *engine.Result) []byte {
	b = wire.AppendUint32(b, uint32(len(res.Cols)))
	for _, c := range res.Cols {
		b = wire.AppendString(b, c)
	}
	b = wire.AppendUint64(b, uint64(res.RowsAffected))
	b = wire.AppendUint32(b, uint32(len(res.Rows)))
	for _, row := range res.Rows {
		b = wire.AppendValues(b, row)
	}
	return b
}

// decodeReference decodes a MsgResult body row by row with Reader.Values:
// the decoder the slab decoder replaced, kept as its oracle.
func decodeReference(body []byte) (*engine.Result, error) {
	r := wire.NewReader(body)
	res := &engine.Result{}
	for i, n := 0, int(r.Uint32()); i < n && r.Err() == nil; i++ {
		res.Cols = append(res.Cols, r.String())
	}
	res.RowsAffected = int64(r.Uint64())
	for i, n := 0, int(r.Uint32()); i < n && r.Err() == nil; i++ {
		res.Rows = append(res.Rows, r.Values())
	}
	return res, r.Err()
}

// sameResult compares two results value by value (a NULL row list and an
// empty one are the same answer).
func sameResult(a, b *engine.Result) bool {
	if !reflect.DeepEqual(a.Cols, b.Cols) || a.RowsAffected != b.RowsAffected || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j, v := range a.Rows[i] {
			if w := b.Rows[i][j]; v.K != w.K || v.I != w.I || v.S != w.S || (v.F != w.F && v.F == v.F) {
				return false
			}
		}
	}
	return true
}

// TestSlabDecodeMatchesReference: on random results the slab decoder and
// the per-row reference agree with each other and with what was encoded —
// and a result decoded from a frame buffer stays intact when the next frame
// is read into the same buffer and decoded, as Conn.in is reused.
func TestSlabDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf []byte
	var prev, prevWant *engine.Result
	for i := 0; i < 500; i++ {
		want := randResult(rng)
		buf = encodeResult(buf[:0], want)
		got, err := decodeResult(buf)
		if err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		ref, err := decodeReference(buf)
		if err != nil {
			t.Fatalf("result %d: reference: %v", i, err)
		}
		if !sameResult(got, want) || !sameResult(got, ref) {
			t.Fatalf("result %d decoded as\n%+v\nreference\n%+v\nwant\n%+v", i, got, ref, want)
		}
		for _, row := range got.Rows {
			if cap(row) != len(row) {
				t.Fatalf("result %d: a row can grow into its neighbour (len %d cap %d)", i, len(row), cap(row))
			}
		}
		if prev != nil && !sameResult(prev, prevWant) {
			t.Fatalf("result %d changed when result %d was decoded from the same buffer", i-1, i)
		}
		prev, prevWant = got, want
	}
}

// lyingFrames are MsgResult bodies whose counts promise more than their
// bytes can hold, or whose rows are not what the header says.
func lyingFrames() map[string][]byte {
	u32, u64 := wire.AppendUint32, wire.AppendUint64
	one := encodeResult(nil, &engine.Result{Cols: []string{"A", "B"}, Rows: [][]val.Value{{val.Int(1), val.Str("x")}}})
	return map[string][]byte{
		"empty":             nil,
		"huge column count": u32(nil, 1<<30),
		"huge row count":    u32(u64(wire.AppendString(u32(nil, 1), "A"), 0), 1<<31),
		"rows x cols":       u32(u64(wire.AppendString(wire.AppendString(wire.AppendString(u32(nil, 3), "A"), "B"), "C"), 0), 1<<24),
		"truncated":         one[:len(one)-1],
		"short row":         wire.AppendValues(u32(u64(wire.AppendString(wire.AppendString(u32(nil, 2), "A"), "B"), 0), 1), []val.Value{val.Int(1)}),
		"unknown kind":      append(u32(u32(u64(wire.AppendString(u32(nil, 1), "A"), 0), 1), 1), 0x7F),
	}
}

// TestLyingFramesRejected: a frame whose counts exceed its body is refused
// before anything is allocated for the rows it claims.
func TestLyingFramesRejected(t *testing.T) {
	for name, body := range lyingFrames() {
		var res *engine.Result
		var err error
		// TotalAlloc is the whole process's: a goroutine an earlier test left
		// winding down can allocate inside the window. That only ever adds,
		// so the smallest of three readings is the decoder's.
		n := ^uint64(0)
		for try := 0; try < 3 && n > 4096; try++ {
			var before, after stdruntime.MemStats
			stdruntime.ReadMemStats(&before)
			res, err = decodeResult(body)
			stdruntime.ReadMemStats(&after)
			n = min(n, after.TotalAlloc-before.TotalAlloc)
		}
		if err == nil {
			t.Errorf("%s: decoded as %+v", name, res)
		}
		if n > 4096 {
			t.Errorf("%s: %d bytes allocated for a %d-byte body", name, n, len(body))
		}
	}
}

// FuzzDecodeResult: no body makes the decoder panic, and whatever it accepts
// the per-row reference decodes to the same result. The seeds are random
// well-formed results and the lying frames above.
func FuzzDecodeResult(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		f.Add(encodeResult(nil, randResult(rng)))
	}
	for _, body := range lyingFrames() {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := decodeResult(body)
		if err != nil {
			return
		}
		ref, err := decodeReference(body)
		if err != nil || !sameResult(got, ref) {
			t.Fatalf("accepted as %+v, reference %+v, %v", got, ref, err)
		}
	})
}
