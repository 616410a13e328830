package server

import (
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"testing"

	"r3bench/internal/client"
	"r3bench/internal/engine"
	"r3bench/internal/val"
	"r3bench/internal/wire"
)

// fakeServer listens on loopback and hands each accepted connection to
// handle on its own goroutine — for driving the client against
// misbehaving peers the real server never produces.
func fakeServer(t *testing.T, handle func(net.Conn)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go handle(c)
		}
	}()
	return l.Addr().String()
}

func TestArrayFetchStatementErrorKeepsConnAlive(t *testing.T) {
	db := engine.Open(engine.Config{})
	db.SetOptions(engine.Options{ArrayFetch: true})
	addr := startServer(t, db)
	c := dial(t, addr)

	if _, err := c.Query(`CREATE TABLE t (a INTEGER PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(`INSERT INTO t VALUES (1), (2), (3)`); err != nil {
		t.Fatal(err)
	}
	// A failing statement on the array path answers with MsgError before
	// any stream opens; the session must survive it.
	_, _, err := c.QueryArray(`SELECT a FROM nosuch`, nil, func([][]val.Value) error { return nil })
	if err == nil {
		t.Fatal("query against a missing table succeeded")
	}
	if _, ok := err.(*wire.Error); !ok {
		t.Fatalf("error type %T, want *wire.Error", err)
	}
	res, err := c.Query(`SELECT COUNT(*) FROM t`)
	if err != nil {
		t.Fatalf("connection dead after array statement error: %v", err)
	}
	if res.Rows[0][0].AsInt() != 3 {
		t.Fatalf("count = %v, want 3", res.Rows[0][0])
	}
	// And the array stream itself still works afterwards.
	var n int
	if _, _, err := c.QueryArray(`SELECT a FROM t ORDER BY a`, nil, func(b [][]val.Value) error {
		n += len(b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("streamed %d rows, want 3", n)
	}
}

func TestCallbackAbortLatchesConnDead(t *testing.T) {
	db := engine.Open(engine.Config{})
	db.SetOptions(engine.Options{ArrayFetch: true})
	addr := startServer(t, db)
	c := dial(t, addr)

	if _, err := c.Query(`CREATE TABLE t (a INTEGER PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	sql := `INSERT INTO t VALUES (0)`
	for i := 1; i < 150; i++ {
		sql += fmt.Sprintf(", (%d)", i)
	}
	if _, err := c.Query(sql); err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("consumer gave up")
	_, _, err := c.QueryArray(`SELECT a FROM t ORDER BY a`, nil, func([][]val.Value) error { return boom })
	if err != boom {
		t.Fatalf("err = %v, want the callback's error", err)
	}
	// Aborting mid-stream desynchronizes framing, so the client must
	// latch the connection dead rather than let the next request read
	// leftover row batches as its reply.
	if _, err := c.Query(`SELECT COUNT(*) FROM t`); err == nil {
		t.Fatal("aborted connection still usable")
	} else if !strings.Contains(err.Error(), "array fetch aborted") {
		t.Fatalf("latched error = %v, want array-fetch abort", err)
	}
}

func TestConnClosedMidArrayFetch(t *testing.T) {
	// The peer opens a row stream and drops the connection before the
	// trailer: the fetch must fail and the failure must latch.
	addr := fakeServer(t, func(nc net.Conn) {
		defer nc.Close()
		r, err := wire.ReadFrame(nc, nil)
		if err != nil || r[0] != wire.MsgQueryArray {
			return
		}
		out := []byte{wire.MsgRowHeader}
		out = wire.AppendUint32(out, 1)
		out = wire.AppendString(out, "a")
		wire.WriteFrame(nc, out)

		out = append(out[:0], wire.MsgRowBatch)
		out = wire.AppendUint32(out, 1)
		out = wire.AppendValues(out, []val.Value{val.Int(42)})
		wire.WriteFrame(nc, out)
		// ... and vanish without MsgResultEnd.
	})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var rows int
	_, _, err = c.QueryArray(`SELECT a FROM t`, nil, func(b [][]val.Value) error {
		rows += len(b)
		return nil
	})
	if err == nil {
		t.Fatal("truncated stream reported success")
	}
	if rows != 1 {
		t.Fatalf("delivered %d rows before the cut, want 1", rows)
	}
	if _, err := c.Query(`SELECT 1 FROM t`); err == nil {
		t.Fatal("connection usable after mid-stream disconnect")
	}
}

func TestClientRejectsOversizedFrame(t *testing.T) {
	// A peer announcing a frame beyond wire.MaxFrame is corrupt; the
	// client must refuse it without attempting the allocation and kill
	// the session.
	addr := fakeServer(t, func(nc net.Conn) {
		defer nc.Close()
		if _, err := wire.ReadFrame(nc, nil); err != nil {
			return
		}
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(wire.MaxFrame+1))
		nc.Write(hdr[:])
	})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Query(`SELECT 1 FROM t`)
	if err == nil {
		t.Fatal("oversized frame accepted")
	}
	if !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("err = %v, want frame-limit rejection", err)
	}
	if _, err := c.Query(`SELECT 1 FROM t`); err == nil {
		t.Fatal("connection usable after oversized frame")
	}
}

func TestServerDropsOversizedFrame(t *testing.T) {
	// The same guard on the server side: a client announcing an absurd
	// frame gets disconnected instead of trusted with the allocation.
	db := engine.Open(engine.Config{})
	addr := startServer(t, db)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(wire.MaxFrame+1))
	if _, err := nc.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	var buf [1]byte
	if _, err := nc.Read(buf[:]); err == nil {
		t.Fatal("server answered an oversized frame instead of closing")
	}
}
