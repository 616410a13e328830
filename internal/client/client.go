// Package client is the Go driver for cmd/sqlserver's wire protocol:
// Dial a server, run queries and prepared statements, and stream large
// results through the array interface. One Conn is one database session;
// its methods serialize internally, so a Conn may be shared by multiple
// goroutines (requests interleave whole, like a work process multiplexing
// dialog steps over one RDBMS connection).
//
// The rows of one reply frame — a whole Result, or one packet of an array
// stream — are decoded into one slab of values, and their strings (column
// names, CHAR values) share one copy of the frame's bytes. Rows may be
// kept for as long as the caller likes, nothing is reused across frames;
// but keeping one row keeps its frame's slab, and keeping one CHAR value
// keeps that frame's bytes.
package client

import (
	"bufio"
	"fmt"
	"net"
	"sync"

	"r3bench/internal/engine"
	"r3bench/internal/val"
	"r3bench/internal/wire"
)

// Conn is one client connection (one server-side session).
type Conn struct {
	mu   sync.Mutex
	nc   net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	out  []byte // reusable request build buffer
	in   []byte // reusable response frame buffer
	dead error
}

// Dial connects to a sqlserver at addr ("host:port").
func Dial(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Conn{nc: nc, r: bufio.NewReader(nc), w: bufio.NewWriter(nc)}, nil
}

// Close tears the connection down; the server discards the session and
// its prepared statements.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead == nil {
		c.dead = fmt.Errorf("client: connection closed")
	}
	return c.nc.Close()
}

// roundTrip sends the built request frame and reads one response frame.
// Caller holds c.mu and has filled c.out.
func (c *Conn) roundTrip() ([]byte, error) {
	if c.dead != nil {
		return nil, c.dead
	}
	if err := wire.WriteFrame(c.w, c.out); err != nil {
		c.dead = err
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		c.dead = err
		return nil, err
	}
	return c.readFrame()
}

func (c *Conn) readFrame() ([]byte, error) {
	frame, err := wire.ReadFrame(c.r, c.in)
	if err != nil {
		c.dead = err
		return nil, err
	}
	c.in = frame
	if len(frame) == 0 {
		c.dead = fmt.Errorf("client: empty frame from server")
		return nil, c.dead
	}
	return frame, nil
}

// decodeReply turns a response frame into a result, surfacing MsgError
// frames as *wire.Error (with Line/Col for parse failures).
func decodeReply(frame []byte, want byte) (*engine.Result, error) {
	switch frame[0] {
	case wire.MsgError:
		return nil, wire.DecodeError(frame[1:])
	case want:
		return decodeResult(frame[1:])
	default:
		return nil, fmt.Errorf("client: unexpected message type 0x%02x", frame[0])
	}
}

// decodeResult parses a MsgResult frame body: column names, rows
// affected, row count, rows.
func decodeResult(body []byte) (*engine.Result, error) {
	r := wire.NewReader(body)
	res := &engine.Result{Cols: r.Strings()}
	res.RowsAffected = int64(r.Uint64())
	res.Rows = r.Rows(int(r.Uint32()), len(res.Cols))
	if err := r.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// Query executes one statement and returns its whole result.
func (c *Conn) Query(sql string, params ...val.Value) (*engine.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.out = append(c.out[:0], wire.MsgQuery)
	c.out = wire.AppendString(c.out, sql)
	c.out = wire.AppendValues(c.out, params)
	frame, err := c.roundTrip()
	if err != nil {
		return nil, err
	}
	return decodeReply(frame, wire.MsgResult)
}

// QueryArray executes a statement through the array interface: fn is
// called once per row packet (up to cost.ArrayFetchRows rows each) as
// batches arrive, and the column names plus total rows-affected come
// back at the end. Every batch is decoded into storage of its own: fn may
// keep the rows. A statement that fails part-way returns the server's
// *wire.Error after the batches that preceded it; the connection stays
// usable.
func (c *Conn) QueryArray(sql string, params []val.Value, fn func(batch [][]val.Value) error) ([]string, int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.out = append(c.out[:0], wire.MsgQueryArray)
	c.out = wire.AppendString(c.out, sql)
	c.out = wire.AppendValues(c.out, params)
	frame, err := c.roundTrip()
	if err != nil {
		return nil, 0, err
	}
	if frame[0] == wire.MsgError {
		return nil, 0, wire.DecodeError(frame[1:])
	}
	if frame[0] != wire.MsgRowHeader {
		return nil, 0, fmt.Errorf("client: unexpected message type 0x%02x", frame[0])
	}
	r := wire.NewReader(frame[1:])
	cols := r.Strings()
	if err := r.Err(); err != nil {
		c.dead = err
		return nil, 0, err
	}
	for {
		frame, err := c.readFrame()
		if err != nil {
			return nil, 0, err
		}
		switch frame[0] {
		case wire.MsgRowBatch:
			r := wire.NewReader(frame[1:])
			batch := r.Rows(int(r.Uint32()), len(cols))
			if err := r.Err(); err != nil {
				c.dead = err
				return nil, 0, err
			}
			if err := fn(batch); err != nil {
				// The stream must drain for the connection to stay usable;
				// swallowing it here would desynchronize framing.
				c.dead = fmt.Errorf("client: array fetch aborted: %w", err)
				c.nc.Close()
				return nil, 0, err
			}
		case wire.MsgResultEnd:
			r := wire.NewReader(frame[1:])
			affected := int64(r.Uint64())
			return cols, affected, r.Err()
		case wire.MsgError:
			// The statement failed after its header was sent: the error ends
			// the stream and the connection carries on.
			return nil, 0, wire.DecodeError(frame[1:])
		default:
			c.dead = fmt.Errorf("client: unexpected message type 0x%02x mid-stream", frame[0])
			return nil, 0, c.dead
		}
	}
}

// Stmt is a server-side prepared statement.
type Stmt struct {
	c  *Conn
	id uint32
}

// Prepare readies a statement for repeated execution on the server.
func (c *Conn) Prepare(sql string) (*Stmt, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.out = append(c.out[:0], wire.MsgPrepare)
	c.out = wire.AppendString(c.out, sql)
	frame, err := c.roundTrip()
	if err != nil {
		return nil, err
	}
	if frame[0] == wire.MsgError {
		return nil, wire.DecodeError(frame[1:])
	}
	if frame[0] != wire.MsgStmtID {
		return nil, fmt.Errorf("client: unexpected message type 0x%02x", frame[0])
	}
	r := wire.NewReader(frame[1:])
	id := r.Uint32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return &Stmt{c: c, id: id}, nil
}

// Query executes the prepared statement.
func (st *Stmt) Query(params ...val.Value) (*engine.Result, error) {
	c := st.c
	c.mu.Lock()
	defer c.mu.Unlock()
	c.out = append(c.out[:0], wire.MsgExecStmt)
	c.out = wire.AppendUint32(c.out, st.id)
	c.out = wire.AppendValues(c.out, params)
	frame, err := c.roundTrip()
	if err != nil {
		return nil, err
	}
	return decodeReply(frame, wire.MsgResult)
}

// Close discards the statement on the server.
func (st *Stmt) Close() error {
	c := st.c
	c.mu.Lock()
	defer c.mu.Unlock()
	c.out = append(c.out[:0], wire.MsgCloseStmt)
	c.out = wire.AppendUint32(c.out, st.id)
	frame, err := c.roundTrip()
	if err != nil {
		return err
	}
	_, err = decodeReply(frame, wire.MsgResult)
	return err
}
