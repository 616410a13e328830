// Package server exposes an engine.DB over the wire protocol: each
// accepted connection is one database session (the paper's work-process
// connection), handled on its own goroutine against the shared engine —
// the concurrency the snapshot catalog, copy-on-write pages and atomic
// plan cache exist to make safe.
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"

	"r3bench/internal/cost"
	"r3bench/internal/engine"
	"r3bench/internal/sqlparse"
	"r3bench/internal/val"
	"r3bench/internal/wire"
)

// Server serves one engine.DB to any number of connections.
type Server struct {
	db *engine.DB

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	done  bool
}

// New builds a server for db.
func New(db *engine.DB) *Server {
	return &Server{db: db, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections on l until Close. Each connection runs on
// its own goroutine with its own Session (and therefore its own
// simulated-cost meter). Serve returns nil after Close.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	s.ln = l
	s.mu.Unlock()
	for {
		c, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			done := s.done
			s.mu.Unlock()
			if done {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.done {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		go s.handle(c)
	}
}

// Close stops accepting and tears down every live connection.
func (s *Server) Close() {
	s.mu.Lock()
	s.done = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.conns = make(map[net.Conn]struct{})
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
}

// conn is one connection's state: a dedicated session plus its prepared
// statements. A Stmt carries adaptive-feedback state, so it belongs to
// this connection alone — exactly the single-owner contract Session
// documents.
type conn struct {
	sess   *engine.Session
	stmts  map[uint32]*engine.Stmt
	nextID uint32
	w      *bufio.Writer
	out    []byte // reusable frame build buffer

	// The reply being streamed (conn is the engine.RowSink of its own
	// statements): whether it goes out as an array stream, the rows in
	// c.out so far and where in c.out their count belongs.
	array   bool
	nRows   int
	countAt int
}

func (s *Server) handle(nc net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		nc.Close()
	}()
	c := &conn{
		sess:  s.db.NewSessionWithMeter(cost.NewMeter(s.db.Model())),
		stmts: make(map[uint32]*engine.Stmt),
		w:     bufio.NewWriter(nc),
	}
	r := bufio.NewReader(nc)
	var frame []byte
	for {
		var err error
		frame, err = wire.ReadFrame(r, frame)
		if err != nil {
			return // EOF or broken peer: the session dies with the conn
		}
		if len(frame) == 0 {
			return
		}
		if err := c.dispatch(frame); err != nil {
			return
		}
		if err := c.w.Flush(); err != nil {
			return
		}
	}
}

// dispatch handles one request frame. Statement failures answer with a
// MsgError frame and keep the connection alive; only transport errors
// return non-nil.
func (c *conn) dispatch(frame []byte) error {
	body := frame[1:]
	switch frame[0] {
	case wire.MsgQuery:
		r := wire.NewReader(body)
		sql := r.String()
		params := r.Values()
		if err := r.Err(); err != nil {
			return err
		}
		c.begin(false)
		return c.finish(c.sess.ExecTo(c, sql, params...))
	case wire.MsgPrepare:
		r := wire.NewReader(body)
		sql := r.String()
		if err := r.Err(); err != nil {
			return err
		}
		st, err := c.sess.Prepare(sql)
		if err != nil {
			return c.sendError(err)
		}
		c.nextID++
		c.stmts[c.nextID] = st
		c.out = append(c.out[:0], wire.MsgStmtID)
		c.out = wire.AppendUint32(c.out, c.nextID)
		return wire.WriteFrame(c.w, c.out)
	case wire.MsgExecStmt:
		r := wire.NewReader(body)
		id := r.Uint32()
		params := r.Values()
		if err := r.Err(); err != nil {
			return err
		}
		st, ok := c.stmts[id]
		if !ok {
			return c.sendError(fmt.Errorf("server: unknown statement id %d", id))
		}
		c.begin(false)
		return c.finish(st.QueryTo(c, params...))
	case wire.MsgCloseStmt:
		r := wire.NewReader(body)
		id := r.Uint32()
		if err := r.Err(); err != nil {
			return err
		}
		delete(c.stmts, id)
		c.begin(false)
		return c.finish(0, c.Header(nil))
	case wire.MsgQueryArray:
		r := wire.NewReader(body)
		sql := r.String()
		params := r.Values()
		if err := r.Err(); err != nil {
			return err
		}
		c.begin(true)
		return c.finish(c.sess.ExecTo(c, sql, params...))
	default:
		return c.sendError(fmt.Errorf("server: unknown message type 0x%02x", frame[0]))
	}
}

// sendError reports a failure, carrying the parse position when the
// error is a sqlparse.Error so the client can point a caret at it.
func (c *conn) sendError(err error) error {
	line, col := 0, 0
	var pe *sqlparse.Error
	if errors.As(err, &pe) {
		line, col = pe.Line, pe.Col
	}
	c.out = append(c.out[:0], wire.MsgError)
	c.out = wire.AppendError(c.out, line, col, err.Error())
	return wire.WriteFrame(c.w, c.out)
}

// begin readies c to be the row sink of the next statement. A
// whole-result reply is one MsgResult frame, built in c.out as the rows
// arrive and sent when the statement has ended, so a failure at any point
// discards it and answers with the error alone. An array reply streams:
// the header and every full packet of cost.ArrayFetchRows rows are written
// as they are reached — the wire realization of the engine's array
// interface (DESIGN.md §10) — and a failure after the header ends the
// stream with a MsgError frame in place of MsgResultEnd.
func (c *conn) begin(array bool) {
	c.array, c.nRows = array, 0
}

// finish completes the reply of a statement that ran with c as its sink. A
// failed write to the peer came back through the engine as the statement's
// error; c.w keeps failing from then on, so answering it ends the
// connection.
func (c *conn) finish(affected int64, err error) error {
	if err != nil {
		return c.sendError(err)
	}
	if !c.array {
		binary.BigEndian.PutUint64(c.out[c.countAt-8:], uint64(affected))
		binary.BigEndian.PutUint32(c.out[c.countAt:], uint32(c.nRows))
		return wire.WriteFrame(c.w, c.out)
	}
	if err := c.flushBatch(); err != nil {
		return err
	}
	c.out = append(c.out[:0], wire.MsgResultEnd)
	c.out = wire.AppendUint64(c.out, uint64(affected))
	return wire.WriteFrame(c.w, c.out)
}

// Header begins the reply: the column names, then — in a whole-result
// frame — room for the rows-affected and row counts, which are known only
// at the end.
func (c *conn) Header(cols []string) error {
	kind := byte(wire.MsgResult)
	if c.array {
		kind = wire.MsgRowHeader
	}
	c.out = append(c.out[:0], kind)
	c.out = wire.AppendUint32(c.out, uint32(len(cols)))
	for _, col := range cols {
		c.out = wire.AppendString(c.out, col)
	}
	if c.array {
		if err := wire.WriteFrame(c.w, c.out); err != nil {
			return err
		}
		c.beginBatch()
		return nil
	}
	c.out = wire.AppendUint64(c.out, 0)
	c.countAt = len(c.out)
	c.out = wire.AppendUint32(c.out, 0)
	return nil
}

// Row encodes one result row into the frame being built.
func (c *conn) Row(row []val.Value) error {
	c.out = wire.AppendValues(c.out, row)
	c.nRows++
	if c.array && c.nRows == cost.ArrayFetchRows {
		return c.flushBatch()
	}
	return nil
}

// beginBatch starts an empty MsgRowBatch frame in c.out.
func (c *conn) beginBatch() {
	c.out = append(c.out[:0], wire.MsgRowBatch)
	c.countAt = len(c.out)
	c.out = wire.AppendUint32(c.out, 0)
	c.nRows = 0
}

// flushBatch sends the packet built so far, if it holds any row.
func (c *conn) flushBatch() error {
	if c.nRows == 0 {
		return nil
	}
	binary.BigEndian.PutUint32(c.out[c.countAt:], uint32(c.nRows))
	if err := wire.WriteFrame(c.w, c.out); err != nil {
		return err
	}
	c.beginBatch()
	return nil
}
