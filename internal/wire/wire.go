// Package wire is the client/server protocol of cmd/sqlserver: binary,
// length-prefixed frames over any byte stream, carrying SQL text,
// parameter values and result rows between an application server and
// the database engine. The paper's configuration runs SAP R/3 work
// processes against the RDBMS over exactly such a private wire; this
// package keeps the encoding small and allocation-light so the
// simulated Interface/RowShip charges — not Go marshalling — dominate
// a benchmarked round trip.
//
// Frame layout:
//
//	uint32 big-endian payload length (the length field excluded)
//	payload[0]: message type
//	payload[1:]: message-specific body
//
// Values encode as one kind byte followed by the kind's payload: KInt
// and KDate carry 8 big-endian bytes, KFloat its IEEE-754 bits, KStr a
// uint32 length plus raw bytes, KNull nothing.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"r3bench/internal/val"
)

// Message types. Client-to-server types have the high bit clear,
// server-to-client types have it set.
const (
	// MsgQuery executes one statement (any kind) and returns the whole
	// result in a single Result frame: sql string, params.
	MsgQuery = 0x01
	// MsgPrepare readies a statement for repeated execution: sql string.
	// The server answers with StmtID.
	MsgPrepare = 0x02
	// MsgExecStmt executes a prepared statement: uint32 stmt id, params.
	MsgExecStmt = 0x03
	// MsgQueryArray executes a statement with the array interface: the
	// result streams back as RowHeader, RowBatch..., ResultEnd frames of
	// up to cost.ArrayFetchRows rows each.
	MsgQueryArray = 0x04
	// MsgCloseStmt discards a prepared statement: uint32 stmt id. The
	// server answers with an empty Result.
	MsgCloseStmt = 0x05

	// MsgResult is a complete query result: uint32 nCols, col names,
	// int64 rowsAffected, uint32 nRows, rows.
	MsgResult = 0x81
	// MsgStmtID answers MsgPrepare: uint32 stmt id.
	MsgStmtID = 0x82
	// MsgRowHeader opens an array-fetch stream: uint32 nCols, col names.
	MsgRowHeader = 0x83
	// MsgRowBatch carries one array-fetch packet: uint32 nRows, rows.
	MsgRowBatch = 0x84
	// MsgResultEnd closes an array-fetch stream: int64 rowsAffected.
	MsgResultEnd = 0x85
	// MsgError reports a failure: uint32 line, uint32 col (both 0 when
	// the error has no source position), message string.
	MsgError = 0x86
)

// MaxFrame bounds a single frame; a peer announcing more is treated as
// corrupt rather than trusted with the allocation.
const MaxFrame = 64 << 20

// WriteFrame sends one length-prefixed frame. A stream that takes single
// bytes (io.ByteWriter, as bufio.Writer does) gets the length a byte at a
// time, so that no header array escapes to the heap on every frame.
func WriteFrame(w io.Writer, payload []byte) error {
	n := uint32(len(payload))
	if bw, ok := w.(io.ByteWriter); ok {
		for shift := 24; shift >= 0; shift -= 8 {
			if err := bw.WriteByte(byte(n >> shift)); err != nil {
				return err
			}
		}
	} else {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], n)
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame receives one frame, reusing buf when it is big enough. Like
// WriteFrame it reads the length a byte at a time from a stream that gives
// single bytes (io.ByteReader, as bufio.Reader does); either way a stream
// that ends before the header does fails with io.EOF, one that ends inside
// it with io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var n uint32
	if br, ok := r.(io.ByteReader); ok {
		for i := 0; i < 4; i++ {
			b, err := br.ReadByte()
			if err != nil {
				if i > 0 && err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return nil, err
			}
			n = n<<8 | uint32(b)
		}
	} else {
		var hdr [4]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, err
		}
		n = binary.BigEndian.Uint32(hdr[:])
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// AppendUint32 encodes a big-endian uint32.
func AppendUint32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// AppendUint64 encodes a big-endian uint64.
func AppendUint64(b []byte, v uint64) []byte {
	return append(b,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// AppendString encodes a uint32 length plus the raw bytes.
func AppendString(b []byte, s string) []byte {
	b = AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// AppendValue encodes one value.
func AppendValue(b []byte, v val.Value) []byte {
	b = append(b, byte(v.K))
	switch v.K {
	case val.KNull:
	case val.KInt, val.KDate:
		b = AppendUint64(b, uint64(v.I))
	case val.KFloat:
		b = AppendUint64(b, math.Float64bits(v.F))
	case val.KStr:
		b = AppendString(b, v.S)
	}
	return b
}

// AppendValues encodes a uint32 count plus each value.
func AppendValues(b []byte, vs []val.Value) []byte {
	b = AppendUint32(b, uint32(len(vs)))
	for _, v := range vs {
		b = AppendValue(b, v)
	}
	return b
}

// Reader decodes one frame's body sequentially. The strings it returns
// share one copy of the body, made when the first one is decoded: they stay
// valid when the frame buffer is reused, and keeping any of them keeps that
// copy.
type Reader struct {
	buf []byte
	str string // string(buf), once a string has been asked for
	off int
	err error
}

// NewReader wraps a frame body (after the message-type byte).
func NewReader(body []byte) *Reader { return &Reader{buf: body} }

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated frame (offset %d of %d)", r.off, len(r.buf))
	}
}

// Uint32 decodes a big-endian uint32.
func (r *Reader) Uint32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// Uint64 decodes a big-endian uint64.
func (r *Reader) Uint64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// String decodes a length-prefixed string.
func (r *Reader) String() string {
	n := int(r.Uint32())
	if r.err != nil || r.off+n > len(r.buf) {
		r.fail()
		return ""
	}
	if n == 0 {
		return ""
	}
	if r.str == "" {
		r.str = string(r.buf)
	}
	s := r.str[r.off : r.off+n]
	r.off += n
	return s
}

// Strings decodes a count-prefixed string list — the column names of a
// result — and returns nil for an empty one. A string takes at least its
// four-byte length, so a count the remaining bytes cannot hold is corrupt.
func (r *Reader) Strings() []string {
	n := int(r.Uint32())
	if r.err != nil || n > (len(r.buf)-r.off)/4 {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.String()
	}
	return ss
}

// Value decodes one value.
func (r *Reader) Value() val.Value {
	if r.err != nil || r.off >= len(r.buf) {
		r.fail()
		return val.Null
	}
	k := val.Kind(r.buf[r.off])
	r.off++
	switch k {
	case val.KNull:
		return val.Null
	case val.KInt:
		return val.Int(int64(r.Uint64()))
	case val.KDate:
		return val.Date(int64(r.Uint64()))
	case val.KFloat:
		return val.Float(math.Float64frombits(r.Uint64()))
	case val.KStr:
		return val.Str(r.String())
	default:
		if r.err == nil {
			r.err = fmt.Errorf("wire: unknown value kind %d", k)
		}
		return val.Null
	}
}

// Values decodes a count-prefixed value list.
func (r *Reader) Values() []val.Value {
	n := int(r.Uint32())
	if r.err != nil || n > len(r.buf)-r.off {
		// Each value takes at least one byte; a count past the remaining
		// bytes is corrupt, not a huge allocation request.
		r.fail()
		return nil
	}
	vs := make([]val.Value, 0, n)
	for i := 0; i < n; i++ {
		vs = append(vs, r.Value())
	}
	return vs
}

// Rows decodes n count-prefixed value lists of width values each — the rows
// of a result frame — into one slab. A count other than width is corrupt,
// and so is an n × width the remaining bytes cannot hold: every row takes
// at least its four-byte count and every value at least one byte, so a
// lying frame is refused before anything is allocated for it.
func (r *Reader) Rows(n, width int) [][]val.Value {
	rest := len(r.buf) - r.off
	if r.err != nil || n < 0 || width < 0 || n > rest/4 || (width > 0 && n > rest/width) {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	rows := make([][]val.Value, n)
	slab := make([]val.Value, n*width)
	for i := range rows {
		if k := int(r.Uint32()); k != width && r.err == nil {
			r.err = fmt.Errorf("wire: row of %d values in a result of %d columns", k, width)
		}
		row := slab[i*width : (i+1)*width : (i+1)*width]
		for j := range row {
			row[j] = r.Value()
		}
		if r.err != nil {
			return nil
		}
		rows[i] = row
	}
	return rows
}

// Error is a server-reported failure with the parse position when the
// statement failed to parse (Line 0 otherwise, matching
// sqlparse.Error's 1-based lines).
type Error struct {
	Msg  string
	Line int // 1-based; 0 when not a parse error
	Col  int // 0-based byte offset within Line
}

func (e *Error) Error() string { return e.Msg }

// AppendError encodes a MsgError frame body (after the type byte).
func AppendError(b []byte, line, col int, msg string) []byte {
	b = AppendUint32(b, uint32(line))
	b = AppendUint32(b, uint32(col))
	return AppendString(b, msg)
}

// DecodeError decodes a MsgError frame body.
func DecodeError(body []byte) *Error {
	r := NewReader(body)
	line := int(r.Uint32())
	col := int(r.Uint32())
	msg := r.String()
	if r.Err() != nil {
		return &Error{Msg: "wire: malformed error frame"}
	}
	return &Error{Msg: msg, Line: line, Col: col}
}
