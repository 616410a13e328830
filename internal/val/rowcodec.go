package val

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// ColType describes the physical type of one column: its kind and its
// declared byte width. Rows are stored fixed-width so that on-page sizes
// reflect schema design — the paper's Table 2 hinges on 16-byte string keys
// versus 4-byte integers and on wide generic business tables.
type ColType struct {
	Kind  Kind
	Width int // KStr: declared CHAR width; KInt: 4 or 8; KDate: 4; KFloat: 8
}

// Char returns a fixed-width CHAR(n) column type.
func Char(n int) ColType { return ColType{Kind: KStr, Width: n} }

// Int4 is a 4-byte integer column (original TPC-D key style).
var Int4 = ColType{Kind: KInt, Width: 4}

// Int8 is an 8-byte integer column.
var Int8 = ColType{Kind: KInt, Width: 8}

// Dec8 is an 8-byte decimal column.
var Dec8 = ColType{Kind: KFloat, Width: 8}

// Date4 is a 4-byte date column.
var Date4 = ColType{Kind: KDate, Width: 4}

// RowCodec encodes rows of a fixed column layout. One codec is built per
// table and shared by all readers.
type RowCodec struct {
	cols     []ColType
	offs     []int // each column's byte offset in the encoded row
	rowBytes int
	all      *ColSet // every column: what Decode reads
}

// NewRowCodec builds a codec for the given column layout.
func NewRowCodec(cols []ColType) *RowCodec {
	c := &RowCodec{cols: cols, offs: make([]int, len(cols))}
	c.rowBytes = (len(cols) + 7) / 8 // null bitmap
	all := make([]int, len(cols))
	for i, ct := range cols {
		c.offs[i], all[i] = c.rowBytes, i
		c.rowBytes += ct.Width
	}
	c.all = c.newColSet(all, 0)
	return c
}

// RowBytes returns the fixed encoded size of one row.
func (c *RowCodec) RowBytes() int { return c.rowBytes }

// NumCols returns the number of columns the codec encodes.
func (c *RowCodec) NumCols() int { return len(c.cols) }

// ColSet is a subset of a codec's columns prepared for decoding: the byte
// offset, width and kind of each wanted column are worked out once, so a
// decode does no work — and builds no string — for the columns left out.
// The columns are in the order their reader keeps them, the first outOnly
// read only once a row has passed its scan's filters. A scan decodes the
// others for every row it examines (DecodeScan) and the first outOnly only
// for the rows that pass (DecodeOutputOnly). A ColSet is immutable and
// shared freely between readers.
type ColSet struct {
	rowBytes int
	fields   []colField
	outOnly  int
}

// colField locates one wanted column in the encoded row.
type colField struct {
	col   int // column index: its null bit
	off   int // byte offset of the field in the encoded row
	width int
	kind  Kind
}

// DecodeHook is nil outside tests. A test sets it to count decoding work:
// every decode calls it with the set's width when it examines a row
// (Decode, DecodeScan) or 0 when it completes one (DecodeOutputOnly), and
// the number of values it decoded.
var DecodeHook func(width, decoded int)

// Len returns the number of columns in the set: the width Decode asks of
// its destination.
func (s *ColSet) Len() int { return len(s.fields) }

// OutOnly returns how many of the set's leading columns are read only after
// the filters: what DecodeOutputOnly decodes.
func (s *ColSet) OutOnly() int { return s.outOnly }

// AllCols returns the set of every column, in column order, none of them
// output-only: a scan decodes it whole.
func (c *RowCodec) AllCols() *ColSet { return c.all }

// Cols returns the set of the columns cols, in that order, the first outOnly
// of them output-only (see ColSet). Every column in column order, none
// output-only, is the codec's own AllCols.
func (c *RowCodec) Cols(cols []int, outOnly int) *ColSet {
	if outOnly == 0 && len(cols) == len(c.cols) && slices.IsSorted(cols) {
		return c.all
	}
	return c.newColSet(cols, outOnly)
}

// newColSet lays out the columns cols, in that order.
func (c *RowCodec) newColSet(cols []int, outOnly int) *ColSet {
	s := &ColSet{rowBytes: c.rowBytes, fields: make([]colField, len(cols)), outOnly: outOnly}
	for k, i := range cols {
		s.fields[k] = colField{col: i, off: c.offs[i], width: c.cols[i].Width, kind: c.cols[i].Kind}
	}
	return s
}

// Encode appends the fixed-width encoding of row to dst. Values are
// coerced to their column's kind; strings are right-padded with spaces and
// truncated at the declared width.
func (c *RowCodec) Encode(dst []byte, row []Value) ([]byte, error) {
	if len(row) != len(c.cols) {
		return dst, fmt.Errorf("val: encode: %d values for %d columns", len(row), len(c.cols))
	}
	bmOff := len(dst)
	for i := 0; i < (len(c.cols)+7)/8; i++ {
		dst = append(dst, 0)
	}
	var buf [8]byte
	for i, ct := range c.cols {
		v := row[i]
		if v.IsNull() {
			dst[bmOff+i/8] |= 1 << (i % 8)
			for j := 0; j < ct.Width; j++ {
				dst = append(dst, 0)
			}
			continue
		}
		switch ct.Kind {
		case KInt:
			if ct.Width == 4 {
				binary.BigEndian.PutUint32(buf[:4], uint32(v.AsInt()))
				dst = append(dst, buf[:4]...)
			} else {
				binary.BigEndian.PutUint64(buf[:8], uint64(v.AsInt()))
				dst = append(dst, buf[:8]...)
			}
		case KDate:
			binary.BigEndian.PutUint32(buf[:4], uint32(v.AsInt()))
			dst = append(dst, buf[:4]...)
		case KFloat:
			binary.BigEndian.PutUint64(buf[:8], math.Float64bits(v.AsFloat()))
			dst = append(dst, buf[:8]...)
		case KStr:
			s := v.AsStr()
			if len(s) > ct.Width {
				s = s[:ct.Width]
			}
			dst = append(dst, s...)
			for j := len(s); j < ct.Width; j++ {
				dst = append(dst, ' ')
			}
		default:
			return dst, fmt.Errorf("val: encode: column %d has unsupported kind %v", i, ct.Kind)
		}
	}
	return dst, nil
}

// Decode decodes one row from src (which must be exactly RowBytes long) and
// appends the values to out, returning the extended slice. String values
// are right-trimmed views of src: see ColSet.Decode.
func (c *RowCodec) Decode(src []byte, out []Value) ([]Value, error) {
	n := len(out)
	out = slices.Grow(out, len(c.cols))[:n+len(c.cols)]
	if err := c.all.Decode(src, out[n:]); err != nil {
		return out[:n], err
	}
	return out, nil
}

// Decode decodes the set's columns of one encoded row into dst, which is as
// wide as the set: its k-th column lands in dst[k]. The set of every column
// therefore decodes a full row in place.
//
// A CHAR value is decoded as a right-trimmed view of src — no bytes are
// copied — so the values in dst alias src, and src must never be written
// again while any of them (or a substring of one) is reachable. Heap pages
// meet that: an image handed to a reader is immutable (storage.BufferPool).
// A value also keeps all of src's backing array alive; whoever keeps values
// beyond the work that decoded them gives them storage of their own first
// (Slab.Own, strings.Clone).
func (s *ColSet) Decode(src []byte, dst []Value) error {
	return s.decode(src, dst, 0, len(s.fields), len(s.fields))
}

// DecodeScan is Decode of the columns a row's filters may read: all but the
// output-only ones, into their places in dst, which is as wide as the set.
func (s *ColSet) DecodeScan(src []byte, dst []Value) error {
	return s.decode(src, dst, s.outOnly, len(s.fields), len(s.fields))
}

// DecodeOutputOnly completes DecodeScan for a row that passed: it decodes the
// output-only columns into dst.
func (s *ColSet) DecodeOutputOnly(src []byte, dst []Value) error {
	return s.decode(src, dst, 0, s.outOnly, 0)
}

// decode decodes fields [lo, hi) into dst[lo:hi]; width is what it reports
// to DecodeHook.
func (s *ColSet) decode(src []byte, dst []Value, lo, hi, width int) error {
	if len(src) != s.rowBytes {
		return fmt.Errorf("val: decode: row is %d bytes, want %d", len(src), s.rowBytes)
	}
	if len(dst) != len(s.fields) {
		return fmt.Errorf("val: decode: destination has %d slots for %d columns", len(dst), len(s.fields))
	}
	if DecodeHook != nil {
		DecodeHook(width, hi-lo)
	}
	for k := lo; k < hi; k++ {
		f := &s.fields[k]
		if src[f.col/8]&(1<<(f.col%8)) != 0 {
			dst[k] = Null
			continue
		}
		field := src[f.off : f.off+f.width]
		switch f.kind {
		case KInt:
			if f.width == 4 {
				dst[k] = Int(int64(int32(binary.BigEndian.Uint32(field))))
			} else {
				dst[k] = Int(int64(binary.BigEndian.Uint64(field)))
			}
		case KDate:
			dst[k] = Date(int64(int32(binary.BigEndian.Uint32(field))))
		case KFloat:
			dst[k] = Float(math.Float64frombits(binary.BigEndian.Uint64(field)))
		case KStr:
			// Strip the blank padding eight bytes at a time first: on
			// wide CHAR columns this is the hottest loop of a scan, and a
			// byte-at-a-time loop alone runs up to twice as slow at some
			// code alignments, which a change to any other package moves.
			end := len(field)
			for end >= 8 && binary.LittleEndian.Uint64(field[end-8:end]) == 0x2020202020202020 {
				end -= 8
			}
			for end > 0 && field[end-1] == ' ' {
				end--
			}
			dst[k] = Str(view(field[:end]))
		}
	}
	return nil
}
