package val

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func tpcdLineitemLayout() []ColType {
	return []ColType{Int4, Int4, Int4, Int4, Dec8, Dec8, Dec8, Dec8,
		Char(1), Char(1), Date4, Date4, Date4, Char(25), Char(10), Char(44)}
}

func TestRowCodecRoundTrip(t *testing.T) {
	c := NewRowCodec([]ColType{Int4, Char(16), Dec8, Date4, Int8})
	row := []Value{Int(7), Str("ORDER0000000042"), Float(1234.56), DateFromYMD(1995, 6, 1), Int(1 << 40)}
	enc, err := c.Encode(nil, row)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != c.RowBytes() {
		t.Fatalf("encoded %d bytes, RowBytes says %d", len(enc), c.RowBytes())
	}
	dec, err := c.Decode(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(row, dec) {
		t.Fatalf("round trip: got %v want %v", dec, row)
	}
}

func TestRowCodecNulls(t *testing.T) {
	c := NewRowCodec([]ColType{Int4, Char(8), Dec8})
	row := []Value{Null, Null, Null}
	enc, err := c.Encode(nil, row)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.Decode(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range dec {
		if !v.IsNull() {
			t.Errorf("column %d: got %v, want NULL", i, v)
		}
	}
}

func TestRowCodecTruncationAndPadding(t *testing.T) {
	c := NewRowCodec([]ColType{Char(4)})
	enc, err := c.Encode(nil, []Value{Str("abcdefgh")})
	if err != nil {
		t.Fatal(err)
	}
	dec, _ := c.Decode(enc, nil)
	if dec[0].AsStr() != "abcd" {
		t.Errorf("truncation: got %q", dec[0].AsStr())
	}
	enc, _ = c.Encode(nil, []Value{Str("x")})
	dec, _ = c.Decode(enc, nil)
	if dec[0].AsStr() != "x" {
		t.Errorf("padding must be trimmed on decode: got %q", dec[0].AsStr())
	}
	// Padding longer than a word, beside interior blanks.
	c = NewRowCodec([]ColType{Char(24)})
	for _, want := range []string{"", "a", "ab      cd", "abcdefgh         i", "abcdefghijklmnop", strings.Repeat("z", 24)} {
		enc, _ = c.Encode(nil, []Value{Str(want)})
		if dec, _ = c.Decode(enc, nil); dec[0].AsStr() != want {
			t.Errorf("Char(24) %q decoded as %q", want, dec[0].AsStr())
		}
	}
}

func TestRowCodecErrors(t *testing.T) {
	c := NewRowCodec([]ColType{Int4, Int4})
	if _, err := c.Encode(nil, []Value{Int(1)}); err == nil {
		t.Error("arity mismatch must error")
	}
	if _, err := c.Decode(make([]byte, 3), nil); err == nil {
		t.Error("short buffer must error")
	}
}

func TestRowCodecWidthAccounting(t *testing.T) {
	// The TPC-D lineitem row: 1 null byte * 2 + 4*4 + 4*8 + 2 + 3*4 + 79.
	c := NewRowCodec(tpcdLineitemLayout())
	want := 2 + 16 + 32 + 2 + 12 + 25 + 10 + 44
	if c.RowBytes() != want {
		t.Errorf("lineitem RowBytes = %d, want %d", c.RowBytes(), want)
	}
}

// randomRow draws one row of the layout: one value in eight NULL, strings
// of every length up to the declared width.
func randomRow(r *rand.Rand, layout []ColType) []Value {
	row := make([]Value, len(layout))
	for i, ct := range layout {
		if r.Intn(8) == 0 {
			row[i] = Null
			continue
		}
		switch ct.Kind {
		case KInt:
			if ct.Width == 4 {
				row[i] = Int(int64(int32(r.Uint32())))
			} else {
				row[i] = Int(int64(r.Uint64()))
			}
		case KFloat:
			row[i] = Float(float64(r.Intn(1e6)) / 100)
		case KDate:
			row[i] = Date(int64(r.Intn(30000)))
		case KStr:
			b := make([]byte, r.Intn(ct.Width+1))
			for j := range b {
				b[j] = byte('A' + r.Intn(26))
			}
			row[i] = Str(string(b))
		}
	}
	return row
}

func TestRowCodecRandomRoundTrips(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	layout := []ColType{Int4, Int8, Dec8, Date4, Char(10), Char(30)}
	c := NewRowCodec(layout)
	for trial := 0; trial < 2000; trial++ {
		row := randomRow(r, layout)
		enc, err := c.Encode(nil, row)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := c.Decode(enc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(row, dec) {
			t.Fatalf("trial %d: got %v want %v", trial, dec, row)
		}
	}
}

// TestColSetDecodeProperty: over random layouts and random column sets, a
// projected decode fills a destination as wide as the set with exactly what
// Decode returns for the wanted columns, in column order.
func TestColSetDecodeProperty(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	types := []ColType{Int4, Int8, Dec8, Date4, Char(1), Char(16), Char(44)}
	for trial := 0; trial < 500; trial++ {
		layout := make([]ColType, 1+r.Intn(20)) // up to three null-bitmap bytes
		for i := range layout {
			layout[i] = types[r.Intn(len(types))]
		}
		c := NewRowCodec(layout)
		want := make([]bool, len(layout))
		for i := range want {
			want[i] = r.Intn(3) == 0
		}
		if trial%50 == 0 { // the all-columns set is Decode's own
			for i := range want {
				want[i] = true
			}
		}
		var order []int
		for i, w := range want {
			if w {
				order = append(order, i)
			}
		}
		cols := c.Cols(order, 0)
		if (len(order) == len(layout)) != (cols == c.AllCols()) {
			t.Fatalf("trial %d: every column in column order, none output-only, is AllCols: %v", trial, want)
		}
		for n := 0; n < 8; n++ {
			enc, err := c.Encode(nil, randomRow(r, layout))
			if err != nil {
				t.Fatal(err)
			}
			full, err := c.Decode(enc, nil)
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]Value, cols.Len())
			if err := cols.Decode(enc, dst); err != nil {
				t.Fatal(err)
			}
			k := 0
			for i := range full {
				if !want[i] {
					continue
				}
				if dst[k] != full[i] {
					t.Fatalf("trial %d layout %v want %v: slot %d = %v, expected column %d = %v", trial, layout, want, k, dst[k], i, full[i])
				}
				k++
			}
			if k != len(dst) {
				t.Fatalf("trial %d layout %v want %v: the set is %d wide for %d wanted columns", trial, layout, want, len(dst), k)
			}
		}
	}
}

func TestColSetDecodeErrors(t *testing.T) {
	c := NewRowCodec([]ColType{Int4, Int4})
	cols := c.Cols([]int{0}, 0)
	if err := cols.Decode(make([]byte, 3), make([]Value, 2)); err == nil {
		t.Error("short row must error")
	}
	if err := cols.Decode(make([]byte, c.RowBytes()), make([]Value, 2)); err == nil {
		t.Error("a destination wider than the set must error")
	}
}
