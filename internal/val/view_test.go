package val

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"r3bench/internal/race"
)

// decodeCopy is the copying decode that ColSet.Decode replaced, kept as the
// reference: the same values, every string with bytes of its own.
func decodeCopy(cols []ColType, want []bool, src []byte, dst []Value) {
	off := (len(cols) + 7) / 8
	for i, ct := range cols {
		field := src[off : off+ct.Width]
		off += ct.Width
		if want != nil && !want[i] {
			continue
		}
		if src[i/8]&(1<<(i%8)) != 0 {
			dst[i] = Null
			continue
		}
		switch ct.Kind {
		case KInt:
			if ct.Width == 4 {
				dst[i] = Int(int64(int32(binary.BigEndian.Uint32(field))))
			} else {
				dst[i] = Int(int64(binary.BigEndian.Uint64(field)))
			}
		case KDate:
			dst[i] = Date(int64(int32(binary.BigEndian.Uint32(field))))
		case KFloat:
			dst[i] = Float(math.Float64frombits(binary.BigEndian.Uint64(field)))
		case KStr:
			dst[i] = Str(strings.TrimRight(string(field), " "))
		}
	}
}

// TestColSetViewsMatchCopy: over random layouts, rows and column subsets —
// NULLs, empty, all-space, full-width and interior-space CHARs among them —
// the view decode yields exactly the values of the copying reference, every
// non-empty string it hands out lies inside src at its own field's offset,
// an empty one does not point into src, and the k-th column of the set, in
// the set's order, lands in slot k of a destination as wide as the set —
// whether decoded at once or as a scan does, its filter columns first.
func TestColSetViewsMatchCopy(t *testing.T) {
	rnd := rand.New(rand.NewSource(17))
	kinds := []ColType{Int4, Int8, Dec8, Date4}
	for trial := 0; trial < 2000; trial++ {
		cols := make([]ColType, 1+rnd.Intn(20))
		for i := range cols {
			if rnd.Intn(2) == 0 {
				cols[i] = Char(1 + rnd.Intn(40))
			} else {
				cols[i] = kinds[rnd.Intn(len(kinds))]
			}
		}
		codec := NewRowCodec(cols)
		row := make([]Value, len(cols))
		for i, ct := range cols {
			switch {
			case rnd.Intn(6) == 0:
				row[i] = Null
			case ct.Kind == KStr:
				w := ct.Width
				switch rnd.Intn(6) {
				case 0:
					row[i] = Str("")
				case 1:
					row[i] = Str(strings.Repeat(" ", 1+rnd.Intn(w)))
				case 2:
					row[i] = Str(strings.Repeat("w", w)) // full width: no padding to trim
				case 3:
					row[i] = Str(strings.Repeat("w", w+3)) // truncated at the width
				case 4:
					row[i] = Str(" a b" + strings.Repeat(" ", rnd.Intn(3)))
				default:
					row[i] = Str(fmt.Sprintf("v%d", rnd.Intn(1000)))
				}
			case ct.Kind == KFloat:
				row[i] = Float(rnd.NormFloat64() * 1e6)
			case ct.Kind == KDate:
				row[i] = Date(int64(rnd.Intn(40000) - 10000))
			default:
				row[i] = Int(int64(int32(rnd.Uint32())))
			}
		}
		// The row sits somewhere inside a larger buffer, as it does in a page.
		lead := rnd.Intn(64)
		buf := make([]byte, lead, lead+codec.RowBytes()+rnd.Intn(64))
		buf, err := codec.Encode(buf, row)
		if err != nil {
			t.Fatal(err)
		}
		src := buf[lead:]

		var want []bool
		var order []int // the set's columns in the set's order
		set := codec.AllCols()
		if rnd.Intn(3) > 0 {
			want = make([]bool, len(cols))
			for _, i := range rnd.Perm(len(cols)) {
				if want[i] = rnd.Intn(2) == 0; want[i] {
					order = append(order, i)
				}
			}
			set = codec.Cols(order, rnd.Intn(len(order)+1))
		} else {
			for i := range cols {
				order = append(order, i)
			}
		}
		untouched := Str("untouched")
		got, ref := make([]Value, len(cols)), make([]Value, len(cols))
		for i := range got {
			got[i], ref[i] = untouched, untouched
		}
		dense := make([]Value, set.Len())
		for k := range dense {
			dense[k] = untouched
		}
		if trial%2 == 0 {
			if err := set.Decode(src, dense); err != nil {
				t.Fatal(err)
			}
		} else {
			// A scan: the filter columns first, the output-only ones after.
			if err := set.DecodeScan(src, dense); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < set.OutOnly(); k++ {
				if dense[k] != untouched {
					t.Fatalf("trial %d: DecodeScan wrote output-only slot %d", trial, k)
				}
			}
			if err := set.DecodeOutputOnly(src, dense); err != nil {
				t.Fatal(err)
			}
		}
		for k, i := range order {
			got[i] = dense[k]
		}
		decodeCopy(cols, want, src, ref)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("trial %d: view decode %v, copying decode %v (layout %v, set %v)", trial, got, ref, cols, want)
		}

		base := uintptr(unsafe.Pointer(unsafe.SliceData(src)))
		off := (len(cols) + 7) / 8
		for i, ct := range cols {
			fieldAt := base + uintptr(off)
			off += ct.Width
			if got[i].K != KStr || (want != nil && !want[i]) {
				continue
			}
			p := uintptr(unsafe.Pointer(unsafe.StringData(got[i].S)))
			switch {
			case got[i].S == "":
				if p >= base && p <= base+uintptr(len(src)) {
					t.Fatalf("trial %d: column %d decoded an empty string that points into src", trial, i)
				}
			case p != fieldAt:
				t.Fatalf("trial %d: column %d %q is at %#x, its field at %#x: not a view of src", trial, i, got[i].S, p, fieldAt)
			}
		}
	}
}

// TestSlabOwns: what a Slab hands out has the bytes of what went in and
// shares no storage with it, a row's strings lie next to each other, and
// chunks stay bounded so that one kept row pins little else.
func TestSlabOwns(t *testing.T) {
	var s Slab
	src := []byte("alpha   beta    gamma   ")
	row := []Value{Str(view(src[0:5])), Int(7), Null, Str(view(src[8:12])), Str(""), Str(view(src[16:21]))}
	s.Own(row)
	copy(src, "XXXXXXXXXXXXXXXXXXXXXXXX") // the test owns src: nothing else looks at it
	if row[0].S != "alpha" || row[3].S != "beta" || row[5].S != "gamma" || row[4].S != "" || row[1].I != 7 || !row[2].IsNull() {
		t.Fatalf("owned row reads %v", row)
	}
	if a, b := unsafe.StringData(row[0].S), unsafe.StringData(row[3].S); uintptr(unsafe.Pointer(b))-uintptr(unsafe.Pointer(a)) != 5 {
		t.Error("a row's strings are not packed into one chunk")
	}
	if got := s.Copy("delta"); got != "delta" {
		t.Errorf("Copy = %q", got)
	}

	// Allocation: a thousand 3-string rows cost a handful of chunks, and no
	// chunk is larger than slabChunkMax unless one row is.
	rows := make([][]Value, 1000)
	for i := range rows {
		rows[i] = []Value{Str(fmt.Sprintf("k%015d", i)), Str("some text of a row"), Str("x")}
	}
	var many Slab
	allocs := testing.AllocsPerRun(1, func() {
		many = Slab{}
		for _, r := range rows {
			many.Own(r)
		}
	})
	if perRow := allocs / float64(len(rows)); !race.Enabled && perRow > 0.05 {
		t.Errorf("owning a row allocates %.3f times, want a chunk every hundred rows or so", perRow)
	}
	if c := many.chunk.Cap(); c > slabChunkMax {
		t.Errorf("chunk capacity %d past the bound %d", c, slabChunkMax)
	}
	huge := []Value{Str(strings.Repeat("h", 3*slabChunkMax))}
	many.Own(huge)
	if len(huge[0].S) != 3*slabChunkMax {
		t.Error("a row larger than a chunk was cut")
	}
}
