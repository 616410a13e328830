package engine

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"unsafe"

	"r3bench/internal/race"
	"r3bench/internal/val"
)

// identical is == for values, with a DECIMAL compared by its bits: NaN
// equals itself and −0.0 is not +0.0.
func identical(a, b val.Value) bool {
	return a.K == b.K && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S
}

// checkPacked holds every row of s to the model: the values it was given,
// and the link each row was last given (-1 unless set).
func checkPacked(t *testing.T, s *packedRows, model [][]val.Value, links []int32) {
	t.Helper()
	got := make([]val.Value, s.width)
	for i, want := range model {
		if next := s.load(int32(i), got); next != links[i] {
			t.Fatalf("row %d links to %d, want %d", i, next, links[i])
		}
		for j := range want {
			if !identical(got[j], want[j]) {
				t.Fatalf("row %d value %d comes back %#v, want %#v", i, j, got[j], want[j])
			}
		}
	}
}

// TestPackedRowsRoundTrip: every value a build row holds comes back as it
// went in — the extremes of INT, a DATE, DECIMAL's −0.0, +Inf and a NaN
// payload, NULL, an empty CHAR and a CHAR that is a view of a byte slice,
// which stays that view — in one column that mixes all five kinds and in a
// row of no values, through the first chunk's doublings and past a chunk
// boundary, with the links set after the rows.
func TestPackedRowsRoundTrip(t *testing.T) {
	image := []byte("page image bytes")
	view := unsafe.String(&image[5], 5) // "image"
	specials := []val.Value{
		val.Null, val.Int(math.MinInt64), val.Int(math.MaxInt64), val.Date(10000),
		val.Float(math.Copysign(0, -1)), val.Float(math.Inf(1)),
		val.Float(math.Float64frombits(0x7ff8_0000_dead_beef)),
		val.Str(""), val.Str(view), val.Int(0), val.Float(0),
	}
	mixed := []val.Value{val.Null, val.Int(-7), val.Float(2.5), val.Str("x"), val.Date(-1)}
	const rows = 2*slabChunkRows + 37
	for _, width := range []int{5, 1, 0} {
		s := newPackedRows(width)
		var model [][]val.Value
		var links []int32
		for i := 0; i < rows; i++ {
			row := make([]val.Value, width)
			for j := range row {
				row[j] = specials[(i+3*j)%len(specials)]
			}
			if width > 0 {
				row[0] = mixed[i%len(mixed)]
			}
			if got := s.add(row); got != int32(i) {
				t.Fatalf("width %d: row %d added as %d", width, i, got)
			}
			model, links = append(model, row), append(links, -1)
			checkPacked(t, &s, model, links)
		}
		for i := range links {
			links[i] = int32((i*131 + 7) % rows)
			s.setLink(int32(i), links[i])
		}
		links[rows-1] = -1
		s.setLink(rows-1, -1)
		checkPacked(t, &s, model, links)
		if width == 0 {
			continue
		}
		got := make([]val.Value, width)
		for i := range model {
			s.load(int32(i), got)
			for j, v := range got {
				if v.K == val.KStr && v.S == view && unsafe.StringData(v.S) != &image[5] {
					t.Fatalf("width %d: row %d value %d is a copy, not a view of the image", width, i, j)
				}
			}
		}
	}
}

// FuzzPackedRows holds the store against a [][]val.Value model. The first
// byte is the row width (0–5), the second where the rows split between two
// stores that adopt joins; then each value is a kind byte and its payload —
// 8 bytes, or a length byte and that many bytes for a CHAR.
func FuzzPackedRows(f *testing.F) {
	f.Add([]byte{2, 1, 1, 1, 2, 3, 4, 5, 6, 7, 8, 3, 2, 'a', 'b', 0, 2, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	f.Add(append([]byte{0, 3}, make([]byte, 600)...))
	f.Add(append([]byte{4, 200}, strings.Repeat("\x04\x01\x02\x03\x04\x05\x06\x07\x08", 2000)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		width, split := int(data[0]%6), int(data[1])
		data = data[2:]
		var model [][]val.Value
		for width == 0 && len(data) > 0 && len(model) < 3*slabChunkRows { // a zero-width row per byte
			model, data = append(model, nil), data[1:]
		}
		for width > 0 && len(data) > 0 {
			row := make([]val.Value, width)
			for j := range row {
				if len(data) == 0 {
					break
				}
				k := val.Kind(data[0] % 5)
				data = data[1:]
				if k == val.KStr {
					n := 0
					if len(data) > 0 {
						n, data = min(int(data[0]), len(data)-1), data[1:]
					}
					row[j], data = val.Str(string(data[:n])), data[n:]
					continue
				}
				var p [8]byte
				data = data[copy(p[:], data):]
				u := binary.LittleEndian.Uint64(p[:])
				switch k {
				case val.KInt:
					row[j] = val.Int(int64(u))
				case val.KDate:
					row[j] = val.Date(int64(u))
				case val.KFloat:
					row[j] = val.Float(math.Float64frombits(u))
				}
			}
			model = append(model, row)
		}
		split = min(split, len(model))
		a, b := newPackedRows(width), newPackedRows(width)
		for i, row := range model {
			if i < split {
				a.add(row)
			} else {
				b.add(row)
			}
		}
		// b's rows chain backwards, so adopt has links to rewrite.
		for i := int32(1); i < b.n; i++ {
			b.setLink(i, i-1)
		}
		base := a.adopt(&b)
		got := make([]val.Value, width)
		for i, want := range model {
			r, link := int32(i), int32(-1)
			if i >= split {
				r = base + int32(i-split)
				if i > split {
					link = r - 1
				}
			}
			if next := a.load(r, got); next != link {
				t.Fatalf("row %d (index %d) links to %d, want %d", i, r, next, link)
			}
			for j := range want {
				if !identical(got[j], want[j]) {
					t.Fatalf("row %d value %d comes back %#v, want %#v", i, j, got[j], want[j])
				}
			}
		}
	})
}

// TestHashBuildBytesPerValue budgets what a build value costs in the Go
// heap, its share of the row's link and of the key table included: a
// 20 000-row build of four numeric output columns under 256 keys, at 12
// bytes a value, and at most 1.1 allocations per 256 rows built past the
// first 10 000 — one per chunk. Packed, a value costs 10.6 bytes and 256
// rows allocate 1.02 times. As 40-byte val.Values beside a link slice that
// grew by append, a value cost 45.9 bytes and 256 rows allocated 1.10 times.
func TestHashBuildBytesPerValue(t *testing.T) {
	const rows, width, keys = 20000, 4, 256
	var keyBytes [keys][]byte
	for k := range keyBytes {
		keyBytes[k] = val.AppendKey(nil, val.Int(int64(k)))
	}
	row := make([]val.Value, width)
	var ht *hashTable
	build := func(n int) func() {
		return func() {
			ht = newHashTable(width)
			for i := 0; i < n; i++ {
				row[0], row[1] = val.Int(int64(i)), val.Float(float64(i)/4)
				row[2], row[3] = val.Date(int64(9000+i%2500)), val.Int(int64(i%7))
				ht.add(keyBytes[i%keys], row)
			}
		}
	}
	perValue := kibPerRun(3, build(rows)) * 1024 / (rows * width)
	t.Logf("%.1f bytes per build value", perValue)
	if perValue > 12 {
		t.Errorf("a build value costs %.1f bytes, budget 12", perValue)
	}
	perChunk := (testing.AllocsPerRun(1, build(rows)) - testing.AllocsPerRun(1, build(rows/2))) / (rows / 2.0 / slabChunkRows)
	t.Logf("%.2f allocations per %d rows built", perChunk, slabChunkRows)
	if !race.Enabled && perChunk > 1.1 {
		t.Errorf("%d built rows allocate %.2f times, budget 1.1", slabChunkRows, perChunk)
	}
	if r := ht.first(keyBytes[3]); r != 3 {
		t.Fatalf("key 3 starts its chain at row %d", r)
	}
}

// TestHashJoinCarriesEveryKind joins against a view, a derived relation whose
// output column is a CASE yielding INT, DECIMAL, CHAR and NULL: the build
// rows hand each kind back to the probe as the CASE made it.
func TestHashJoinCarriesEveryKind(t *testing.T) {
	s := vecDB(t, 200, 0)
	mustExec(t, s, `CREATE VIEW dim_kinds AS SELECT g_id, CASE WHEN g_id = 0 THEN g_id * 10
		WHEN g_id = 1 THEN g_id + 0.25 WHEN g_id = 2 THEN g_name END AS c FROM dim`)
	q := `SELECT t.id, d.c FROM tt t, dim_kinds d WHERE t.grp = d.g_id AND t.id < 60 ORDER BY t.id`
	plan, err := s.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "hash join D") {
		t.Fatalf("plans as\n%s\nwant a hash join building on the view", plan)
	}
	want := []val.Value{val.Int(0), val.Float(1.25), val.Str("GROUP2"), val.Null}
	res := mustExec(t, s, q)
	if len(res.Rows) != 60 {
		t.Fatalf("%d rows, want 60", len(res.Rows))
	}
	for i, r := range res.Rows {
		if r[0] != val.Int(int64(i)) || !identical(r[1], want[i%4]) {
			t.Errorf("row %d = %v, want [%d %v]", i, r, i, want[i%4])
		}
	}
}
