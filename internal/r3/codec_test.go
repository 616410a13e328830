package r3

import (
	"math/rand"
	"testing"
	"testing/quick"

	"r3bench/internal/val"
)

// TestPoolKeyRoundTrip: VARKEY encoding/decoding must be lossless for
// trimmed values.
func TestPoolKeyRoundTrip(t *testing.T) {
	var a004 *LogicalTable
	for _, lt := range sapTables() {
		if lt.Name == "A004" {
			a004 = lt
		}
	}
	row := make([]val.Value, len(a004.Cols))
	for i, c := range a004.Cols {
		if c.Type.Kind == val.KStr {
			row[i] = val.Str("V")
		} else {
			row[i] = val.DateFromYMD(1995, 1, 1)
		}
	}
	row[a004.ColIndex("MATNR")] = val.Str(Key16(42))
	vk := a004.keyString(row)
	decoded := make([]val.Value, len(a004.Cols))
	if err := a004.decodeKeyString(vk, decoded); err != nil {
		t.Fatal(err)
	}
	for _, kc := range a004.KeyCols {
		ci := a004.ColIndex(kc)
		if got, want := decoded[ci].AsStr(), row[ci].AsStr(); got != want {
			t.Fatalf("%s = %q, want %q", kc, got, want)
		}
	}
	if decoded[a004.ColIndex("MATNR")].AsStr() != Key16(42) {
		t.Fatalf("MATNR = %v", decoded)
	}
}

// TestClusterPackRoundTrip: pack/unpack of KONV rows must preserve every
// non-filler field.
func TestClusterPackRoundTrip(t *testing.T) {
	var konv *LogicalTable
	for _, lt := range sapTables() {
		if lt.Name == "KONV" {
			konv = lt
		}
	}
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 1000; trial++ {
		row := make([]val.Value, len(konv.Cols))
		for i, c := range konv.Cols {
			switch c.Type.Kind {
			case val.KStr:
				row[i] = val.Str(Key16(r.Int63n(1e6)))
			case val.KFloat:
				row[i] = val.Float(float64(r.Intn(200000)-100000) / 100)
			default:
				row[i] = val.Date(int64(r.Intn(20000)))
			}
		}
		packed := konv.packRow(row)
		out := make([]val.Value, len(konv.Cols))
		for _, ci := range konv.physKey {
			out[ci] = row[ci]
		}
		if err := konv.unpackRow(out, packed); err != nil {
			t.Fatal(err)
		}
		for i, c := range konv.Cols {
			if c.Name == "FILLER" {
				continue
			}
			if val.Compare(out[i], row[i]) != 0 {
				t.Fatalf("trial %d: %s = %v, want %v", trial, c.Name, out[i], row[i])
			}
		}
	}
}

// TestKey16Properties: Key16 must preserve numeric order lexically.
func TestKey16Properties(t *testing.T) {
	ordered := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return Key16(x) <= Key16(y)
	}
	if err := quick.Check(ordered, nil); err != nil {
		t.Error(err)
	}
	if len(Key16(0)) != 16 || len(Key16(1<<40)) != 16 {
		t.Error("Key16 width wrong")
	}
}

// TestDialogScalesCoverAllRecordTypes guards the Table 3 calibration: every
// anchor table the population walk hands batch input has a dialog cost.
func TestDialogScalesCoverAllRecordTypes(t *testing.T) {
	for _, k := range []string{"VBAK", "VBAP", "MARA", "KNA1", "EINA", "LFA1", "T005", "T005U"} {
		if dialogScale[k] <= 0 {
			t.Errorf("no dialog scale for %s", k)
		}
	}
}
