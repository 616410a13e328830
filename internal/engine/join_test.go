package engine

import (
	"fmt"
	"strings"
	"testing"

	"r3bench/internal/val"
)

// TestJoinSkipsNullKeys: NULL = NULL is not true, so a NULL join key
// matches nothing — on the hash join (build and probe side) and on the
// index nested-loop join, whose index does store the NULL keys. The same
// goes for a NULL bound of a plain index scan.
func TestJoinSkipsNullKeys(t *testing.T) {
	db := Open(Config{})
	s := db.NewSession()
	// b is wide and ten times a's size, so probing its index from a few a
	// rows beats scanning it for a hash build.
	mustExec(t, s, `CREATE TABLE a (a_id INTEGER PRIMARY KEY, a_k INTEGER)`)
	mustExec(t, s, `CREATE TABLE b (b_id INTEGER PRIMARY KEY, b_k INTEGER, b_pad CHAR(200))`)
	key := func(i int) string {
		if i%10 == 0 {
			return "NULL"
		}
		return fmt.Sprint(i)
	}
	for i := 0; i < 3000; i++ {
		if i < 300 {
			mustExec(t, s, fmt.Sprintf(`INSERT INTO a VALUES (%d, %s)`, i, key(i)))
		}
		mustExec(t, s, fmt.Sprintf(`INSERT INTO b VALUES (%d, %s, 'x')`, i, key(i)))
	}
	if err := db.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	check := func(q, plan string, want int64, params ...val.Value) {
		t.Helper()
		got, err := s.Explain(q, params...)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(got, plan) {
			t.Fatalf("%q plans as\n%s\nwant a %s", q, got, plan)
		}
		if n := mustExec(t, s, q, params...).Rows[0][0].AsInt(); n != want {
			t.Errorf("%q via %s = %d, want %d", q, plan, n, want)
		}
	}
	check(`SELECT COUNT(*) FROM a, b WHERE a_k = b_k`, "hash join", 270)
	mustExec(t, s, `CREATE INDEX b_k_ix ON b (b_k)`)
	check(`SELECT COUNT(*) FROM a, b WHERE a_k = b_k AND a_id < 3`, "index nested-loop join B via B_K_IX", 2)
	check(`SELECT COUNT(*) FROM b WHERE b_k = ?`, "index scan B via B_K_IX", 0, val.Null)
	check(`SELECT COUNT(*) FROM b WHERE b_k > ?`, "index scan B via B_K_IX", 0, val.Null)
}

// TestNestedIndexScansKeepTheirBounds: an index nested-loop join probes
// while the index scan feeding it is still walking its range, so each
// nesting level needs its own bound keys.
func TestNestedIndexScansKeepTheirBounds(t *testing.T) {
	s := vecDB(t, 300, 0)
	tt, dim := s.db.Table("TT"), s.db.Table("DIM")
	outer := &relInfo{table: tt, width: len(tt.Cols), cols: tt.Heap.Codec().AllCols()}
	inner := &relInfo{table: dim, width: len(dim.Cols), offset: outer.width, cols: dim.Heap.Codec().AllCols()}
	lit := func(i int64) exprFn {
		return func(*runtime, rowStack) (val.Value, error) { return val.Int(i), nil }
	}
	rangeAP := accessPath{index: tt.Indexes[0], loFn: lit(10), loInc: true, hiFn: lit(200), hiInc: true}
	probeAP := accessPath{index: dim.Indexes[0], eqFns: []exprFn{slotFn(1)}} // g_id = grp

	be := newBlockExec(&runtime{sess: s}, nil)
	be.setRow(make([]val.Value, outer.width+inner.width))
	n := 0
	err := runAccess(be, outer, rangeAP, nil, nil, func() error {
		return runAccess(be, inner, probeAP, nil, nil, func() error {
			if be.row[1] != be.row[outer.width] {
				t.Fatalf("joined grp %v to g_id %v", be.row[1], be.row[outer.width])
			}
			n++
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 191 {
		t.Errorf("joined %d rows, want the 191 of id 10..200", n)
	}
}

// TestHashTableChainsKeepBuildOrder: the rows of a key come back in the
// order they were added, values and all — across chunk boundaries, and lane
// after lane once a parallel build's tables are absorbed — whether the build
// rows carry three values (a CHAR among them, NULL in every fifth) or,
// nothing but the key being read of them, none.
func TestHashTableChainsKeepBuildOrder(t *testing.T) {
	const keys, perLane = 7, 2*slabChunkRows + 90 // two full chunks and a short one per lane
	key := func(k int) []byte { return val.AppendKey(nil, val.Int(int64(k))) }
	name := func(seq int64) val.Value {
		if seq%5 == 0 {
			return val.Null
		}
		return val.Str(fmt.Sprint("r", seq))
	}
	for _, width := range []int{3, 0} {
		var want [keys][]int64
		seq := int64(0)
		lane := func() *hashTable {
			ht := newHashTable(width)
			for i := 0; i < perLane; i++ {
				k := (i * i) % keys
				ht.add(key(k), []val.Value{val.Int(int64(k)), val.Int(seq), name(seq)}[:width])
				want[k] = append(want[k], seq)
				seq++
			}
			return ht
		}
		ht := lane()
		ht.absorb(lane())
		ht.absorb(lane())
		row := make([]val.Value, width)
		for k := 0; k < keys; k++ {
			var got []int64
			for r := ht.first(key(k)); r >= 0; {
				// A lane's rows are numbered from a chunk boundary on.
				at := int64(r)/(3*slabChunkRows)*perLane + int64(r)%(3*slabChunkRows)
				r = ht.rows.load(r, row)
				if width > 0 {
					if row[0] != val.Int(int64(k)) {
						t.Fatalf("key %d chains to a row of key %v", k, row[0])
					}
					at = row[1].AsInt()
					if row[2] != name(at) {
						t.Fatalf("row %d carries %#v, want %#v", at, row[2], name(at))
					}
				}
				if got = append(got, at); len(got) > len(want[k]) {
					t.Fatalf("width %d, key %d: chain runs past its %d rows: %v", width, k, len(want[k]), got)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want[k]) {
				t.Errorf("width %d, key %d: chain order %v, want %v", width, k, got, want[k])
			}
		}
		if r := ht.first(key(keys)); r != -1 {
			t.Errorf("absent key found row %d", r)
		}
	}
}
