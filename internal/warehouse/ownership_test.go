package warehouse

import (
	"fmt"
	stdruntime "runtime"
	"strings"
	"testing"

	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/r3"
	"r3bench/internal/storage"
	"r3bench/internal/val"
)

// TestKeptRowsOwnTheirBytes is engine.TestResultOwnsItsBytes for the two
// keepers above the engine: the R/3 table buffer, which holds rows of
// Results for as long as nobody writes them, and a write observer (the
// ChangeLog), which is handed the match scan's old rows — views of page
// images — with every write. VBAP is buffered row by row, then half its
// rows are rewritten twice through a 16-page pool: that supersedes the image
// of nearly every page while the buffer keeps the other half of the rows,
// about five to a page. If a buffered row, or anything the change log
// keeps, aliased the image it was read from, every superseded image would
// stay live — 4 MiB of them; what is allowed is 1 MiB.
func TestKeptRowsOwnTheirBytes(t *testing.T) {
	sys, err := r3.Install(r3.Config{Release: r3.Release30, BufferBytes: 16 * storage.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadDirect(dbgen.New(0.001)); err != nil {
		t.Fatal(err)
	}
	cl := NewChangeLog()
	sys.AddWriteObserver(cl.Observe)
	vbap := sys.DB.Table("VBAP")
	if mib := float64(vbap.DataBytes()) / (1 << 20); mib < 3 {
		t.Fatalf("fixture too small: %.1f MiB of VBAP against the 1 MiB the check allows", mib)
	}

	buf := sys.SetBuffered("VBAP", 64<<20)
	o := sys.OpenSQL(cost.NewMeter(sys.DB.Model()))
	type item struct {
		key  []r3.Cond
		kept bool // not rewritten below: stays in the buffer
		want string
	}
	var items []*item
	// An Open SQL row is valid in its callback, its CHARs views of the page
	// image: the keys the fixture keeps are copies, as any keeper's are.
	owned := func(v val.Value) val.Value {
		v.S = strings.Clone(v.S)
		return v
	}
	err = o.Select("VBAP", nil, func(r r3.Row) error {
		items = append(items, &item{
			key:  []r3.Cond{r3.Eq("VBELN", owned(r.Get("VBELN"))), r3.Eq("POSNR", owned(r.Get("POSNR")))},
			kept: r.Get("KWMENG").AsFloat() >= 26,
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	render := func(it *item) string {
		row, ok, err := o.SelectSingle("VBAP", it.key)
		if err != nil || !ok {
			t.Fatalf("VBAP %v: %v %v", it.key, ok, err)
		}
		var vals []val.Value
		for _, c := range sys.Table("VBAP").Cols {
			vals = append(vals, row.Get(c.Name))
		}
		return fmt.Sprintf("%q", val.EncodeKey(vals...))
	}
	nKept := 0
	for _, it := range items {
		it.want = render(it) // a miss: the row goes into the buffer
		if it.kept {
			nKept++
		}
	}
	if nKept < len(items)/3 || nKept > 2*len(items)/3 {
		t.Fatalf("fixture: %d of %d rows stay buffered, want about half", nKept, len(items))
	}

	liveHeap := func() int64 {
		stdruntime.GC()
		stdruntime.GC()
		var ms stdruntime.MemStats
		stdruntime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	base := liveHeap()
	s := sys.DB.NewSessionWithMeter(nil)
	for _, fn := range []string{"LOWER", "UPPER"} {
		q := fmt.Sprintf(`UPDATE VBAP SET SDABW = %s(SDABW), VSBED = %[1]s(VSBED) WHERE KWMENG < 26`, fn)
		res, err := s.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		if int(res.RowsAffected) != len(items)-nKept {
			t.Fatalf("rewrote %d rows, want %d", res.RowsAffected, len(items)-nKept)
		}
		if _, err := s.Exec(`SELECT COUNT(*) FROM VBEP`); err != nil { // more pages than the pool holds
			t.Fatal(err)
		}
	}
	if grown := liveHeap() - base; grown > 1<<20 {
		t.Errorf("live heap grew by %.2f MiB over two rewrites of half of a %.2f MiB table: superseded page images are pinned",
			float64(grown)/(1<<20), float64(vbap.DataBytes())/(1<<20))
	}

	// The rows nobody wrote are still served from the buffer, unchanged; the
	// change log saw every write and kept the order keys.
	before := buf.Stats()
	for _, it := range items {
		if it.kept {
			if got := render(it); got != it.want {
				t.Fatalf("buffered row %v changed: %s, was %s", it.key, got, it.want)
			}
		}
	}
	if after := buf.Stats(); after.Hits-before.Hits != int64(nKept) || after.Misses != before.Misses {
		t.Errorf("%d hits and %d misses re-reading the %d rows that were not written",
			after.Hits-before.Hits, after.Misses-before.Misses, nKept)
	}
	if before.Invalidations != int64(len(items)-nKept) {
		t.Errorf("%d buffer invalidations for %d rewritten rows", before.Invalidations, len(items)-nKept)
	}
	orders := map[string]bool{}
	for _, it := range items {
		if !it.kept {
			orders[it.key[0].Val.AsStr()] = true
		}
	}
	if ups, dels := cl.Drain(); len(ups) != len(orders) || len(dels) != 0 {
		t.Errorf("change log: %d upserts, %d deletes, want the %d orders of the rewritten rows", len(ups), len(dels), len(orders))
	}
	stdruntime.KeepAlive(items)
}
