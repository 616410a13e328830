package engine

import (
	"bytes"
	"fmt"
	"reflect"
	stdruntime "runtime"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"r3bench/internal/storage"
	"r3bench/internal/val"
)

// Inside a statement a CHAR value is a view of the page image it was
// decoded from; these tests hold the two ends of that rule: a view never
// changes under its holder, and nothing that outlives a statement is one.

// TestUpdateOnTinyPoolKeepsIndexes updates an indexed CHAR column of a
// table several times the size of a 16-page pool. updateRow writes the new
// row to the heap before it computes the old row's index key from the
// match scan's values, and by then the pages those values were decoded from
// have long been evicted: the heap write must copy the image they alias, or
// the old key reads as the new one and the index keeps every stale entry.
func TestUpdateOnTinyPoolKeepsIndexes(t *testing.T) {
	db := Open(Config{BufferBytes: 16 * storage.PageSize})
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE w (id INTEGER PRIMARY KEY, tag CHAR(16), pad CHAR(200))`)
	mustExec(t, s, `CREATE INDEX w_tag ON w (tag)`)
	const n = 2000
	rows := make([][]val.Value, n)
	for i := range rows {
		rows[i] = []val.Value{val.Int(int64(i)), val.Str(fmt.Sprintf("tag%06d", i)), val.Str("p")}
	}
	if err := db.BulkLoad("w", rows, s.Meter); err != nil {
		t.Fatal(err)
	}
	w := db.Table("W")
	if pages := w.Heap.Pages(); pages < 3*16 {
		t.Fatalf("fixture too small: %d pages against a 16-page pool", pages)
	}
	if got := mustExec(t, s, `UPDATE w SET tag = UPPER(tag)`).RowsAffected; got != n {
		t.Fatalf("updated %d rows, want %d", got, n)
	}

	// Every index entry is the key of the row it points at, and there is one
	// per row: no stale key stayed behind, no live one went missing.
	for _, ix := range w.Indexes {
		if ix.Tree.Entries() != w.Heap.Rows() {
			t.Errorf("index %s has %d entries for %d rows", ix.Name, ix.Tree.Entries(), w.Heap.Rows())
		}
		for it := ix.Tree.Seek(nil, nil); it.Next(); {
			row, err := w.Heap.Fetch(it.RID, nil, nil)
			if err != nil {
				t.Fatalf("index %s points at %v: %v", ix.Name, it.RID, err)
			}
			if !bytes.Equal(it.Key, ix.keyFor(row)) {
				t.Fatalf("index %s keeps key %q for row %v", ix.Name, it.Key, row)
			}
		}
	}
	for _, i := range []int{0, 37, n / 2, n - 1} {
		oldTag, newTag := fmt.Sprintf("tag%06d", i), fmt.Sprintf("TAG%06d", i)
		if res := mustExec(t, s, `SELECT id FROM w WHERE tag = ?`, val.Str(oldTag)); len(res.Rows) != 0 {
			t.Errorf("old key %s still finds %v", oldTag, res.Rows)
		}
		if res := mustExec(t, s, `SELECT id FROM w WHERE tag = ?`, val.Str(newTag)); len(res.Rows) != 1 || res.Rows[0][0].AsInt() != int64(i) {
			t.Errorf("new key %s finds %v", newTag, res.Rows)
		}
	}
}

// pageAliases walks everything reachable from root and returns the paths of
// the strings whose bytes lie inside one of images.
func pageAliases(root any, images [][]byte) []string {
	type span struct{ lo, hi uintptr }
	spans := make([]span, 0, len(images))
	for _, img := range images {
		if len(img) > 0 {
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(img)))
			spans = append(spans, span{lo, lo + uintptr(len(img))})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	inImage := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		i := sort.Search(len(spans), func(i int) bool { return spans[i].hi > p })
		return i < len(spans) && spans[i].lo <= p
	}
	type visit struct {
		p unsafe.Pointer
		t reflect.Type
	}
	seen := map[visit]bool{}
	var found []string
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.String:
			if v.Len() > 0 && inImage(v.String()) {
				found = append(found, fmt.Sprintf("%s = %q", path, v.String()))
			}
		case reflect.Pointer:
			if v.IsNil() || seen[visit{v.UnsafePointer(), v.Type()}] {
				return
			}
			seen[visit{v.UnsafePointer(), v.Type()}] = true
			walk(v.Elem(), path)
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem(), path)
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Slice, reflect.Array:
			if v.Type().Elem().Kind() == reflect.Uint8 {
				return // bytes are not values
			}
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Key(), path+"{key}")
				walk(it.Value(), path+"{}")
			}
		}
	}
	walk(reflect.ValueOf(root), reflect.TypeOf(root).String())
	return found
}

// kept is what TestResultOwnsItsBytes holds on to across the rewrite.
type kept struct {
	results  []*Result
	analyzed *Analyzed
	partials []*Partial
	stmt     *Stmt
	cat      *catalog // tables, statistics
	explains []string
}

// render writes out every value kept, byte for byte.
func (k *kept) render() string {
	var b strings.Builder
	for _, r := range k.results {
		fmt.Fprintf(&b, "%q\n%q\n", r.Cols, encodeRows(r.Rows))
	}
	fmt.Fprintf(&b, "%q\n", encodeRows(k.analyzed.Result.Rows))
	for _, pa := range k.partials {
		for _, r := range pa.rows {
			fmt.Fprintf(&b, "%q %q\n", val.EncodeKey(r.proj...), val.EncodeKey(r.keys...))
		}
		if pa.acc == nil {
			continue
		}
		for e := 0; e < pa.acc.groups.Len(); e++ {
			fmt.Fprintf(&b, "%q %q:", pa.acc.groups.Key(int32(e)), val.EncodeKey(pa.acc.keys.row(e)...))
			for _, st := range pa.acc.accs.row(e) {
				var distinct []string
				for d := st.seen[0]; d != 0; {
					sv := pa.acc.dist.seen.row(int(d - 1))[0]
					distinct = append(distinct, string(pa.acc.dist.keys.Key(d-1))+"="+sv.v.String())
					d = sv.next
				}
				fmt.Fprintf(&b, " %d %v %v %q", st.count, st.min, st.max, distinct)
			}
			b.WriteByte('\n')
		}
	}
	names := make([]string, 0, len(k.cat.tables))
	for name := range k.cat.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := k.cat.tables[name].stats
		fmt.Fprintf(&b, "%s %d %v\n", name, st.RowCount, st.Columns)
	}
	fmt.Fprintf(&b, "%s\n%q\n", k.stmt.Explain(), k.explains)
	return b.String()
}

// TestResultOwnsItsBytes: after a statement returns, nothing it left behind
// — Results (also from ExplainAnalyze and a prepared Stmt), Partials, column
// statistics, cached plans, the Stmt's run state — aliases a page image.
// Checked three ways: directly (no kept string points into any image of any
// table), by value (everything kept reads the same after every row has been
// rewritten twice, the pool churned, and the database crashed and recovered)
// and by what it costs (once the rewrites have superseded every image, the
// old ones are garbage: the live heap is back where it was).
func TestResultOwnsItsBytes(t *testing.T) {
	for _, degree := range []int{1, 2} {
		t.Run(fmt.Sprintf("degree%d", degree), func(t *testing.T) {
			db := Open(Config{BufferBytes: 16 * storage.PageSize, Parallel: degree})
			s := db.NewSession()
			mustExec(t, s, `CREATE TABLE big (id INTEGER PRIMARY KEY, grp INTEGER, name CHAR(24), note CHAR(60), pad CHAR(120))`)
			mustExec(t, s, `CREATE TABLE churn (id INTEGER PRIMARY KEY, pad CHAR(200))`)
			const n = 12000
			rows := make([][]val.Value, n)
			for i := range rows {
				rows[i] = []val.Value{val.Int(int64(i)), val.Int(int64(i % 5)),
					val.Str(fmt.Sprintf("name-%07d", (i*7919)%n)), val.Str(fmt.Sprintf("note %d of group %d", i, i%5)), val.Str("pad")}
			}
			if err := db.BulkLoad("big", rows, s.Meter); err != nil {
				t.Fatal(err)
			}
			rows = rows[:2000]
			for i := range rows {
				rows[i] = []val.Value{val.Int(int64(i)), val.Str("churn")}
			}
			if err := db.BulkLoad("churn", rows, s.Meter); err != nil {
				t.Fatal(err)
			}
			rows = nil
			if err := db.AnalyzeAll(); err != nil {
				t.Fatal(err)
			}
			big := db.Table("BIG")
			if mib := float64(big.Heap.DataBytes()) / (1 << 20); mib < 2 {
				t.Fatalf("fixture too small: %.1f MiB of heap against the 1 MiB the check allows", mib)
			}

			// What a caller keeps: rows from every page (a view of each would
			// pin the whole heap), MIN/MAX and DISTINCT state, sort keys,
			// hash-join build rows, a sub-block's cached result.
			k := &kept{}
			queries := []string{
				`SELECT id, name, note FROM big WHERE MOD(id, 7) = 0`,
				`SELECT grp, MIN(name), MAX(note), COUNT(DISTINCT pad), COUNT(*) FROM big GROUP BY grp ORDER BY grp`,
				`SELECT name, SUBSTR(note, 6, 12) FROM big WHERE id < 400 ORDER BY name DESC`,
				`SELECT DISTINCT pad, SUBSTR(name, 1, 6) FROM big`,
				`SELECT a.name, b.note FROM big a, big b WHERE a.id = b.grp AND MOD(b.id, 13) = 0`,
				`SELECT id, name FROM big WHERE note = (SELECT MAX(note) FROM big)`,
			}
			for _, q := range queries {
				k.results = append(k.results, mustExec(t, s, q))
				plan, err := s.Explain(q)
				if err != nil {
					t.Fatal(err)
				}
				k.explains = append(k.explains, plan)
			}
			var err error
			if k.analyzed, err = s.ExplainAnalyze(queries[1]); err != nil {
				t.Fatal(err)
			}
			for _, q := range []string{
				`SELECT grp, MIN(name), MAX(note), COUNT(DISTINCT name) FROM big GROUP BY grp`,
				`SELECT name, note FROM big WHERE MOD(id, 11) = 0 ORDER BY name`,
				`SELECT name, note FROM big WHERE MOD(id, 17) = 0`,
			} {
				pa, err := s.QueryPartial(q)
				if err != nil {
					t.Fatal(err)
				}
				k.partials = append(k.partials, pa)
			}
			if k.stmt, err = s.Prepare(`SELECT name, note FROM big WHERE id >= ? AND id < ?`); err != nil {
				t.Fatal(err)
			}
			for lo := int64(0); lo < n; lo += 3000 {
				res, err := k.stmt.Query(val.Int(lo), val.Int(lo+40))
				if err != nil {
					t.Fatal(err)
				}
				k.results = append(k.results, res)
			}
			k.cat = db.snap()
			want := k.render()

			// Directly: the images of every page of every table, as readers
			// get them. Nothing has been written since the statements ran, so
			// these are the very images they decoded.
			var images [][]byte
			for _, tb := range k.cat.tables {
				for p := 0; p < tb.Heap.Pages(); p++ {
					img, err := db.Pool().Get(tb.Heap.File(), storage.PageID(p), nil)
					if err != nil {
						t.Fatal(err)
					}
					images = append(images, img)
				}
			}
			probe, err := big.Heap.Fetch(storage.RID{}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(pageAliases(probe, images)) == 0 {
				t.Fatal("the alias check does not see a view when handed one")
			}
			// The Stmt reaches its session, the database, its caches and every
			// cached plan.
			for _, root := range []any{k.results, k.analyzed, k.partials, k.cat, k.stmt} {
				if found := pageAliases(root, images); len(found) > 0 {
					t.Errorf("%d kept strings alias a page image, first: %s", len(found), found[0])
				}
			}
			images, probe = nil, nil

			liveHeap := func() int64 {
				stdruntime.GC()
				stdruntime.GC()
				var ms stdruntime.MemStats
				stdruntime.ReadMemStats(&ms)
				return int64(ms.HeapAlloc)
			}
			base := liveHeap()
			rewrite := func(fn string) {
				t.Helper()
				q := fmt.Sprintf(`UPDATE big SET name = %s(name), note = %[1]s(note), pad = %[1]s(pad)`, fn)
				if got := mustExec(t, s, q).RowsAffected; got != n {
					t.Fatalf("rewrote %d rows, want %d", got, n)
				}
				mustExec(t, s, `SELECT COUNT(*) FROM churn`) // more pages than the pool holds
			}
			rewrite("UPPER")
			rewrite("LOWER")
			if grown := liveHeap() - base; grown > 1<<20 {
				t.Errorf("live heap grew by %.2f MiB over two rewrites of a %.2f MiB table: superseded page images are pinned",
					float64(grown)/(1<<20), float64(big.Heap.DataBytes())/(1<<20))
			}
			if got := k.render(); got != want {
				t.Error("what the statements left behind changed when the rows they read were rewritten")
			}

			db.EnableWAL(1)
			rewrite("UPPER")
			if _, err := db.CrashRecover(db.WAL().FlushedLSN(), nil); err != nil {
				t.Fatal(err)
			}
			if got := k.render(); got != want {
				t.Error("what the statements left behind changed over a crash and recovery")
			}
			if res := mustExec(t, s, `SELECT name FROM big WHERE id = 0`); res.Rows[0][0].AsStr() != "NAME-0000000" {
				t.Errorf("after recovery row 0 reads %v", res.Rows[0])
			}
			stdruntime.KeepAlive(k)
		})
	}
}
