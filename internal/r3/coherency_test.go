package r3

import (
	"slices"
	"testing"

	"r3bench/internal/cost"
	"r3bench/internal/val"
)

// These tests pin the buffer-coherency guarantee: an application-server
// table buffer must never serve a stale row, no matter which interface
// performed the write — Open SQL, Native SQL (direct or prepared), or a
// raw engine session. Before the engine write hook, only OpenSQL.Insert
// invalidated, so every other path could read back deleted or outdated
// rows from the buffer.

// maraKey builds the SELECT SINGLE conditions for one MARA row.
func maraKey(matnr string) []Cond {
	return []Cond{Eq("MATNR", val.Str(matnr))}
}

// cacheMara reads one MARA row through the buffer so it is resident.
func cacheMara(t *testing.T, o *OpenSQL, matnr string) Row {
	t.Helper()
	row, ok, err := o.SelectSingle("MARA", maraKey(matnr))
	if err != nil || !ok {
		t.Fatalf("caching MARA %s: ok=%v err=%v", matnr, ok, err)
	}
	return row
}

func TestBufferCoherencyOpenSQLDelete(t *testing.T) {
	sys, _ := installedSys(t, Release22)
	sys.SetBuffered("MARA", 1<<20)
	o := sys.OpenSQL(cost.NewMeter(sys.DB.Model()))
	matnr := Key16(3)
	cacheMara(t, o, matnr)

	if err := o.Delete("MARA", val.Str(matnr)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := o.SelectSingle("MARA", maraKey(matnr)); ok {
		t.Fatal("stale read: buffer served a row deleted through Open SQL")
	}
}

func TestBufferCoherencyOpenSQLInsert(t *testing.T) {
	sys, _ := installedSys(t, Release22)
	sys.SetBuffered("MARA", 1<<20)
	o := sys.OpenSQL(cost.NewMeter(sys.DB.Model()))
	matnr := Key16(4)
	cacheMara(t, o, matnr)
	if err := o.Delete("MARA", val.Str(matnr)); err != nil {
		t.Fatal(err)
	}
	if err := o.InsertGroup("MARA", []map[string]val.Value{{
		"MATNR": val.Str(matnr), "MTART": val.Str("REWRITTEN"),
	}}); err != nil {
		t.Fatal(err)
	}
	row, ok, err := o.SelectSingle("MARA", maraKey(matnr))
	if err != nil || !ok {
		t.Fatalf("re-read after insert: ok=%v err=%v", ok, err)
	}
	if got := row.Get("MTART").AsStr(); got != "REWRITTEN" {
		t.Fatalf("stale read after Open SQL re-insert: MTART = %q", got)
	}
}

func TestBufferCoherencyNativeSQLUpdate(t *testing.T) {
	sys, _ := installedSys(t, Release22)
	sys.SetBuffered("MARA", 1<<20)
	o := sys.OpenSQL(cost.NewMeter(sys.DB.Model()))
	n := sys.NativeSQL(cost.NewMeter(sys.DB.Model()))
	matnr := Key16(5)
	cacheMara(t, o, matnr)

	if _, err := n.Exec(`UPDATE MARA SET MTART = ? WHERE MANDT = ? AND MATNR = ?`,
		val.Str("NATIVEUPD"), val.Str(DefaultClient), val.Str(matnr)); err != nil {
		t.Fatal(err)
	}
	row, ok, err := o.SelectSingle("MARA", maraKey(matnr))
	if err != nil || !ok {
		t.Fatalf("re-read: ok=%v err=%v", ok, err)
	}
	if got := row.Get("MTART").AsStr(); got != "NATIVEUPD" {
		t.Fatalf("stale read: Native SQL UPDATE invisible through buffer, MTART = %q", got)
	}
}

func TestBufferCoherencyNativeSQLDelete(t *testing.T) {
	sys, _ := installedSys(t, Release22)
	sys.SetBuffered("MARA", 1<<20)
	o := sys.OpenSQL(cost.NewMeter(sys.DB.Model()))
	n := sys.NativeSQL(cost.NewMeter(sys.DB.Model()))
	matnr := Key16(6)
	cacheMara(t, o, matnr)

	if _, err := n.Exec(`DELETE FROM MARA WHERE MANDT = ? AND MATNR = ?`,
		val.Str(DefaultClient), val.Str(matnr)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := o.SelectSingle("MARA", maraKey(matnr)); ok {
		t.Fatal("stale read: buffer served a row deleted through Native SQL")
	}
}

func TestBufferCoherencyPreparedDML(t *testing.T) {
	sys, _ := installedSys(t, Release22)
	sys.SetBuffered("MARA", 1<<20)
	o := sys.OpenSQL(cost.NewMeter(sys.DB.Model()))
	matnr := Key16(7)
	cacheMara(t, o, matnr)

	st, err := sys.DB.NewSessionWithMeter(nil).Prepare(`UPDATE MARA SET MTART = ? WHERE MANDT = ? AND MATNR = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Query(val.Str("PREPUPD"), val.Str(DefaultClient), val.Str(matnr)); err != nil {
		t.Fatal(err)
	}
	row, ok, err := o.SelectSingle("MARA", maraKey(matnr))
	if err != nil || !ok {
		t.Fatalf("re-read: ok=%v err=%v", ok, err)
	}
	if got := row.Get("MTART").AsStr(); got != "PREPUPD" {
		t.Fatalf("stale read: prepared UPDATE invisible through buffer, MTART = %q", got)
	}
}

func TestBufferCoherencyEngineSession(t *testing.T) {
	sys, _ := installedSys(t, Release22)
	sys.SetBuffered("MARA", 1<<20)
	o := sys.OpenSQL(cost.NewMeter(sys.DB.Model()))
	matnr := Key16(8)
	cacheMara(t, o, matnr)

	// A raw engine session bypasses every R/3 interface entirely.
	s := sys.DB.NewSessionWithMeter(nil)
	if _, err := s.Exec(`UPDATE MARA SET MTART = ? WHERE MANDT = ? AND MATNR = ?`,
		val.Str("RAWUPD"), val.Str(DefaultClient), val.Str(matnr)); err != nil {
		t.Fatal(err)
	}
	row, ok, err := o.SelectSingle("MARA", maraKey(matnr))
	if err != nil || !ok {
		t.Fatalf("re-read: ok=%v err=%v", ok, err)
	}
	if got := row.Get("MTART").AsStr(); got != "RAWUPD" {
		t.Fatalf("stale read: raw engine UPDATE invisible through buffer, MTART = %q", got)
	}
}

func TestBufferCoherencyPoolTable(t *testing.T) {
	sys, _ := installedSys(t, Release22)
	sys.SetBuffered("A004", 1<<20)
	o := sys.OpenSQL(cost.NewMeter(sys.DB.Model()))
	key := []Cond{Eq("KAPPL", val.Str("V")), Eq("KSCHL", val.Str("PR00")),
		Eq("MATNR", val.Str(Key16(9)))}
	if _, ok, err := o.SelectSingle("A004", key); err != nil || !ok {
		t.Fatalf("caching A004: ok=%v err=%v", ok, err)
	}
	// The physical write hits ATAB; the hook must map it back to A004 and
	// re-pad the trimmed VARKEY to the buffer's fixed-width key.
	if err := o.Delete("A004", val.Str("V"), val.Str("PR00"), val.Str(Key16(9))); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := o.SelectSingle("A004", key); ok {
		t.Fatal("stale read: buffer served a pool-table row deleted from ATAB")
	}
}

func TestBufferCoherencyClusterTable(t *testing.T) {
	sys, _ := installedSys(t, Release22)
	sys.SetBuffered("KONV", 1<<20)
	o := sys.OpenSQL(cost.NewMeter(sys.DB.Model()))

	// Find one logical row's full key, then cache it via SELECT SINGLE.
	var first Row
	found := false
	err := o.Select("KONV", []Cond{Eq("KNUMV", val.Str(Key16(1)))}, func(r Row) error {
		first = rowFor(sys.Table("KONV"), slices.Clone(r.Vals())) // r is valid in the callback only
		found = true
		return StopSelect
	})
	if (err != nil && err != StopSelect) || !found {
		t.Fatalf("scanning KONV: found=%v err=%v", found, err)
	}
	key := []Cond{
		Eq("KNUMV", first.Get("KNUMV")), Eq("KPOSN", first.Get("KPOSN")),
		Eq("STUNR", first.Get("STUNR")), Eq("ZAEHK", first.Get("ZAEHK")),
	}
	if _, ok, err := o.SelectSingle("KONV", key); err != nil || !ok {
		t.Fatalf("caching KONV: ok=%v err=%v", ok, err)
	}
	// Deleting the document's cluster rows writes KONV_C; the hook must
	// invalidate by cluster-key prefix (one physical row packs many
	// logical rows).
	if err := o.Delete("KONV", first.Get("KNUMV")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := o.SelectSingle("KONV", key); ok {
		t.Fatal("stale read: buffer served a cluster row after its document was deleted")
	}
}

// TestBufferStatsSurviveDisable pins that disabling a buffer folds its
// counters into the system-wide cumulative stats instead of dropping
// them — experiments tear buffers down, metrics run afterwards.
func TestBufferStatsSurviveDisable(t *testing.T) {
	sys, _ := installedSys(t, Release22)
	sys.SetBuffered("MARA", 1<<20)
	o := sys.OpenSQL(cost.NewMeter(sys.DB.Model()))
	cacheMara(t, o, Key16(2)) // miss
	cacheMara(t, o, Key16(2)) // hit
	sys.SetBuffered("MARA", 0)

	var got BufferStats
	for _, st := range sys.BufferStatsAll() {
		if st.Table == "MARA" {
			got = st
		}
	}
	if got.Table != "MARA" || got.Hits != 1 || got.Misses != 1 {
		t.Fatalf("retired MARA stats lost: %+v", got)
	}
	if got.Resident != 0 {
		t.Fatalf("retired buffer reports residents: %+v", got)
	}

	// Re-enabling keeps accumulating on top of the retired counters; the
	// one freshly cached row must show up as live resident bytes.
	sys.SetBuffered("MARA", 1<<20)
	cacheMara(t, o, Key16(2)) // miss in the fresh buffer
	for _, st := range sys.BufferStatsAll() {
		if st.Table == "MARA" && (st.Hits != 1 || st.Misses != 2 || st.Resident == 0) {
			t.Fatalf("cumulative stats after re-enable wrong: %+v", st)
		}
	}
}

// TestBufferDupInsertRefreshesLRU pins the eviction order after a
// duplicate insert: re-caching a resident key must move it to the front
// of the LRU chain, so the eviction victim is the genuinely
// least-recently-touched key, not the re-cached one.
func TestBufferDupInsertRefreshesLRU(t *testing.T) {
	m := cost.NewMeter(cost.Default1996())
	b := newTableBuffer("T", 3*100, 0, 100) // exactly three rows fit, pinned
	row := func(s string) []val.Value { return []val.Value{val.Str(s)} }

	b.insert("a", row("a1"), m)
	b.insert("b", row("b1"), m)
	b.insert("c", row("c1"), m)
	b.insert("a", row("a2"), m) // duplicate: must refresh row AND recency
	b.insert("d", row("d1"), m) // evicts b (oldest untouched), not a

	if got, hit := b.lookup("a", m); !hit {
		t.Fatal("dup-inserted key evicted: LRU position was not refreshed")
	} else if got[0].AsStr() != "a2" {
		t.Fatalf("dup insert did not refresh the cached row: %q", got[0].AsStr())
	}
	if _, hit := b.lookup("b", m); hit {
		t.Fatal("eviction order wrong: b should have been the LRU victim")
	}
	for _, k := range []string{"c", "d"} {
		if _, hit := b.lookup(k, m); !hit {
			t.Fatalf("%s unexpectedly evicted", k)
		}
	}
	st := b.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.Resident != 3*100 {
		t.Errorf("resident = %d bytes, want 3 rows × 100", st.Resident)
	}
}
