package engine

import (
	"fmt"
	"testing"

	"r3bench/internal/cost"
	"r3bench/internal/storage"
)

// residentHeapPages counts the table's heap pages currently resident in
// the buffer pool.
func residentHeapPages(db *DB, tab *Table) int {
	n := 0
	file := tab.Heap.File()
	for p := 0; p < tab.Heap.Pages(); p++ {
		if db.Pool().Contains(file, storage.PageID(p)) {
			n++
		}
	}
	return n
}

// TestDropReleasesResidentPages is the regression test for the lazy
// drop-invalidation bug: dropping an index (or a whole table) must evict
// its pages from the residence models immediately, not leave dead pages
// holding buffer slots until they age out of the LRU.
func TestDropReleasesResidentPages(t *testing.T) {
	db := Open(Config{BufferBytes: 1 << 20})
	// Residence models only register touches on metered work.
	s := db.NewSessionWithMeter(cost.NewMeter(db.Model()))
	mustExec := func(sql string) {
		t.Helper()
		if _, err := s.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	// Large enough that the planner prefers index probes over a scan.
	mustExec(`CREATE TABLE D (ID INTEGER, N INTEGER, V CHAR(60), PRIMARY KEY (ID))`)
	mustExec(`CREATE INDEX D_N ON D (N)`)
	for i := 0; i < 5000; i++ {
		mustExec(fmt.Sprintf(`INSERT INTO D VALUES (%d, %d, 'row%d')`, i, i%997, i))
	}
	if err := db.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	// Warm both residence models: a heap scan admits heap pages to the
	// buffer pool, index probes admit leaves to the page cache.
	mustExec(`SELECT COUNT(*) FROM D WHERE V <> ''`)
	for i := 0; i < 997; i += 13 {
		mustExec(fmt.Sprintf(`SELECT ID FROM D WHERE N = %d`, i))
	}
	for i := 0; i < 5000; i += 67 {
		mustExec(fmt.Sprintf(`SELECT N FROM D WHERE ID = %d`, i))
	}

	tab := db.Table("D")
	heapPages := tab.Heap.Pages()
	heapFile := tab.Heap.File()
	if n := residentHeapPages(db, tab); n == 0 {
		t.Fatal("warm-up left no heap pages resident; the test proves nothing")
	}
	before := db.IndexCache().Stats().Resident
	if before == 0 {
		t.Fatal("warm-up left no index leaves resident; the test proves nothing")
	}

	// Dropping the secondary index must release its leaves eagerly while
	// the primary index keeps its own residents.
	mustExec(`DROP INDEX D_N`)
	afterIx := db.IndexCache().Stats().Resident
	if afterIx >= before {
		t.Fatalf("DROP INDEX left the page cache at %d resident leaves (was %d)", afterIx, before)
	}
	if afterIx == 0 {
		t.Fatal("DROP INDEX evicted the surviving primary index's leaves too")
	}

	// Dropping the table must empty both models of its pages at once.
	mustExec(`DROP TABLE D`)
	if got := db.IndexCache().Stats().Resident; got != 0 {
		t.Fatalf("DROP TABLE left %d index leaves resident", got)
	}
	for p := 0; p < heapPages; p++ {
		if db.Pool().Contains(heapFile, storage.PageID(p)) {
			t.Fatalf("DROP TABLE left heap page %d resident in the buffer pool", p)
		}
	}
}
