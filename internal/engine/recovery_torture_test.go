package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"r3bench/internal/storage"
	"r3bench/internal/val"
)

// tortureRow is the expected committed value of one row.
type tortureRow struct {
	n int64
	v string
}

type tortureSnap struct {
	lsn  int64
	rows map[int64]tortureRow
}

func copyRows(rows map[int64]tortureRow) map[int64]tortureRow {
	out := make(map[int64]tortureRow, len(rows))
	for k, v := range rows {
		out[k] = v
	}
	return out
}

// tortureEmptied is the number of heap pages the workload has when its
// page-emptying phase starts, and the first ID that phase inserts.
type tortureEmptied struct {
	pages   int
	firstID int64
}

// buildTortureDB replays the deterministic mixed-DML workload on a fresh
// durable database and returns it with the committed-state snapshot
// taken after every statement's commit record. T's rows are about 1 KiB,
// eight to a page, so the workload spans pages: after the scattered
// deletes it empties two whole pages, one statement each — a crash between
// such a delete's records and its commit record must bring every row back
// — and then inserts rows that may be stored where those were.
func buildTortureDB(t *testing.T) (*DB, []tortureSnap, tortureEmptied) {
	t.Helper()
	db := Open(Config{BufferBytes: 1 << 16}) // tiny pool: loads force eviction
	s := db.NewSessionWithMeter(nil)
	mustExec := func(sql string) {
		t.Helper()
		if _, err := s.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec(`CREATE TABLE T (ID INTEGER, N INTEGER, V CHAR(1000), PRIMARY KEY (ID))`)
	mustExec(`CREATE INDEX T_N ON T (N)`)
	w := db.EnableWAL(4)

	state := make(map[int64]tortureRow)
	snaps := []tortureSnap{{lsn: w.Size(), rows: copyRows(state)}}
	commit := func() {
		snaps = append(snaps, tortureSnap{lsn: w.Size(), rows: copyRows(state)})
	}
	for i := int64(1); i <= 40; i++ {
		mustExec(fmt.Sprintf(`INSERT INTO T VALUES (%d, %d, 'v%d')`, i, i%7, i))
		state[i] = tortureRow{n: i % 7, v: fmt.Sprintf("v%d", i)}
		commit()
	}
	for i := int64(1); i <= 40; i += 3 {
		mustExec(fmt.Sprintf(`UPDATE T SET N = %d, V = 'u%d' WHERE ID = %d`, i%5+10, i, i))
		state[i] = tortureRow{n: i%5 + 10, v: fmt.Sprintf("u%d", i)}
		commit()
	}
	for i := int64(2); i <= 40; i += 5 {
		mustExec(fmt.Sprintf(`DELETE FROM T WHERE ID = %d`, i))
		delete(state, i)
		commit()
	}
	for i := int64(41); i <= 48; i++ {
		mustExec(fmt.Sprintf(`INSERT INTO T VALUES (%d, %d, 'w%d')`, i, i%4, i))
		state[i] = tortureRow{n: i % 4, v: fmt.Sprintf("w%d", i)}
		commit()
	}
	// Empty pages 1 and 2 (IDs 9–16 and 17–24), then insert twelve rows.
	tab := db.Table("T")
	emptied := tortureEmptied{pages: tab.Heap.Pages(), firstID: 49}
	for lo := int64(9); lo <= 17; lo += 8 {
		mustExec(fmt.Sprintf(`DELETE FROM T WHERE ID BETWEEN %d AND %d`, lo, lo+7))
		for i := lo; i <= lo+7; i++ {
			delete(state, i)
		}
		commit()
	}
	for i := emptied.firstID; i < emptied.firstID+12; i++ {
		mustExec(fmt.Sprintf(`INSERT INTO T VALUES (%d, %d, 'e%d')`, i, i%6, i))
		state[i] = tortureRow{n: i % 6, v: fmt.Sprintf("e%d", i)}
		commit()
	}
	// An uncommitted tail: a transaction that logged work but never
	// committed — it empties page 3 (IDs 25–32) and inserts three rows.
	// Any cut at or past these records must undo them.
	loser := db.NewSessionWithMeter(nil)
	var victims []storage.RID
	var rows [][]val.Value
	err := tab.Heap.Scan(nil, func(rid storage.RID, row []val.Value) error {
		if id := row[0].AsInt(); id >= 25 && id <= 32 {
			victims = append(victims, rid)
			rows = append(rows, append([]val.Value(nil), row...))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, rid := range victims {
		if err := loser.deleteRow(tab, rid, rows[i]); err != nil {
			t.Fatalf("uncommitted delete: %v", err)
		}
	}
	for i := int64(90); i <= 92; i++ {
		if err := loser.InsertRow("T", []val.Value{val.Int(i), val.Int(7), val.Str("loser")}); err != nil {
			t.Fatalf("uncommitted insert: %v", err)
		}
	}
	return db, snaps, emptied
}

// verifyRecovered checks the recovered database against the newest
// snapshot whose commit survived the cut, and checks every index against
// the recovered heap.
func verifyRecovered(t *testing.T, db *DB, st storage.RecoveryStats, snaps []tortureSnap, cut int64) {
	t.Helper()
	var want map[int64]tortureRow
	for _, sn := range snaps {
		if sn.lsn <= st.ValidLSN {
			want = sn.rows
		}
	}

	tab := db.Table("T")
	got := make(map[int64]tortureRow)
	heapRIDs := make(map[storage.RID][]val.Value)
	err := tab.Heap.Scan(nil, func(rid storage.RID, row []val.Value) error {
		got[row[0].AsInt()] = tortureRow{n: row[1].AsInt(), v: strings.TrimRight(row[2].AsStr(), " ")}
		heapRIDs[rid] = append([]val.Value(nil), row...)
		return nil
	})
	if err != nil {
		t.Fatalf("cut %d: heap scan: %v", cut, err)
	}
	if len(got) != len(want) {
		t.Fatalf("cut %d (valid %d): %d rows recovered, want %d", cut, st.ValidLSN, len(got), len(want))
	}
	for id, wr := range want {
		gr, ok := got[id]
		if !ok {
			t.Fatalf("cut %d: committed row %d lost", cut, id)
		}
		if gr != wr {
			t.Fatalf("cut %d: row %d = %+v, want %+v", cut, id, gr, wr)
		}
	}

	// Index ↔ heap consistency: every tree holds exactly one entry per
	// heap row, each entry's RID resolves to a row with a matching key.
	for _, ix := range tab.Indexes {
		if n := ix.Tree.Entries(); n != int64(len(heapRIDs)) {
			t.Fatalf("cut %d: index %s has %d entries, heap has %d rows", cut, ix.Name, n, len(heapRIDs))
		}
		it := ix.Tree.Seek(nil, nil)
		for it.Next() {
			row, ok := heapRIDs[it.RID]
			if !ok {
				t.Fatalf("cut %d: index %s entry points at missing RID %v", cut, ix.Name, it.RID)
			}
			if string(ix.keyFor(row)) != string(it.Key) {
				t.Fatalf("cut %d: index %s entry key mismatch for RID %v", cut, ix.Name, it.RID)
			}
		}
	}
}

// TestRecoveryTortureEveryBoundary crashes the WAL at every record
// boundary and in the middle of every record (a torn tail) and verifies
// that recovery restores exactly the committed prefix each time. The
// workload stores rows in pages its deletes emptied, which the test checks
// first, so the cuts include reused slots.
func TestRecoveryTortureEveryBoundary(t *testing.T) {
	ref, _, emptied := buildTortureDB(t)
	reused := 0
	err := ref.Table("T").Heap.Scan(nil, func(rid storage.RID, row []val.Value) error {
		if id := row[0].AsInt(); id >= emptied.firstID && id < emptied.firstID+12 && int(rid.Page) < emptied.pages {
			reused++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if reused == 0 {
		t.Fatalf("no row inserted after the pages were emptied went below page %d: the workload reuses no page", emptied.pages)
	}
	bounds := ref.WAL().Boundaries()
	if len(bounds) < 100 {
		t.Fatalf("workload produced only %d WAL records", len(bounds))
	}
	cuts := []int64{0, 3} // before anything, and inside the first header
	prev := int64(0)
	for _, b := range bounds {
		if mid := (prev + b) / 2; mid > prev {
			cuts = append(cuts, mid) // torn: mid-record
		}
		cuts = append(cuts, b) // clean: record boundary
		prev = b
	}
	if testing.Short() {
		sampled := cuts[:0]
		for i, c := range cuts {
			if i%7 == 0 || i >= len(cuts)-4 {
				sampled = append(sampled, c)
			}
		}
		cuts = sampled
	}
	for _, cut := range cuts {
		db, snaps, _ := buildTortureDB(t)
		st, err := db.CrashRecover(cut, nil)
		if err != nil {
			t.Fatalf("cut %d: recover: %v", cut, err)
		}
		verifyRecovered(t, db, st, snaps, cut)
	}
}

// TestRecoveryAfterConcurrentCommits drives concurrent sessions through
// group commit, crashes with nothing lost, and verifies every
// acknowledged row survived — the -race half of the torture suite.
func TestRecoveryAfterConcurrentCommits(t *testing.T) {
	db := Open(Config{BufferBytes: 1 << 16})
	s := db.NewSessionWithMeter(nil)
	if _, err := s.Exec(`CREATE TABLE C (ID INTEGER, N INTEGER, PRIMARY KEY (ID))`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`CREATE INDEX C_N ON C (N)`); err != nil {
		t.Fatal(err)
	}
	db.EnableWAL(8)

	const workers, each = 8, 50
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			sess := db.NewSessionWithMeter(nil)
			for i := 0; i < each; i++ {
				id := wkr*each + i
				if _, err := sess.Exec(fmt.Sprintf(`INSERT INTO C VALUES (%d, %d)`, id, id%13)); err != nil {
					errs[wkr] = err
					return
				}
			}
		}(wkr)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st, err := db.CrashRecover(-1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Lost != 0 {
		t.Fatalf("lost %d transactions with nothing cut", st.Lost)
	}
	tab := db.Table("C")
	n := 0
	seen := make(map[int64]bool)
	err = tab.Heap.Scan(nil, func(rid storage.RID, row []val.Value) error {
		n++
		seen[row[0].AsInt()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != workers*each {
		t.Fatalf("recovered %d rows, want %d", n, workers*each)
	}
	for id := 0; id < workers*each; id++ {
		if !seen[int64(id)] {
			t.Fatalf("row %d missing after recovery", id)
		}
	}
	for _, ix := range tab.Indexes {
		if e := ix.Tree.Entries(); e != int64(workers*each) {
			t.Fatalf("index %s has %d entries, want %d", ix.Name, e, workers*each)
		}
	}
}

// TestDirectLoadSurvivesLaterWriteBack recovers a direct-path load at its
// commit after a later UPDATE has been written back. The loader logs only
// its extents, not its rows, so the page's newer stable image is useless at
// that cut and redo cannot rebuild the rows from the log: recovery has to
// start from the page as the load left it.
func TestDirectLoadSurvivesLaterWriteBack(t *testing.T) {
	const n = 50
	db := Open(Config{})
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE D (ID INTEGER PRIMARY KEY, V CHAR(8))`)
	w := db.EnableWAL(1)
	l, err := db.NewDirectLoader("D", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		if err := l.Append([]val.Value{val.Int(i), val.Str("load")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	cut := w.Size() // the load's commit
	mustExec(t, s, `UPDATE D SET V = 'upd' WHERE ID = 7`)
	db.Pool().FlushAll(nil)
	if _, err := db.CrashRecover(cut, nil); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, s, `SELECT COUNT(*), SUM(ID) FROM D WHERE V = 'load'`)
	if got := res.Rows[0][0].AsInt(); got != n || res.Rows[0][1].AsInt() != n*(n-1)/2 {
		t.Fatalf("recovered %d of %d loaded rows (ID sum %v)", got, n, res.Rows[0][1])
	}
}

// TestLostDirectLoadUndoesToEmpty crashes a direct-path load just before
// its commit record: the load is lost, so none of its rows may come back.
// A committed insert made after that recovery, which lands on a page the
// load had filled, must then survive a second crash.
func TestLostDirectLoadUndoesToEmpty(t *testing.T) {
	const n = 50
	db := Open(Config{})
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE D (ID INTEGER PRIMARY KEY, V CHAR(8))`)
	w := db.EnableWAL(1)
	l, err := db.NewDirectLoader("D", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		if err := l.Append([]val.Value{val.Int(i), val.Str("load")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	b := w.Boundaries()
	st, err := db.CrashRecover(b[len(b)-2], nil) // just before the load's commit
	if err != nil {
		t.Fatal(err)
	}
	if st.Lost != 1 {
		t.Fatalf("recovery counted %d lost transactions, want 1", st.Lost)
	}
	if got := mustExec(t, s, `SELECT COUNT(*) FROM D`).Rows[0][0].AsInt(); got != 0 {
		t.Fatalf("%d of %d rows of a lost load came back", got, n)
	}
	mustExec(t, s, `INSERT INTO D VALUES (1000, 'later')`)
	if _, err := db.CrashRecover(-1, nil); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, s, `SELECT ID, V FROM D`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 1000 {
		t.Fatalf("after a second crash D holds %v, want the one committed insert", res.Rows)
	}
}

// TestUniqueViolationRollbackSurvivesCrash: an insert that fails on its
// table's second index inside an open transaction takes itself back out
// of the heap (as the system transaction) and of the first index, and a
// crash before the transaction commits must then recover neither that row
// nor the transaction's earlier one, with every index as long as the heap.
func TestUniqueViolationRollbackSurvivesCrash(t *testing.T) {
	db := Open(Config{})
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE U (ID INTEGER PRIMARY KEY, CODE CHAR(4))`)
	mustExec(t, s, `CREATE UNIQUE INDEX U_CODE ON U (CODE)`)
	db.EnableWAL(1)
	mustExec(t, s, `INSERT INTO U VALUES (1, 'A')`)
	if err := s.InsertRow("U", []val.Value{val.Int(2), val.Str("B")}); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertRow("U", []val.Value{val.Int(3), val.Str("A")}); err == nil {
		t.Fatal("a duplicate CODE was accepted")
	}
	checkLengths := func(when string, want int64) {
		t.Helper()
		tb := db.Table("U")
		if got := tb.Heap.Rows(); got != want {
			t.Errorf("%s: heap holds %d rows, want %d", when, got, want)
		}
		for _, ix := range tb.Indexes {
			if got := ix.Tree.Entries(); got != tb.Heap.Rows() {
				t.Errorf("%s: index %s holds %d entries, heap %d rows", when, ix.Name, got, tb.Heap.Rows())
			}
		}
	}
	checkLengths("before the crash", 2)
	if _, err := db.CrashRecover(-1, nil); err != nil {
		t.Fatal(err)
	}
	checkLengths("after recovery", 1)
	res := mustExec(t, s, `SELECT ID, CODE FROM U`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 1 {
		t.Fatalf("after the crash U holds %v, want only the committed row 1", res.Rows)
	}
}
