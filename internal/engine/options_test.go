package engine

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"r3bench/internal/sqlparse"
	"r3bench/internal/val"
)

// TestOptionsRoundTrip: a database opens at the paper's configuration
// (plus the degree its Config names), SetOptions publishes exactly the
// value it is given, and the zero value puts the defaults back.
func TestOptionsRoundTrip(t *testing.T) {
	if got := Open(Config{}).Options(); got != (Options{}) {
		t.Fatalf("a fresh database has options %+v, want the zero value", got)
	}
	db := Open(Config{Parallel: 4})
	if got := db.Options(); got != (Options{Parallel: 4}) {
		t.Fatalf("Config{Parallel: 4} opened with %+v", got)
	}
	all := Options{Parallel: 8, ArrayFetch: true, PeekBinds: true, Adaptive: true}
	db.SetOptions(all)
	if got := db.Options(); got != all {
		t.Fatalf("Options() = %+v after SetOptions(%+v)", got, all)
	}
	db.SetOptions(Options{})
	if got := db.Options(); got != (Options{}) {
		t.Fatalf("Options() = %+v after SetOptions of the zero value", got)
	}
}

// TestOptionsParallelRetiresCachedPlans: the parallel degree is the one
// option a fingerprint-cached plan carries. Changing it retires the cached
// plans, so the same statement text replans at the new degree; a prepared
// statement keeps the degree it was planned with; and an option that is
// read per execution leaves the cached plans alone.
func TestOptionsParallelRetiresCachedPlans(t *testing.T) {
	s := vecDB(t, 1500, 0)
	db := s.db
	const q = `SELECT grp, COUNT(*) FROM tt GROUP BY grp ORDER BY grp`
	serial := encodeRows(mustExec(t, s, q).Rows)
	entry := db.pcache.lookup(fingerprint(q), q)
	if entry == nil || currentPlan(db, entry) == nil {
		t.Fatal("no plan cached for the statement at the current epoch")
	}
	prepared, err := s.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}

	db.SetOptions(Options{ArrayFetch: true})
	if currentPlan(db, entry) == nil {
		t.Error("switching array fetch retired a cached plan it cannot affect")
	}

	db.SetOptions(Options{Parallel: 8})
	if currentPlan(db, entry) != nil {
		t.Fatal("a cached serial plan survived the change of degree")
	}
	runs := db.Stats().ParallelRuns
	if got := encodeRows(mustExec(t, s, q).Rows); got != serial {
		t.Error("degree-8 result differs from serial")
	}
	if db.Stats().ParallelRuns == runs {
		t.Error("the statement text did not replan at degree 8")
	}
	if plan, err := s.Explain(q); err != nil || !strings.Contains(plan, "parallel degree") {
		t.Errorf("plan after the change = %q, %v; want a parallel plan", plan, err)
	}

	// The prepared statement was planned serial and stays serial.
	runs = db.Stats().ParallelRuns
	res, err := prepared.Query()
	if err != nil {
		t.Fatal(err)
	}
	if encodeRows(res.Rows) != serial {
		t.Error("prepared statement's result changed with the degree")
	}
	if db.Stats().ParallelRuns != runs || strings.Contains(prepared.Explain(), "parallel degree") {
		t.Errorf("prepared statement did not keep the degree it was planned with: %q", prepared.Explain())
	}

	// Putting the degree back retires the parallel plan in turn.
	db.SetOptions(Options{})
	if plan, err := s.Explain(q); err != nil || strings.Contains(plan, "parallel degree") {
		t.Errorf("plan after restoring = %q, %v; want a serial plan", plan, err)
	}
}

// TestConcurrentSetOptions is the -race exercise for the options
// snapshot and the two hooks published beside it: sessions run text and
// prepared statements and write rows while another goroutine keeps
// republishing options of every kind and installing and removing a
// rewrite hook (an equivalent copy of the statement, or no rewrite) and a
// write hook. Each statement loads one snapshot, so whatever mix it sees,
// the answer is the same.
func TestConcurrentSetOptions(t *testing.T) {
	s := vecDB(t, 1500, 0)
	db := s.db
	const q = `SELECT grp, COUNT(*), SUM(v) FROM tt WHERE id >= ? GROUP BY grp ORDER BY grp`
	want := encodeRows(mustExec(t, s, q, val.Int(0)).Rows)
	rewrite := func(sel *sqlparse.SelectStmt) *sqlparse.SelectStmt {
		if len(sel.GroupBy) == 0 {
			return nil
		}
		rw := *sel
		return &rw
	}
	var noted atomic.Int64
	note := func(string, []val.Value, []val.Value) { noted.Add(1) }

	const readers, iters = 4, 25
	stop := make(chan struct{})
	var flips sync.WaitGroup
	flips.Add(1)
	go func() {
		defer flips.Done()
		modes := []Options{
			{}, {Parallel: 4}, {ArrayFetch: true}, {PeekBinds: true, Adaptive: true},
			{Parallel: 2, ArrayFetch: true, PeekBinds: true},
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				db.SetOptions(modes[i%len(modes)])
				if i%2 == 0 {
					db.SetRewriteHook(rewrite)
					db.SetWriteHook(note)
				} else {
					db.SetRewriteHook(nil)
					db.SetWriteHook(nil)
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := db.NewSession()
			for i := 0; i < iters; i++ {
				if _, err := sess.Exec(`INSERT INTO te VALUES (?, 1.00)`, val.Int(int64(r*iters+i))); err != nil {
					t.Errorf("insert under hook churn: %v", err)
					return
				}
				res, err := sess.Exec(q, val.Int(0))
				if err != nil {
					t.Errorf("exec under option churn: %v", err)
					return
				}
				if encodeRows(res.Rows) != want {
					t.Error("text statement's answer changed under option churn")
					return
				}
				stmt, err := sess.Prepare(q)
				if err != nil {
					t.Errorf("prepare under option churn: %v", err)
					return
				}
				for j := 0; j < 2; j++ {
					if res, err = stmt.Query(val.Int(0)); err != nil || encodeRows(res.Rows) != want {
						t.Errorf("prepared statement under option churn: err=%v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	flips.Wait()
	if n := mustExec(t, s, `SELECT COUNT(*) FROM te`).Rows[0][0].AsInt(); n != readers*iters {
		t.Errorf("te holds %d rows after %d inserts", n, readers*iters)
	}
	if noted.Load() > readers*iters {
		t.Errorf("write hook saw %d writes, more than the %d made", noted.Load(), readers*iters)
	}
}
