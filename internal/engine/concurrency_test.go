package engine

import (
	"fmt"
	"sync"
	"testing"

	"r3bench/internal/sqlparse"
	"r3bench/internal/val"
)

// TestParseCacheEpochRace is the dedicated -race exercise for the parse
// cache's atomic (plan, epoch) publication: reader sessions hammer the
// same statement text (hitting the fingerprint cache and racing the
// cached-plan load) while writer sessions insert rows, each changing the
// row count the readers' plan was costed with. Every reader must see
// correct, current results.
func TestParseCacheEpochRace(t *testing.T) {
	db := Open(Config{})
	setup := db.NewSession()
	mustExec(t, setup, `CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER)`)
	for i := 0; i < 64; i++ {
		mustExec(t, setup, `INSERT INTO t VALUES (?, ?)`, val.Int(int64(i)), val.Int(int64(i%8)))
	}

	const readers, writers, iters = 4, 2, 200
	var wg sync.WaitGroup
	errs := make(chan error, readers+writers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			for i := 0; i < iters; i++ {
				res, err := s.Query(`SELECT COUNT(*) FROM t WHERE b >= 0`)
				if err != nil {
					errs <- err
					return
				}
				if n := res.Rows[0][0].AsInt(); n < 64 {
					errs <- fmt.Errorf("reader saw %d rows, below the 64 floor", n)
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.NewSession()
			for i := 0; i < iters; i++ {
				id := int64(1000 + w*iters + i)
				if _, err := s.Exec(`INSERT INTO t VALUES (?, ?)`, val.Int(id), val.Int(id%8)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiesced: the next lookup of the hot statement must reflect every
	// committed write (a wrongly fresh plan would carry stale row
	// estimates, and a broken entry would miscount).
	s := db.NewSession()
	res := mustExec(t, s, `SELECT COUNT(*) FROM t WHERE b >= 0`)
	want := int64(64 + writers*iters)
	if got := res.Rows[0][0].AsInt(); got != want {
		t.Fatalf("post-race count = %d, want %d", got, want)
	}
}

// TestEntryPlanAtomicSwap pins the single-swap semantics: a store under
// an old epoch is never served under a new one, and invalidation is
// immediate.
func TestEntryPlanAtomicSwap(t *testing.T) {
	e := &parseEntry{}
	p := &selectPlan{}
	e.storePlan(p, 7)
	if e.cachedPlan(7, nil) != p {
		t.Fatal("plan not served under its own epoch")
	}
	if e.cachedPlan(8, nil) != nil {
		t.Fatal("stale plan served under a newer epoch")
	}
	e.invalidatePlan()
	if e.cachedPlan(7, nil) != nil {
		t.Fatal("invalidated plan still served")
	}
}

// TestCachedPlansUnderConcurrentWrites: two sessions run ad hoc SELECTs
// over t, at degree 2, while a third inserts into t past page boundaries
// (and past the width at which a scan of t splits over two workers) and
// creates and drops a view none of them reads. Each reader's counts never
// go back; once the writer is done, every statement counts every row and
// is served the plan that planning it afresh gives.
func TestCachedPlansUnderConcurrentWrites(t *testing.T) {
	db := Open(Config{Parallel: 2})
	setup := db.NewSession()
	mustExec(t, setup, `CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER, pad CHAR(200))`)
	mustExec(t, setup, `CREATE TABLE u (b INTEGER PRIMARY KEY, name CHAR(10))`)
	for i := 0; i < 8; i++ {
		mustExec(t, setup, `INSERT INTO u VALUES (?, 'u')`, val.Int(int64(i)))
	}
	queries := []string{
		`SELECT COUNT(*) FROM t`,
		`SELECT COUNT(*) FROM t, u WHERE t.b = u.b`,
		`SELECT COUNT(*) FROM u, t WHERE u.b = t.b AND t.a >= 0`,
	}
	const rows = 700 // 19 pages of t
	var wg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, 3)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			last := make([]int64, len(queries))
			for {
				select {
				case <-done:
					return
				default:
				}
				for i, q := range queries {
					res, err := s.Exec(q)
					if err != nil {
						errs <- err
						return
					}
					n := res.Rows[0][0].AsInt()
					if n < last[i] {
						errs <- fmt.Errorf("%s: %d rows after %d", q, n, last[i])
						return
					}
					last[i] = n
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		s := db.NewSession()
		exec := func(sql string, args ...val.Value) bool {
			if _, err := s.Exec(sql, args...); err != nil {
				errs <- err
				return false
			}
			return true
		}
		for i := 0; i < rows; i++ {
			if !exec(`INSERT INTO t VALUES (?, ?, 'pad')`, val.Int(int64(i)), val.Int(int64(i%8))) ||
				i%50 == 25 && !exec(`CREATE VIEW v AS SELECT name FROM u`) ||
				i%50 == 49 && !exec(`DROP VIEW v`) {
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s := db.NewSession()
	for _, q := range queries {
		if n := mustExec(t, s, q).Rows[0][0].AsInt(); n != rows {
			t.Errorf("%s after the writer: %d rows, want %d", q, n, rows)
		}
		got, err := s.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		ast, _ := db.Parse(q)
		fresh, err := db.planSelect(ast.(*sqlparse.SelectStmt), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := fresh.explainString(); got != want {
			t.Errorf("%s after the writer is served\n%s planning it afresh gives\n%s", q, got, want)
		}
	}
	if db.Stats().PlanHits == 0 {
		t.Error("no SELECT was served a cached plan")
	}
}

// TestSessionSharedAcrossGoroutines drives one Session object from many
// goroutines at once: the Meter is internally locked and the session
// itself carries no other mutable state, so concurrent use must be safe
// and every charge must land on the shared meter.
func TestSessionSharedAcrossGoroutines(t *testing.T) {
	db := Open(Config{})
	setup := db.NewSession()
	mustExec(t, setup, `CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER)`)
	for i := 0; i < 32; i++ {
		mustExec(t, setup, `INSERT INTO t VALUES (?, ?)`, val.Int(int64(i)), val.Int(int64(i)))
	}
	shared := db.NewSession()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				res, err := shared.Query(`SELECT COUNT(*) FROM t`)
				if err != nil {
					errs <- err
					return
				}
				if res.Rows[0][0].AsInt() != 32 {
					errs <- fmt.Errorf("wrong count %v", res.Rows[0][0])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if shared.Meter.Elapsed() <= 0 {
		t.Fatal("shared meter recorded no elapsed time")
	}
}

// TestConcurrentDDLAndQueries races view/index DDL against readers: each
// reader pins a catalog snapshot per statement, so every query either
// sees a table completely or not at all — never a half-published one.
func TestConcurrentDDLAndQueries(t *testing.T) {
	db := Open(Config{})
	setup := db.NewSession()
	mustExec(t, setup, `CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER)`)
	for i := 0; i < 64; i++ {
		mustExec(t, setup, `INSERT INTO t VALUES (?, ?)`, val.Int(int64(i)), val.Int(int64(i%4)))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			for i := 0; i < 100; i++ {
				res, err := s.Query(`SELECT COUNT(*) FROM t WHERE b = 1`)
				if err != nil {
					errs <- err
					return
				}
				if res.Rows[0][0].AsInt() != 16 {
					errs <- fmt.Errorf("count = %v", res.Rows[0][0])
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := db.NewSession()
		for i := 0; i < 25; i++ {
			if _, err := s.Exec(`CREATE INDEX t_b ON t (b)`); err != nil {
				errs <- err
				return
			}
			if _, err := s.Exec(`DROP INDEX t_b`); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentPreparedDMLWithIndexDDL races two sessions' prepared DML,
// each on keys of its own, against a third session that creates and drops an
// index on t, so that the plans the statements on t keep between executions
// go stale under them again and again, while those on u see the catalog move
// and keep theirs. Every execution must succeed, and the rows come out as a
// serial run leaves them, with one primary-key entry per row. DDL is not
// serialized against statements in flight: a row inserted while CREATE INDEX
// scans can miss the new index, for a prepared statement as for an ad hoc
// one. So the writers delete only from u and never change t_c's column.
func TestConcurrentPreparedDMLWithIndexDDL(t *testing.T) {
	db := Open(Config{})
	mustExec(t, db.NewSession(), `CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER, c INTEGER)`)
	mustExec(t, db.NewSession(), `CREATE TABLE u (a INTEGER PRIMARY KEY)`)
	const writers, each = 2, 150
	var wg sync.WaitGroup
	errs := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.NewSession()
			var stmts []*Stmt
			for _, sql := range []string{`INSERT INTO t VALUES (?, 0, ?)`, `UPDATE t SET b = ? WHERE a = ?`,
				`INSERT INTO u VALUES (?)`, `DELETE FROM u WHERE a = ?`} {
				st, err := s.Prepare(sql)
				if err != nil {
					errs <- err
					return
				}
				stmts = append(stmts, st)
			}
			for i := int64(0); i < each; i++ {
				a := int64(w*each) + i
				_, err := stmts[0].Query(val.Int(a), val.Int(a))
				if err == nil {
					_, err = stmts[1].Query(val.Int(a%7), val.Int(a))
				}
				if err == nil {
					_, err = stmts[2].Query(val.Int(a))
				}
				if err == nil && i%3 == 0 {
					_, err = stmts[3].Query(val.Int(a))
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	ddl := make(chan struct{})
	go func() {
		defer close(ddl)
		s := db.NewSession()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, sql := range []string{`CREATE INDEX t_c ON t (c)`, `DROP INDEX t_c`} {
				if _, err := s.Exec(sql); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-ddl
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s := db.NewSession()
	rows := mustExec(t, s, `SELECT a, b, c FROM t ORDER BY a`).Rows
	kept := mustExec(t, s, `SELECT a FROM u ORDER BY a`).Rows
	if len(rows) != writers*each {
		t.Fatalf("t holds %d rows, want %d", len(rows), writers*each)
	}
	k := 0
	for a := int64(0); a < writers*each; a++ {
		if r := rows[a]; r[0].AsInt() != a || r[1].AsInt() != a%7 || r[2].AsInt() != a {
			t.Fatalf("row %d of t is %v", a, r)
		}
		if a%each%3 == 0 {
			continue
		}
		if k >= len(kept) || kept[k][0].AsInt() != a {
			t.Fatalf("u keeps %v, missing %d", kept, a)
		}
		k++
	}
	for _, c := range []struct {
		table string
		rows  int
	}{{"T", len(rows)}, {"U", len(kept)}} {
		tab := db.Table(c.table)
		if n := tab.Indexes[0].Tree.Entries(); n != tab.Heap.Rows() || n != int64(c.rows) {
			t.Fatalf("%s: %d primary-key entries, %d heap rows, %d rows read", c.table, n, tab.Heap.Rows(), c.rows)
		}
	}
	if len(kept) != k {
		t.Fatalf("u holds %d rows, want %d", len(kept), k)
	}
}

// TestRewriteHookRaceLeavesPlanStale pins the order planFor reads the plan
// epoch and the rewrite hook in. A SetRewriteHook that lands after a compile
// has run the old hook must leave the plan that hook rewrote stale; the
// hook here removes itself from inside its own call, the tightest such
// interleaving. The first execution is rewritten to b; once the hook is
// gone the same text must answer from a again, not from a cached b plan.
func TestRewriteHookRaceLeavesPlanStale(t *testing.T) {
	db := Open(Config{})
	s := db.NewSession()
	for _, name := range []string{"a", "b"} {
		mustExec(t, s, `CREATE TABLE `+name+` (k INTEGER PRIMARY KEY, v CHAR(4))`)
		mustExec(t, s, `INSERT INTO `+name+` VALUES (1, '`+name+`')`)
	}
	db.SetRewriteHook(func(sel *sqlparse.SelectStmt) *sqlparse.SelectStmt {
		db.SetRewriteHook(nil)
		rw := *sel
		rw.From = []sqlparse.TableRef{&sqlparse.BaseTable{Name: "B"}}
		return &rw
	})
	const q = `SELECT v FROM a`
	if got := mustExec(t, s, q).Rows[0][0].AsStr(); got != "b" {
		t.Fatalf("rewritten execution read %q, want b", got)
	}
	for i := 0; i < 2; i++ {
		if got := mustExec(t, s, q).Rows[0][0].AsStr(); got != "a" {
			t.Fatalf("execution %d after the hook removed itself read %q, want a", i+2, got)
		}
	}
}
