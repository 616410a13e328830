package engine

import (
	"fmt"
	stdruntime "runtime"
	"runtime/debug"
	"testing"

	"r3bench/internal/race"
	"r3bench/internal/val"
)

// pick returns an expectation that keeps the given columns of every row of
// the SELECT * form.
func pick(cols ...int) func([][]val.Value) [][]val.Value {
	return func(star [][]val.Value) [][]val.Value {
		out := make([][]val.Value, len(star))
		for i, r := range star {
			for _, c := range cols {
				out[i] = append(out[i], r[c])
			}
		}
		return out
	}
}

// neededColumnsCases: a narrow query, its SELECT * form (same FROM, WHERE
// and ORDER BY, every column read), and how the narrow result follows from
// the star rows. tt is (id, grp, v, pad), dim is (g_id, g_name).
var neededColumnsCases = []struct {
	name, narrow, star string
	expect             func(star [][]val.Value) [][]val.Value
}{
	{
		name:   "outer column read only by a correlated EXISTS",
		narrow: `SELECT g_name FROM dim WHERE EXISTS (SELECT id FROM tt WHERE grp = g_id AND id < 3) ORDER BY g_name`,
		star:   `SELECT * FROM dim WHERE EXISTS (SELECT * FROM tt WHERE grp = g_id AND id < 3) ORDER BY g_name`,
		expect: pick(1),
	},
	{
		name:   "outer column read only by a correlated scalar sub-block",
		narrow: `SELECT g_name, (SELECT COUNT(*) FROM tt WHERE grp = g_id) FROM dim ORDER BY g_name`,
		star:   `SELECT *, (SELECT COUNT(*) FROM tt WHERE grp = g_id) FROM dim ORDER BY g_name`,
		expect: pick(1, 2),
	},
	{
		name:   "ORDER BY on an unselected column",
		narrow: `SELECT id FROM tt WHERE grp = 1 ORDER BY v DESC, id`,
		star:   `SELECT * FROM tt WHERE grp = 1 ORDER BY v DESC, id`,
		expect: pick(0),
	},
	{
		name:   "t.* beside expressions",
		narrow: `SELECT d.*, t.v * 2 FROM tt t, dim d WHERE t.grp = d.g_id AND t.id < 40 ORDER BY t.id`,
		star:   `SELECT * FROM tt t, dim d WHERE t.grp = d.g_id AND t.id < 40 ORDER BY t.id`,
		expect: func(star [][]val.Value) [][]val.Value {
			out := make([][]val.Value, len(star))
			for i, r := range star {
				out[i] = []val.Value{r[4], r[5], val.Float(r[2].AsFloat() * 2)}
			}
			return out
		},
	},
	{
		name:   "LEFT OUTER JOIN: ON column and NULL extension",
		narrow: `SELECT t.id, d.g_name FROM tt t LEFT OUTER JOIN dim d ON t.grp = d.g_id AND d.g_id < 2 WHERE t.id < 70 ORDER BY t.id`,
		star:   `SELECT * FROM tt t LEFT OUTER JOIN dim d ON t.grp = d.g_id AND d.g_id < 2 WHERE t.id < 70 ORDER BY t.id`,
		expect: pick(0, 5),
	},
	{
		name:   "HAVING on a column that is not projected",
		narrow: `SELECT grp, COUNT(*) FROM tt WHERE v > 500 GROUP BY grp HAVING MAX(id) > 1497 ORDER BY grp`,
		star:   `SELECT * FROM tt WHERE v > 500 ORDER BY grp, id`,
		expect: func(star [][]val.Value) [][]val.Value {
			var out [][]val.Value
			for i := 0; i < len(star); {
				j := i
				for j < len(star) && star[j][1] == star[i][1] {
					j++
				}
				if star[j-1][0].AsInt() > 1497 { // rows are in id order within the group
					out = append(out, []val.Value{star[i][1], val.Int(int64(j - i))})
				}
				i = j
			}
			return out
		},
	},
	{
		name:   "view over a pruned scan",
		narrow: `SELECT n FROM tt_by_grp ORDER BY g`,
		star:   `SELECT * FROM tt_by_grp ORDER BY g`,
		expect: pick(2),
	},
	{
		name:   "derived table against the base rows",
		narrow: `SELECT g, hi FROM tt_by_grp WHERE n > 0 ORDER BY g`,
		star:   `SELECT * FROM tt ORDER BY grp, id`,
		expect: func(star [][]val.Value) [][]val.Value {
			var out [][]val.Value
			for i, r := range star {
				if i+1 == len(star) || star[i+1][1] != r[1] {
					out = append(out, []val.Value{r[1], r[0]}) // the group's last id is its MAX
				}
			}
			return out
		},
	},
	{
		name:   "IN-subquery",
		narrow: `SELECT id FROM tt WHERE grp IN (SELECT g_id FROM dim WHERE g_name = 'GROUP2') AND id < 50 ORDER BY id`,
		star:   `SELECT * FROM tt WHERE grp IN (SELECT g_id FROM dim WHERE g_name = 'GROUP2') AND id < 50 ORDER BY id`,
		expect: pick(0),
	},
	// The layout's edge cases: a frame has slots for the columns read only,
	// so a relation can be zero slots wide, one table two different widths,
	// and one slot read from two depths.
	{
		name:   "no column read at all",
		narrow: `SELECT COUNT(*) FROM tt`,
		star:   `SELECT * FROM tt`,
		expect: countOf,
	},
	{
		name:   "two relations, no column read of either",
		narrow: `SELECT COUNT(*) FROM tt, dim`,
		star:   `SELECT * FROM tt, dim`,
		expect: countOf,
	},
	{
		name:   "LEFT OUTER JOIN whose right side nobody reads",
		narrow: `SELECT t.id FROM tt t LEFT OUTER JOIN dim d ON t.grp < 2 WHERE t.id < 70 ORDER BY t.id`,
		star:   `SELECT * FROM tt t LEFT OUTER JOIN dim d ON t.grp < 2 WHERE t.id < 70 ORDER BY t.id`,
		expect: pick(0),
	},
	{
		name:   "one table under two aliases reading different columns",
		narrow: `SELECT a.pad, b.v FROM tt a, tt b WHERE a.id = b.grp AND b.id < 40 ORDER BY b.id`,
		star:   `SELECT * FROM tt a, tt b WHERE a.id = b.grp AND b.id < 40 ORDER BY b.id`,
		expect: pick(3, 6),
	},
	{
		name:   "one column read by the block and by its correlated sub-block",
		narrow: `SELECT g_id, (SELECT COUNT(*) FROM tt WHERE grp = g_id) FROM dim WHERE g_id > 0 ORDER BY g_id`,
		star:   `SELECT *, (SELECT COUNT(*) FROM tt WHERE grp = g_id) FROM dim WHERE g_id > 0 ORDER BY g_id`,
		expect: pick(0, 2),
	},
	{
		name:   "derived relation of which one output column is read",
		narrow: `SELECT hi FROM tt_by_grp`,
		star:   `SELECT * FROM tt_by_grp`,
		expect: pick(3),
	},
	{
		name:   "derived relation joined on one column, another projected",
		narrow: `SELECT d.g_name, x.n FROM dim d, tt_by_grp x WHERE x.g = d.g_id ORDER BY d.g_name`,
		star:   `SELECT * FROM dim d, tt_by_grp x WHERE x.g = d.g_id ORDER BY d.g_name`,
		expect: pick(1, 4),
	},
	// One case per column role: a column read at its relation's own step (a
	// pushed filter, an ON filter, a build key) is a scan column, one read
	// after it (a probe key, a residual filter, a correlated sub-block, the
	// sink) an output column, and a column can be both.
	{
		name:   "a column read only by a pushed filter",
		narrow: `SELECT id FROM tt WHERE v > 900 ORDER BY id`,
		star:   `SELECT * FROM tt WHERE v > 900 ORDER BY id`,
		expect: pick(0),
	},
	{
		name:   "a column read only as a build key",
		narrow: `SELECT a.id, b.v FROM tt a, tt b WHERE a.grp = b.grp AND a.id < 20 AND b.id < 300 ORDER BY a.id, b.v`,
		star:   `SELECT * FROM tt a, tt b WHERE a.grp = b.grp AND a.id < 20 AND b.id < 300 ORDER BY a.id, b.v`,
		expect: pick(0, 6),
	},
	{
		name:   "a column read by both a filter and the output",
		narrow: `SELECT id, v FROM tt WHERE v > 900 ORDER BY id`,
		star:   `SELECT * FROM tt WHERE v > 900 ORDER BY id`,
		expect: pick(0, 2),
	},
	{
		name:   "a column read only by a hash join's residual filter",
		narrow: `SELECT a.id, b.id FROM tt a, tt b WHERE a.grp = b.grp AND a.v < b.v - 990 AND a.id < 300 AND b.id < 300 ORDER BY a.id, b.id`,
		star:   `SELECT * FROM tt a, tt b WHERE a.grp = b.grp AND a.v < b.v - 990 AND a.id < 300 AND b.id < 300 ORDER BY a.id, b.id`,
		expect: pick(0, 4),
	},
	{
		name:   "a build key read again by a correlated sub-block, as Q17's p_partkey",
		narrow: `SELECT a.id, b.v FROM tt a, tt b WHERE a.grp = b.grp AND a.id < 20 AND b.id < 300 AND b.v > (SELECT AVG(x.v) FROM tt x WHERE x.grp = b.grp AND x.id < 40) ORDER BY a.id, b.v`,
		star:   `SELECT * FROM tt a, tt b WHERE a.grp = b.grp AND a.id < 20 AND b.id < 300 AND b.v > (SELECT AVG(x.v) FROM tt x WHERE x.grp = b.grp AND x.id < 40) ORDER BY a.id, b.v`,
		expect: pick(0, 6),
	},
	{
		name:   "LEFT OUTER JOIN: a column read only by ON",
		narrow: `SELECT t.id, d.g_id FROM tt t LEFT OUTER JOIN dim d ON t.grp = d.g_id AND d.g_name <> 'GROUP1' WHERE t.id < 70 ORDER BY t.id`,
		star:   `SELECT * FROM tt t LEFT OUTER JOIN dim d ON t.grp = d.g_id AND d.g_name <> 'GROUP1' WHERE t.id < 70 ORDER BY t.id`,
		expect: pick(0, 4),
	},
	{
		name:   "LEFT OUTER JOIN: ON joins two relations bound before it",
		narrow: `SELECT a.id, d.g_name FROM tt a JOIN tt b ON a.id = b.id LEFT OUTER JOIN dim d ON a.v = b.v AND d.g_id = b.grp WHERE a.id < 70 AND b.id < 70 ORDER BY a.id`,
		star:   `SELECT * FROM tt a JOIN tt b ON a.id = b.id LEFT OUTER JOIN dim d ON a.v = b.v AND d.g_id = b.grp WHERE a.id < 70 AND b.id < 70 ORDER BY a.id`,
		expect: pick(0, 9),
	},
	{
		name:   "one table under two aliases, a key and a filter column on one side",
		narrow: `SELECT a.v FROM tt a, tt b WHERE a.grp = b.id AND b.v > 100 AND a.id < 100 ORDER BY a.v`,
		star:   `SELECT * FROM tt a, tt b WHERE a.grp = b.id AND b.v > 100 AND a.id < 100 ORDER BY a.v`,
		expect: pick(2),
	},
	{
		name:   "SELECT * with a filter",
		narrow: `SELECT * FROM tt t, dim d WHERE t.grp = d.g_id AND d.g_name <> 'GROUP2' AND t.v < 300 ORDER BY t.id`,
		star:   `SELECT * FROM tt t, dim d WHERE t.grp = d.g_id AND d.g_name <> 'GROUP2' AND t.v < 300 ORDER BY t.id`,
		expect: pick(0, 1, 2, 3, 4, 5),
	},
}

// countOf is the expectation of a COUNT(*) over the SELECT * form's rows.
func countOf(star [][]val.Value) [][]val.Value {
	return [][]val.Value{{val.Int(int64(len(star)))}}
}

// TestNeededColumns is the metamorphic check on column pruning. There is
// no switch that turns pruning off to compare against; instead each narrow
// query must return exactly what its SELECT * form — which reads every
// column — returns in the matching columns. Every case runs serially, on 2
// and on 8 lanes, and through QueryPartial/MergePartials.
func TestNeededColumns(t *testing.T) {
	s := vecDB(t, 1500, 0)
	mustExec(t, s, `CREATE VIEW tt_by_grp AS SELECT grp AS g, SUM(v) AS total, COUNT(*) AS n, MAX(id) AS hi FROM tt GROUP BY grp`)
	for _, degree := range []int{1, 2, 8} {
		s.db.SetOptions(Options{Parallel: degree})
		for _, c := range neededColumnsCases {
			want := encodeRows(c.expect(mustExec(t, s, c.star).Rows))
			if want == "" {
				t.Fatalf("%s: the SELECT * form returned nothing", c.name)
			}
			if got := encodeRows(mustExec(t, s, c.narrow).Rows); got != want {
				t.Errorf("degree %d, %s: narrow result differs from its SELECT * form", degree, c.name)
			}
			pa, err := s.QueryPartial(c.narrow)
			if err != nil {
				t.Fatalf("degree %d, %s: QueryPartial: %v", degree, c.name, err)
			}
			res, err := s.MergePartials([]*Partial{pa})
			if err != nil {
				t.Fatalf("degree %d, %s: MergePartials: %v", degree, c.name, err)
			}
			if got := encodeRows(res.Rows); got != want {
				t.Errorf("degree %d, %s: partial result differs from the SELECT * form", degree, c.name)
			}
		}
	}
	if s.db.Stats().ParallelRuns == 0 {
		t.Errorf("no case engaged parallel lanes")
	}
}

// dmlDB builds u(id, k, x, y, note) with a secondary index on k; y and
// note are in no index.
func dmlDB(t *testing.T) (*DB, *Session) {
	t.Helper()
	db := Open(Config{})
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE u (id INTEGER PRIMARY KEY, k INTEGER, x INTEGER, y INTEGER, note CHAR(10))`)
	mustExec(t, s, `CREATE INDEX u_k ON u (k)`)
	for i := 0; i < 200; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO u VALUES (%d, %d, 0, %d, 'n%d')`, i, i%10, 1000+i, i))
	}
	return db, s
}

// TestUpdateReadsUnreferencedColumn: UPDATE's match scan keeps every
// column, so SET x = y sees y although neither the WHERE clause nor an
// index mentions it, and the untouched columns are written back intact.
func TestUpdateReadsUnreferencedColumn(t *testing.T) {
	_, s := dmlDB(t)
	if n := mustExec(t, s, `UPDATE u SET x = y WHERE k = 3`).RowsAffected; n != 20 {
		t.Fatalf("updated %d rows, want 20", n)
	}
	for _, r := range mustExec(t, s, `SELECT id, k, x, y, note FROM u ORDER BY id`).Rows {
		id := r[0].AsInt()
		wantX := int64(0)
		if id%10 == 3 {
			wantX = 1000 + id
		}
		if r[1].AsInt() != id%10 || r[2].AsInt() != wantX || r[3].AsInt() != 1000+id || r[4].AsStr() != fmt.Sprintf("n%d", id) {
			t.Fatalf("row %d after update: %v", id, r)
		}
	}
}

// TestDeleteMaintainsIndexesFromFullRow: DELETE's match scan keeps every
// column too — the index entries of the deleted rows are found from their
// key columns, and the write hook is handed the full old row.
func TestDeleteMaintainsIndexesFromFullRow(t *testing.T) {
	db, s := dmlDB(t)
	var old [][]val.Value
	var chars val.Slab // a hook that keeps rows owns their bytes
	db.SetWriteHook(func(_ string, oldRow, newRow []val.Value) {
		if newRow == nil {
			kept := append([]val.Value(nil), oldRow...)
			chars.Own(kept)
			old = append(old, kept)
		}
	})
	if n := mustExec(t, s, `DELETE FROM u WHERE note = 'n17' OR y = 1042`).RowsAffected; n != 2 {
		t.Fatalf("deleted %d rows, want 2", n)
	}
	if n := mustExec(t, s, `DELETE FROM u WHERE k = 3`).RowsAffected; n != 20 {
		t.Fatalf("deleted %d rows, want 20", n)
	}
	u := db.Table("U")
	for _, ix := range u.Indexes {
		if ix.Tree.Entries() != u.Heap.Rows() {
			t.Errorf("index %s has %d entries for %d rows", ix.Name, ix.Tree.Entries(), u.Heap.Rows())
		}
	}
	if len(old) != 22 {
		t.Fatalf("write hook saw %d deletes, want 22", len(old))
	}
	for _, r := range old {
		id := r[0].AsInt()
		if len(r) != 5 || r[1].AsInt() != id%10 || r[2].AsInt() != 0 || r[3].AsInt() != 1000+id || r[4].AsStr() != fmt.Sprintf("n%d", id) {
			t.Errorf("write hook got old row %v", r)
		}
	}
}

// kibPerRun is the KiB fn allocates per call, averaged over n calls after a
// first one that fills the caches.
func kibPerRun(n int, fn func()) float64 {
	var before, after stdruntime.MemStats
	fn()
	stdruntime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	stdruntime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n) / 1024
}

// TestAllocationBudget is the tier-1 guard on allocation, per row and per
// call, in allocations and in bytes. It measures with the collector off: a
// session holds the scratch its statements cut their frames and projection
// slabs from and take their hash tables from only weakly between them, and a
// collection in the middle of a measurement would have the next execution
// size a scratch again. Per row: a Q6- and a Q1-shaped statement, a hash
// join that builds on tt and a scan that filters on a CHAR column, over the
// golden fixture's 1500 rows, may allocate about twice what they do today:
// 26, 43, 35 and 26 times per execution (parse, plan, groups; 36, 53, 77 and
// 36 while every statement backed its frames and built its hash tables on
// the heap; the Q6 and Q1 shapes 43 and 103 while every group's exact SUM
// and AVG made a big.Float, the Q1 shape 118 while each of its 4 groups made
// its output row, its keys and its sort key apart) and 2.6, 9.6, 3.0 and 2.6
// KiB (43, 50, 22 and 33 KiB on the heap; the budgets were 332, 352, 362 and
// 246). One allocation per scanned or built row would be 1500 more — which
// is what the CHAR filter cost (1537) while decoding a CHAR made a string of
// it — and frames and build rows as wide as the catalog's rows instead of
// the columns read were 200, 212, 1044 and 200 KiB: tt has four columns, a
// TPC-D table sixteen. The join's build rows hold the build side's output
// columns only — none: b.grp is read only as the build key — and its frames
// drop that key once it is built; while they held every column read it
// allocated 95 times and 298 KiB. A SELECT * over a join view read alone
// streams the view's 1500 rows into its own scan: 45 allocations and 6.4
// KiB (78 and 37 KiB on the heap), where a copy of the view before the scan
// cost 949 KiB. On a session of its own, the second ad hoc execution of a
// hash join whose build rows carry a CHAR and of a GROUP BY over a hash join
// finds the frames and tables the first one sized: 4.1 and 6.3 KiB, where
// it allocated what the first did, 159 and 26 KiB, while they came from the
// heap. So does, at parallel degree 2, the second execution of a hash join
// whose build side is scanned in partitions and of a GROUP BY whose lanes
// each group their partition: 5.2 and 3.8 KiB, where they allocated 240 and
// 40 KiB while a lane's partition table, frames, slabs and accumulator came
// from the heap. A distinct join key, group or DISTINCT value costs no allocation of its own —
// its bytes go into the key table's slab (val.KeyTable), its state into a slab
// row — so 700 more of them may cost 0.05 allocations each (0.01 today: slabs
// and slots double), where a string per key in a Go map cost 1, 7 and 3. So
// may 700 more rows an ORDER BY sorts, or groups a GROUP BY sorts: the sort
// keys go into one buffer and the group rows into one slab (0.001 and 0.014
// today; 3 and 5 while each row's key grew a slice of its own and each group
// made its row and its keys apart). So may 700 more groups of a float SUM
// and AVG (0.02 today; 6 while each group's exact sum was a big.Float, 3
// allocations a sum) or of a COUNT(DISTINCT) (0.03 today: its values go into
// one key table and one slab per accumulator; 6 while each group made a set
// of its own), and 700 more outer rows of an index nested-loop join (0.00;
// 1 while each outer frame made the closure its matches went to) or of a
// correlated scalar subquery that hash-joins as Q2's does (0.00; 37 while
// each outer row built its hash table, accumulator, group slabs and result
// rows afresh). pad gets a multi-byte value first: Go allocates
// nothing for the one-byte string the fixture stores, which would hide a
// scan that copies it. A row that is
// materialised into a Result costs 0.01 allocations: its values are carved
// from chunks that double up to 1 024 values, its CHAR bytes go into a slab
// chunk, however many CHAR columns it has (1.01 while each row's values were
// a slice of their own, one more per CHAR column before that); so a
// 1 000-row Query allocates 50 times and 211 KiB (1 038 times and 192 KiB
// with a slice per row), and 500 more rows may cost 0.05 allocations each. Per call: a prepared primary-key lookup
// allocates 5 times and 0.33 KiB to return its row (6 times and 0.47 KiB
// while its index probe put the B-tree iterator on the heap, 9 times and
// 0.98 KiB when every execution backed its two frames and its projection
// slab afresh,
// 27 times and 26 KiB when it built its run state and a 64-frame batch), and a
// correlated EXISTS costs its outer block no allocation per outer row, so
// 1 000 more outer rows may cost 0.05 each (0.006 today; 2 while the probe
// made a closure and its flag per row, 16 while it made a run state, 3
// while its index probe put the iterator on the heap). A prepared DML
// statement keeps its plan and its match scan's run
// state: a one-row INSERT, a one-row UPDATE by primary key and a DELETE of 4
// rows by a key range allocate 3, 9 and 8 times (the INSERT and the DELETE 4
// and 12 while each B-tree write built its entry key on the heap; the UPDATE
// and the DELETE 10 and 13 while the match scan's probe put its iterator on
// the heap; 14, 79 and 89 while every execution compiled its VALUES or
// planned its match scan afresh).
func TestAllocationBudget(t *testing.T) {
	s := vecDB(t, 1500, 0)
	mustExec(t, s, `UPDATE tt SET pad = 'padding'`)
	mustExec(t, s, `CREATE VIEW tt_dim AS SELECT t.id, t.grp, t.v, t.pad, d.g_name FROM tt t, dim d WHERE t.grp = d.g_id`)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range []struct {
		q           string
		budget, kib float64
	}{
		{`SELECT SUM(v * grp) FROM tt WHERE v > 100 AND id < 1400`, 52, 6},
		{`SELECT grp, COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM tt WHERE id < 1400 GROUP BY grp ORDER BY grp`, 86, 20},
		{`SELECT COUNT(*) FROM tt a, tt b WHERE a.id = b.grp AND a.id < 1400`, 70, 6},
		{`SELECT COUNT(*) FROM tt WHERE pad = 'padding' AND id < 1400`, 52, 6},
		{`SELECT * FROM tt_dim WHERE v > 990`, 90, 14},
		{`SELECT id, v, pad FROM tt WHERE id < 1000`, 100, 422},
	} {
		stdruntime.GC()
		if n := testing.AllocsPerRun(10, func() { mustExec(t, s, c.q) }); !race.Enabled && n > c.budget {
			t.Errorf("%q allocates %.0f times per execution, budget %.0f", c.q, n, c.budget)
		}
		if kib := kibPerRun(10, func() { mustExec(t, s, c.q) }); kib > c.kib {
			t.Errorf("%q allocates %.1f KiB per execution, budget %.0f", c.q, kib, c.kib)
		}
	}
	for _, c := range []struct {
		q   string
		kib float64
	}{
		{`SELECT COUNT(*), MAX(b.pad) FROM tt a, tt b WHERE a.v = b.v AND a.id < 1400`, 8},
		{`SELECT d.g_name, COUNT(*), SUM(a.v) FROM tt a, dim d WHERE a.grp = d.g_id GROUP BY d.g_name ORDER BY 1`, 13},
	} {
		fresh := s.db.NewSession()
		if kib := kibPerRun(1, func() { mustExec(t, fresh, c.q) }); kib > c.kib {
			t.Errorf("the second execution of %q on a session allocates %.1f KiB, budget %.0f", c.q, kib, c.kib)
		}
	}
	s.db.SetOptions(Options{Parallel: 2})
	for _, c := range []struct {
		q   string
		kib float64
	}{
		{`SELECT COUNT(*), MAX(b.pad) FROM tt a, tt b WHERE a.v = b.v AND a.id < 1400`, 11},
		{`SELECT grp, COUNT(*), SUM(v), MAX(pad) FROM tt WHERE id < 1400 GROUP BY grp ORDER BY grp`, 9},
	} {
		fresh := s.db.NewSession()
		runs := s.db.Stats().ParallelRuns
		if kib := kibPerRun(1, func() { mustExec(t, fresh, c.q) }); kib > c.kib {
			t.Errorf("at degree 2, the second execution of %q on a session allocates %.1f KiB, budget %.0f", c.q, kib, c.kib)
		}
		if s.db.Stats().ParallelRuns != runs+2 {
			t.Fatalf("fixture: %q ran on parallel lanes %d times of 2", c.q, s.db.Stats().ParallelRuns-runs)
		}
	}
	s.db.SetOptions(Options{})

	for _, q := range []string{
		`SELECT COUNT(*) FROM tt a, tt b WHERE a.id = b.id AND b.id < %d`,
		`SELECT id, COUNT(*) FROM tt WHERE id < %d GROUP BY id HAVING COUNT(*) > 1`, // no group becomes a row
		`SELECT COUNT(DISTINCT id) FROM tt WHERE id < %d`,
		`SELECT id, v FROM tt WHERE id < %d ORDER BY v DESC, id LIMIT 3`,                 // a sort key per row
		`SELECT id, MAX(v) FROM tt WHERE id < %d GROUP BY id ORDER BY 2 DESC, 1 LIMIT 3`, // a row and a sort key per group
		`SELECT id, SUM(v), AVG(v) FROM tt WHERE id < %d GROUP BY id HAVING SUM(v) < 0`,  // an exact sum per group
		`SELECT id, COUNT(DISTINCT v) FROM tt WHERE id < %d GROUP BY id HAVING COUNT(DISTINCT v) > 1`,
		`SELECT COUNT(*) FROM tt a, tt b WHERE b.id = a.grp AND a.id < %d AND a.pad LIKE 'pad%%'`,                                                          // index nested-loop join per outer row
		`SELECT COUNT(*) FROM tt a WHERE a.id < %d AND a.v = (SELECT MIN(b.v) FROM dim d, tt b WHERE b.grp = d.g_id AND b.id >= a.id AND b.id < a.id + 4)`, // Q2's correlated hash join per outer row
	} {
		stdruntime.GC()
		keys := func(n int) float64 {
			return testing.AllocsPerRun(10, func() { mustExec(t, s, fmt.Sprintf(q, n)) })
		}
		if perKey := (keys(1400) - keys(700)) / 700; !race.Enabled && perKey > 0.05 {
			t.Errorf("%q allocates %.3f times per distinct key, sorted row, group or outer row, budget 0.05", q, perKey)
		}
	}

	materialise := func(rows int) float64 {
		q := fmt.Sprintf(`SELECT id, pad, pad, pad FROM tt WHERE id < %d`, rows)
		return testing.AllocsPerRun(10, func() { mustExec(t, s, q) })
	}
	if perRow := (materialise(1000) - materialise(500)) / 500; !race.Enabled && perRow > 0.05 {
		t.Errorf("a materialised result row allocates %.3f times, budget 0.05", perRow)
	}

	pk, err := s.Prepare(`SELECT * FROM tt WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	lookup := func() {
		if res, err := pk.Query(val.Int(7)); err != nil || len(res.Rows) != 1 {
			t.Fatalf("%v, %v", res, err)
		}
	}
	if n := testing.AllocsPerRun(100, lookup); !race.Enabled && n > 10 {
		t.Errorf("a prepared primary-key lookup allocates %.0f times, budget 10", n)
	}
	if kib := kibPerRun(1000, lookup); kib > 1 {
		t.Errorf("a prepared primary-key lookup allocates %.2f KiB, budget 1", kib)
	}

	exists, err := s.Prepare(`SELECT COUNT(*) FROM tt a WHERE a.id < ? AND EXISTS (SELECT b.id FROM tt b WHERE b.id = a.id AND b.pad = 'padding')`)
	if err != nil {
		t.Fatal(err)
	}
	outer := func(n int64) float64 {
		return testing.AllocsPerRun(10, func() {
			if res, err := exists.Query(val.Int(n)); err != nil || res.Rows[0][0].AsInt() != n {
				t.Fatalf("%v, %v", res, err)
			}
		})
	}
	if perRow := (outer(1010) - outer(10)) / 1000; !race.Enabled && perRow > 0.05 {
		t.Errorf("a correlated EXISTS allocates %.3f times per outer row, budget 0.05", perRow)
	}

	next, lo := int64(10000), int64(0)
	for _, c := range []struct {
		sql    string
		args   func() []val.Value
		rows   int64
		budget float64
	}{
		{`INSERT INTO tt VALUES (?, ?, ?, 'padding')`, func() []val.Value {
			next++
			return []val.Value{val.Int(next - 1), val.Int(next % 4), val.Float(1.5)}
		}, 1, 6},
		{`UPDATE tt SET v = v + ? WHERE id = ?`, func() []val.Value { return []val.Value{val.Float(1), val.Int(10000)} }, 1, 18},
		{`DELETE FROM tt WHERE id >= ? AND id < ?`, func() []val.Value {
			lo += 4
			return []val.Value{val.Int(lo - 4), val.Int(lo)}
		}, 4, 16},
	} {
		st, err := s.Prepare(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(100, func() {
			if res, err := st.Query(c.args()...); err != nil || res.RowsAffected != c.rows {
				t.Fatalf("%q: %v, %v", c.sql, res, err)
			}
		})
		if !race.Enabled && n > c.budget {
			t.Errorf("a prepared %q allocates %.0f times, budget %.0f", c.sql, n, c.budget)
		}
	}
}

// TestIndexMaintenanceAllocatesNothing: an INSERT and a DELETE maintain
// every index of their table with keys built on the stack, so a table with
// two secondary indexes allocates no more per prepared insert and delete
// than one with its primary key alone: 5 times each, where they allocated 13
// and 7 times while each index entry made its key on the heap.
func TestIndexMaintenanceAllocatesNothing(t *testing.T) {
	db := Open(Config{})
	s := db.NewSession()
	perPair := func(table string, indexes ...string) float64 {
		mustExec(t, s, `CREATE TABLE `+table+` (id INTEGER PRIMARY KEY, grp INTEGER, name CHAR(20))`)
		for _, ix := range indexes {
			mustExec(t, s, ix)
		}
		// Rows that stay, so that no index empties and drops its leaf.
		for i := 0; i < 100; i++ {
			mustExec(t, s, fmt.Sprintf(`INSERT INTO %s VALUES (%d, %d, 'customer %05d')`, table, -1-i, i%7, i))
		}
		ins, err := s.Prepare(`INSERT INTO ` + table + ` VALUES (?, ?, ?)`)
		if err != nil {
			t.Fatal(err)
		}
		del, err := s.Prepare(`DELETE FROM ` + table + ` WHERE id = ?`)
		if err != nil {
			t.Fatal(err)
		}
		args := []val.Value{val.Int(0), val.Int(0), val.Str("customer 00042")}
		next := int64(0)
		return testing.AllocsPerRun(100, func() {
			next++
			args[0], args[1] = val.Int(next), val.Int(next%7)
			if res, err := ins.Query(args...); err != nil || res.RowsAffected != 1 {
				t.Fatalf("insert: %v, %v", res, err)
			}
			if res, err := del.Query(args[0]); err != nil || res.RowsAffected != 1 {
				t.Fatalf("delete: %v, %v", res, err)
			}
		})
	}
	bare := perPair(`bare`)
	indexed := perPair(`indexed`, `CREATE INDEX indexed_grp ON indexed (grp)`, `CREATE INDEX indexed_name ON indexed (name)`)
	if !race.Enabled && indexed > bare {
		t.Errorf("an insert and a delete allocate %.2f times with two secondary indexes, %.2f without", indexed, bare)
	}
}
