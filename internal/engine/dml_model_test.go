package engine

import (
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"testing"

	"r3bench/internal/storage"
	"r3bench/internal/val"
)

// modelRow is one row of M as the model keeps it: K, V and PAD by ID.
type modelRow struct {
	k      int64
	v, pad string
}

// dmlModel is the map M is checked against, and the next unused ID.
type dmlModel struct {
	rows   map[int64]modelRow
	nextID int64
}

// newRow draws a fresh row: the next ID, K in [0, 20), V in v0..v7 and a PAD
// unique to the row.
func (m *dmlModel) newRow(rng *rand.Rand) (int64, modelRow) {
	id := m.nextID
	m.nextID++
	return id, modelRow{k: rng.Int63n(20), v: fmt.Sprintf("v%d", rng.Intn(8)), pad: fmt.Sprintf("p%d", id)}
}

// where applies fn to every row pred holds for and returns how many it did.
func (m *dmlModel) where(pred func(id int64, r modelRow) bool, fn func(id int64, r modelRow)) int64 {
	var n int64
	for id, r := range m.rows {
		if pred(id, r) {
			fn(id, r)
			n++
		}
	}
	return n
}

func (m *dmlModel) update(set func(r *modelRow)) func(int64, modelRow) {
	return func(id int64, r modelRow) {
		set(&r)
		m.rows[id] = r
	}
}

func (m *dmlModel) remove(id int64, _ modelRow) { delete(m.rows, id) }

// dmlCase is one DML statement of the model test: its text, a draw of its
// parameters that also applies the statement to the model, returning the
// rows it affects there.
type dmlCase struct {
	sql  string
	draw func(rng *rand.Rand, m *dmlModel) ([]val.Value, int64)
}

var dmlCases = []dmlCase{
	{`INSERT INTO M VALUES (?, ?, ?, ?), (?, ?, ?, ?)`, func(rng *rand.Rand, m *dmlModel) ([]val.Value, int64) {
		var args []val.Value
		for i := 0; i < 2; i++ {
			id, r := m.newRow(rng)
			m.rows[id] = r
			args = append(args, val.Int(id), val.Int(r.k), val.Str(r.v), val.Str(r.pad))
		}
		return args, 2
	}},
	{`INSERT INTO M (V, ID, PAD, K) VALUES (?, ?, ?, ?)`, func(rng *rand.Rand, m *dmlModel) ([]val.Value, int64) {
		id, r := m.newRow(rng)
		m.rows[id] = r
		return []val.Value{val.Str(r.v), val.Int(id), val.Str(r.pad), val.Int(r.k)}, 1
	}},
	{`UPDATE M SET K = ?, V = ? WHERE ID = ?`, func(rng *rand.Rand, m *dmlModel) ([]val.Value, int64) {
		k, v, id := rng.Int63n(20), fmt.Sprintf("v%d", rng.Intn(8)), rng.Int63n(m.nextID+1)
		return []val.Value{val.Int(k), val.Str(v), val.Int(id)}, m.where(
			func(i int64, _ modelRow) bool { return i == id },
			m.update(func(r *modelRow) { r.k, r.v = k, v }))
	}},
	{`UPDATE M SET V = ?, K = K + 1 WHERE K = ?`, func(rng *rand.Rand, m *dmlModel) ([]val.Value, int64) {
		v, k := fmt.Sprintf("v%d", rng.Intn(8)), rng.Int63n(20)
		return []val.Value{val.Str(v), val.Int(k)}, m.where(
			func(_ int64, r modelRow) bool { return r.k == k },
			m.update(func(r *modelRow) { r.v, r.k = v, r.k+1 }))
	}},
	{`UPDATE M SET PAD = ? WHERE V = ? AND K < ?`, func(rng *rand.Rand, m *dmlModel) ([]val.Value, int64) {
		pad, v, k := fmt.Sprintf("q%d", rng.Intn(1000)), fmt.Sprintf("v%d", rng.Intn(8)), rng.Int63n(5)
		return []val.Value{val.Str(pad), val.Str(v), val.Int(k)}, m.where(
			func(_ int64, r modelRow) bool { return r.v == v && r.k < k },
			m.update(func(r *modelRow) { r.pad = pad }))
	}},
	{`DELETE FROM M WHERE ID = ?`, func(rng *rand.Rand, m *dmlModel) ([]val.Value, int64) {
		id := rng.Int63n(m.nextID + 1)
		return []val.Value{val.Int(id)}, m.where(func(i int64, _ modelRow) bool { return i == id }, m.remove)
	}},
	{`DELETE FROM M WHERE K = ? AND V = ?`, func(rng *rand.Rand, m *dmlModel) ([]val.Value, int64) {
		k, v := rng.Int63n(20), fmt.Sprintf("v%d", rng.Intn(8))
		return []val.Value{val.Int(k), val.Str(v)}, m.where(func(_ int64, r modelRow) bool { return r.k == k && r.v == v }, m.remove)
	}},
	{`DELETE FROM M WHERE PAD = ?`, func(rng *rand.Rand, m *dmlModel) ([]val.Value, int64) {
		pad := fmt.Sprintf("p%d", rng.Int63n(m.nextID+1))
		return []val.Value{val.Str(pad)}, m.where(func(_ int64, r modelRow) bool { return r.pad == pad }, m.remove)
	}},
	{`DELETE FROM M WHERE ID >= ? AND ID < ?`, func(rng *rand.Rand, m *dmlModel) ([]val.Value, int64) {
		lo := rng.Int63n(m.nextID + 1)
		hi := lo + rng.Int63n(6)
		return []val.Value{val.Int(lo), val.Int(hi)}, m.where(func(i int64, _ modelRow) bool { return i >= lo && i < hi }, m.remove)
	}},
}

// TestPreparedDMLAgainstModel runs seeded sequences of INSERT (multi-row, and
// through a reordered column list), UPDATE (of the indexed K, by primary key,
// by K and by an unindexed predicate) and DELETE (by primary key, by the
// secondary index, by an unindexed column, by a key range), each one prepared
// or ad hoc at random, against a map that models the table. Between them come
// CREATE INDEX and DROP INDEX on K and V, DROP TABLE followed by CREATE TABLE,
// and crash recovery — at the log's end or cut back to a random earlier
// commit —, on a 16-page pool under WAL. After every statement the table holds
// exactly the model's rows and every index one entry per row. The prepared
// statements are prepared once and outlive all of it: what a statement keeps
// from one execution to the next has to notice every catalog change.
func TestPreparedDMLAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runDMLModel(t, seed) })
	}
}

func runDMLModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	db := Open(Config{BufferBytes: 16 * storage.PageSize})
	s := db.NewSession()
	const create = `CREATE TABLE M (ID INTEGER PRIMARY KEY, K INTEGER, V CHAR(12), PAD CHAR(150))`
	mustExec(t, s, create)
	w := db.EnableWAL(4)
	m := &dmlModel{rows: map[int64]modelRow{}}
	indexes := map[string]string{"M_K": "K", "M_V": "V"}
	built := map[string]bool{}

	// commits are the states a crash cut back to a commit recovers: the log
	// offset after each statement since M was created, with the model then.
	type commit struct {
		lsn  int64
		rows map[int64]modelRow
	}
	var commits []commit
	committed := func() { commits = append(commits, commit{w.Size(), maps.Clone(m.rows)}) }

	check := func(what string) {
		t.Helper()
		tab := db.Table("M")
		got := 0
		err := tab.Heap.Scan(nil, func(_ storage.RID, row []val.Value) error {
			got++
			id := row[0].AsInt()
			r := modelRow{k: row[1].AsInt(), v: strings.TrimRight(row[2].AsStr(), " "), pad: strings.TrimRight(row[3].AsStr(), " ")}
			if want, ok := m.rows[id]; !ok || r != want {
				return fmt.Errorf("row %d is %+v, the model has %+v (%v)", id, r, want, ok)
			}
			return nil
		})
		if err == nil && got != len(m.rows) {
			err = fmt.Errorf("%d rows, the model has %d", got, len(m.rows))
		}
		if err == nil && tab.Heap.Rows() != int64(got) {
			err = fmt.Errorf("Heap.Rows() = %d for %d rows", tab.Heap.Rows(), got)
		}
		for _, ix := range tab.Indexes {
			if err == nil && ix.Tree.Entries() != tab.Heap.Rows() {
				err = fmt.Errorf("index %s has %d entries for %d rows", ix.Name, ix.Tree.Entries(), tab.Heap.Rows())
			}
		}
		if err != nil {
			t.Fatalf("seed %d, after %s: %v", seed, what, err)
		}
	}
	load := func(n int) {
		t.Helper()
		var vals []string
		for i := 0; i < n; i++ {
			id, r := m.newRow(rng)
			m.rows[id] = r
			vals = append(vals, fmt.Sprintf("(%d, %d, '%s', '%s')", id, r.k, r.v, r.pad))
			if len(vals) == 50 || i == n-1 {
				mustExec(t, s, `INSERT INTO M VALUES `+strings.Join(vals, ", "))
				vals = vals[:0]
				committed()
			}
		}
		check(fmt.Sprintf("loading %d rows", n))
	}
	committed()
	load(1200)
	if pages := db.Table("M").Heap.Pages(); pages <= 16 {
		t.Fatalf("fixture too small: %d pages against a 16-page pool", pages)
	}

	stmts := make([]*Stmt, len(dmlCases))
	for i, c := range dmlCases {
		st, err := s.Prepare(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		stmts[i] = st
	}
	for step := 0; step < 400; step++ {
		switch p := rng.Intn(100); {
		case p < 8:
			name := []string{"M_K", "M_V"}[p%2]
			sql := fmt.Sprintf(`CREATE INDEX %s ON M (%s)`, name, indexes[name])
			if built[name] {
				sql = `DROP INDEX ` + name
			}
			mustExec(t, s, sql)
			built[name] = !built[name]
			check(sql)
		case p < 10:
			mustExec(t, s, `DROP TABLE M`)
			c := rng.Intn(len(dmlCases))
			if _, err := stmts[c].Query(val.Int(1), val.Int(1), val.Str("v"), val.Str("p")); err == nil || !strings.Contains(err.Error(), "M") {
				t.Fatalf("seed %d: %q with its table dropped returned %v, want an error naming M", seed, dmlCases[c].sql, err)
			}
			mustExec(t, s, create)
			m.rows, built, commits = map[int64]modelRow{}, map[string]bool{}, nil
			committed()
			load(800 + rng.Intn(400))
		case p < 14:
			cut := int64(-1)
			if back := rng.Intn(40); back < min(20, len(commits)) {
				i := len(commits) - 1 - back
				cut, m.rows, commits = commits[i].lsn, maps.Clone(commits[i].rows), commits[:i+1]
			}
			if _, err := db.CrashRecover(cut, nil); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("crash recovery cut at %d", cut))
		default:
			c := rng.Intn(len(dmlCases))
			args, want := dmlCases[c].draw(rng, m)
			var res *Result
			var err error
			how := "prepared"
			if rng.Intn(2) == 0 {
				res, err = stmts[c].Query(args...)
			} else {
				how = "ad hoc"
				res, err = s.Exec(dmlCases[c].sql, args...)
			}
			if err != nil {
				t.Fatalf("seed %d, step %d, %s %q %v: %v", seed, step, how, dmlCases[c].sql, args, err)
			}
			if res.RowsAffected != want {
				t.Fatalf("seed %d, step %d, %s %q %v: %d rows affected, the model %d", seed, step, how, dmlCases[c].sql, args, res.RowsAffected, want)
			}
			committed()
			check(fmt.Sprintf("step %d, %s %q %v", step, how, dmlCases[c].sql, args))
		}
	}
}
