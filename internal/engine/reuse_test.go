package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"r3bench/internal/val"
)

// TestIndexRIDsSurvivePageReuse holds the heap's RID rule (DESIGN.md §12):
// a RID a statement got from an index names its row or a dead slot until
// the statement ends, never another row, although the heap stores new rows
// in the pages deletes empty. Rows fill a page each, so every delete
// empties one. Two writers each keep a sliding window of live keys —
// insert the next key, delete the oldest — so that pages empty and are
// refilled all the time; readers meanwhile run prepared range lookups at
// the windows' oldest keys, the next to go, and point and equality lookups
// through the primary key and a secondary index. Every row a reader gets
// must satisfy its predicate, be the row its key says (G and PAD are
// functions of K), and, on a range scan, come in key order. A heap that
// refilled a page before the statements that were running when it was
// listed had ended hands a reader a newer row at a RID its index probe
// found for an older key.
func TestIndexRIDsSurvivePageReuse(t *testing.T) {
	const (
		writers = 2
		window  = 64   // live keys per writer, a page each
		ops     = 2500 // inserts (and deletes) per writer
		groups  = 16
	)
	db := Open(Config{})
	setup := db.NewSession()
	mustExec(t, setup, `CREATE TABLE R (K INTEGER PRIMARY KEY, G INTEGER, PAD CHAR(8000))`)
	mustExec(t, setup, `CREATE INDEX R_G ON R (G)`)
	pad := func(k int64) string { return fmt.Sprintf("row %d", k) }
	// Writer w owns keys w*1e6, w*1e6+1, ...; tail[w] is its oldest live one.
	key := func(w, i int) int64 { return int64(w)*1_000_000 + int64(i) }
	var tail [writers]atomic.Int64
	check := func(row []val.Value) error {
		k := row[0].AsInt()
		if g := row[1].AsInt(); g != k%groups {
			return fmt.Errorf("row K=%d has G=%d, want %d", k, g, k%groups)
		}
		if p := strings.TrimRight(row[2].AsStr(), " "); p != pad(k) {
			return fmt.Errorf("row K=%d has PAD %q, want %q", k, p, pad(k))
		}
		return nil
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 2*writers+2)
	fail := func(err error) {
		errs <- err
		done.Store(true)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.NewSession()
			ins, err := s.Prepare(`INSERT INTO R VALUES (?, ?, ?)`)
			if err != nil {
				fail(err)
				return
			}
			del, err := s.Prepare(`DELETE FROM R WHERE K = ?`)
			if err != nil {
				fail(err)
				return
			}
			for i := 0; i < ops && !done.Load(); i++ {
				k := key(w, i)
				if _, err := ins.Query(val.Int(k), val.Int(k%groups), val.Str(pad(k))); err != nil {
					fail(err)
					return
				}
				if i >= window {
					if _, err := del.Query(val.Int(key(w, i-window))); err != nil {
						fail(err)
						return
					}
					tail[w].Store(int64(i - window + 1))
				}
			}
		}(w)
	}
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			s := db.NewSession()
			point, err := s.Prepare(`SELECT K, G, PAD FROM R WHERE K = ?`)
			if err != nil {
				fail(err)
				return
			}
			span, err := s.Prepare(`SELECT K, G, PAD FROM R WHERE K BETWEEN ? AND ?`)
			if err != nil {
				fail(err)
				return
			}
			group, err := s.Prepare(`SELECT K, G, PAD FROM R WHERE G = ?`)
			if err != nil {
				fail(err)
				return
			}
			for i := 0; !done.Load(); i++ {
				w := (r + i) % writers
				lo := key(w, int(tail[w].Load()))
				hi := lo + 8
				res, err := span.Query(val.Int(lo), val.Int(hi))
				if err != nil {
					fail(err)
					return
				}
				prev := lo - 1
				for _, row := range res.Rows {
					k := row[0].AsInt()
					if k <= prev || k > hi {
						fail(fmt.Errorf("K BETWEEN %d AND %d returned K=%d after K=%d", lo, hi, k, prev))
						return
					}
					prev = k
					if err := check(row); err != nil {
						fail(err)
						return
					}
				}
				g := int64(i % groups)
				if res, err = group.Query(val.Int(g)); err != nil {
					fail(err)
					return
				}
				for _, row := range res.Rows {
					if row[1].AsInt() != g {
						fail(fmt.Errorf("G = %d returned G=%d", g, row[1].AsInt()))
						return
					}
					if err := check(row); err != nil {
						fail(err)
						return
					}
				}
				if len(res.Rows) > 0 {
					k := res.Rows[len(res.Rows)/2][0].AsInt()
					if res, err = point.Query(val.Int(k)); err != nil {
						fail(err)
						return
					}
					for _, row := range res.Rows {
						if row[0].AsInt() != k {
							fail(fmt.Errorf("K = %d returned K=%d", k, row[0].AsInt()))
							return
						}
						if err := check(row); err != nil {
							fail(err)
							return
						}
					}
				}
			}
		}(r)
	}
	wg.Wait()
	done.Store(true)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The writers' windows never hold more than 2×64 rows, a page each, and
	// a heap that reused nothing would have grown to 5000 pages. What lies
	// between is the pages still in their grace period when the next insert
	// came: a few hundred, while the readers' statements overlap.
	if n := db.Table("R").Heap.Pages(); n > writers*ops/4 {
		t.Errorf("the heap grew to %d pages: emptied pages were not reused", n)
	}
}
