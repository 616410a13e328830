package tpcd

import (
	"fmt"
	"hash/maphash"
	"strings"
	"testing"

	"r3bench/internal/engine"
	"r3bench/internal/val"
)

// TestHashSeedLeavesNoTrace: the join, GROUP BY and DISTINCT key tables hash
// with a per-process seed, and everything they feed — chains, groups, lane
// merges, partials — is walked in entry (first-seen) order, never in slot
// order. So under two different seeds Q1–Q17 at degrees 1, 2 and 8 and every
// distributable statement through QueryPartial + MergePartials (two partials
// of the same statement, merged) return byte-identical rows and charge the
// same simulated time. The database fits the pool and a first pass warms it,
// so a lap is a function of the plan alone.
func TestHashSeedLeavesNoTrace(t *testing.T) {
	db, g := loadedDB(t)
	defer func() { val.KeySeedHook = nil }()

	pass := func() string {
		var b strings.Builder
		for _, deg := range []int{1, 2, 8} {
			db.SetOptions(engine.Options{Parallel: deg})
			impl := NewRDBMS(db, g)
			m := impl.Meter()
			for q := 1; q <= 17; q++ {
				start := m.Elapsed()
				rows, err := impl.RunQuery(q)
				if err != nil {
					t.Fatalf("parallel=%d Q%d: %v", deg, q, err)
				}
				fmt.Fprintf(&b, "degree %d Q%d: %v %q\n", deg, q, m.Lap(start), encodeResult(rows))
			}
		}
		db.SetOptions(engine.Options{})
		sess := db.NewSession()
		merged := 0
		for _, q := range Queries(g.SF) {
			for _, sql := range q.SQL {
				if !strings.HasPrefix(strings.TrimSpace(sql), "SELECT") {
					continue
				}
				start := sess.Meter.Elapsed()
				var parts []*engine.Partial
				for range 2 {
					pa, err := sess.QueryPartial(sql)
					if err != nil {
						break // Q15 reads a view its first statement makes; not distributable
					}
					parts = append(parts, pa)
				}
				if len(parts) < 2 {
					continue
				}
				res, err := sess.MergePartials(parts)
				if err != nil {
					t.Fatalf("Q%d merge: %v", q.Num, err)
				}
				merged++
				fmt.Fprintf(&b, "partial Q%d: %v %q\n", q.Num, sess.Meter.Lap(start), encodeResult(res.Rows))
			}
		}
		if merged < 15 {
			t.Fatalf("only %d statements ran as partials", merged)
		}
		return b.String()
	}

	pass() // warm the pool
	var traces [2]string
	for i := range traces {
		seed := maphash.MakeSeed()
		val.KeySeedHook = func() maphash.Seed { return seed }
		traces[i] = pass()
	}
	if traces[0] != traces[1] {
		a, b := strings.Split(traces[0], "\n"), strings.Split(traces[1], "\n")
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("two hash seeds differ first at\n%.200s\n%.200s", a[i], b[i])
			}
		}
	}
}
