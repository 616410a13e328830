package reports

import (
	"testing"

	"r3bench/internal/r3"
)

// TestPhaseAttributionReconciles attaches a phase set to each strategy
// and runs the full query suite at serial and parallel degrees. After
// every query the phase tree's total must equal — exactly — the meter
// time elapsed since attachment: every simulated nanosecond a report
// spends is attributed to translate, DB or client-side work, with
// nothing counted twice and nothing dropped, even when the back end
// engages parallel workers.
func TestPhaseAttributionReconciles(t *testing.T) {
	g, _, sys2, sys3 := fixtures(t)
	cases := []struct {
		sys      *r3.System
		strategy Strategy
	}{
		{sys2, Native22},
		{sys2, Open22},
		{sys3, Native30},
		{sys3, Open30},
	}
	for _, degree := range []int{1, 2, 8} {
		for _, c := range cases {
			func() {
				defer apply(c.sys, func(o *r3.Options) { o.Engine.Parallel = degree })()
				impl := New(c.sys, g, c.strategy)
				ph := impl.EnablePhases()
				m := impl.Meter()
				start := m.Elapsed()
				for qn := 1; qn <= 17; qn++ {
					if _, err := impl.RunQuery(qn); err != nil {
						t.Fatalf("deg %d %s Q%d: %v", degree, c.strategy, qn, err)
					}
					if total, lap := ph.Root.Total(), m.Lap(start); total != lap {
						t.Errorf("deg %d %s Q%d: phase total %v != meter lap %v",
							degree, c.strategy, qn, total, lap)
					}
				}
				if ph.DB.Total() == 0 {
					t.Errorf("deg %d %s: no DB-phase time attributed", degree, c.strategy)
				}
				// Native 3.0 is pure EXEC SQL — nothing translates. Every
				// other strategy goes through Open SQL somewhere (Native 2.2
				// reads KONV with nested Open SQL selects).
				if c.strategy != Native30 && ph.Translate.Total() == 0 {
					t.Errorf("deg %d %s: no translate-phase time attributed", degree, c.strategy)
				}
			}()
		}
	}
}

// TestPhaseShapeOpenVsNative pins the paper's qualitative split: Open
// SQL 2.2 does real client-side work (application-server grouping,
// post-filtering of encapsulated rows), so its client share of total
// time must exceed Native 3.0's, which pushes everything down.
func TestPhaseShapeOpenVsNative(t *testing.T) {
	g, _, sys2, sys3 := fixtures(t)
	share := func(sys *r3.System, st Strategy) float64 {
		impl := New(sys, g, st)
		ph := impl.EnablePhases()
		for qn := 1; qn <= 17; qn++ {
			if _, err := impl.RunQuery(qn); err != nil {
				t.Fatalf("%s Q%d: %v", st, qn, err)
			}
		}
		total := ph.Root.Total()
		if total == 0 {
			t.Fatalf("%s: no time attributed", st)
		}
		return float64(ph.Client.Total()) / float64(total)
	}
	open22 := share(sys2, Open22)
	native30 := share(sys3, Native30)
	if open22 <= native30 {
		t.Errorf("client-side share: Open 2.2 %.3f should exceed Native 3.0 %.3f", open22, native30)
	}
}
