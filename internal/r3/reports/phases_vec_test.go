package reports

import (
	"testing"

	"r3bench/internal/r3"
)

// TestPhaseAttributionReconcilesArrayFetch re-runs the exact phase
// reconciliation with the array-fetch interface on and off: packet-
// granular row shipping moves interface cost around (one RowShipBatch
// charge per packet instead of one RowShip per row), but every simulated
// nanosecond must still land in exactly one phase. The suite runs both
// settings on the same systems so the toggles also prove they leave no
// residue.
func TestPhaseAttributionReconcilesArrayFetch(t *testing.T) {
	g, _, sys2, sys3 := fixtures(t)
	cases := []struct {
		sys      *r3.System
		strategy Strategy
	}{
		{sys2, Open22},
		{sys3, Native30},
		{sys3, Open30},
	}
	for _, arrayFetch := range []bool{true, false} {
		for _, c := range cases {
			func() {
				defer apply(c.sys, func(o *r3.Options) { o.Engine.ArrayFetch = arrayFetch })()
				impl := New(c.sys, g, c.strategy)
				ph := impl.EnablePhases()
				m := impl.Meter()
				start := m.Elapsed()
				for qn := 1; qn <= 17; qn++ {
					if _, err := impl.RunQuery(qn); err != nil {
						t.Fatalf("arrayFetch=%v %s Q%d: %v", arrayFetch, c.strategy, qn, err)
					}
					if total, lap := ph.Root.Total(), m.Lap(start); total != lap {
						t.Errorf("arrayFetch=%v %s Q%d: phase total %v != meter lap %v",
							arrayFetch, c.strategy, qn, total, lap)
					}
				}
			}()
		}
	}
}

// TestArrayFetchReducesReportCost pins the direction of the array
// interface on a row-shipping-heavy strategy: the Open SQL 2.2 suite —
// which ships every qualifying tuple to the application server — must
// get cheaper when rows travel in packets, with identical results.
func TestArrayFetchReducesReportCost(t *testing.T) {
	g, _, sys2, _ := fixtures(t)
	run := func(arrayFetch bool) int64 {
		defer apply(sys2, func(o *r3.Options) { o.Engine.ArrayFetch = arrayFetch })()
		impl := New(sys2, g, Open22)
		m := impl.Meter()
		start := m.Elapsed()
		for qn := 1; qn <= 17; qn++ {
			if _, err := impl.RunQuery(qn); err != nil {
				t.Fatalf("arrayFetch=%v Q%d: %v", arrayFetch, qn, err)
			}
		}
		return int64(m.Lap(start))
	}
	perRow := run(false)
	packets := run(true)
	if packets >= perRow {
		t.Errorf("array fetch suite cost %d not below per-row %d", packets, perRow)
	}
}
