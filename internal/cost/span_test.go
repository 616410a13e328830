package cost

import (
	"strings"
	"testing"
)

func TestSpanChargeAttribution(t *testing.T) {
	m := NewMeter(Default1996())
	root := NewSpan("root")
	a := root.Child("a")
	b := root.Child("b")

	m.SetSpan(a)
	m.Charge(TupleCPU, 10)
	m.SetSpan(b)
	m.Charge(RandRead, 2)
	m.SetSpan(nil)
	m.Charge(TupleCPU, 99) // unattributed: no current span

	if a.Events(TupleCPU) != 10 || b.Events(RandRead) != 2 {
		t.Errorf("event counts: a=%d b=%d", a.Events(TupleCPU), b.Events(RandRead))
	}
	wantA := m.Model().PerEvent[TupleCPU] * 10
	if a.Elapsed() != wantA {
		t.Errorf("a elapsed %v, want %v", a.Elapsed(), wantA)
	}
	if total := root.Total(); total != a.Elapsed()+b.Elapsed() {
		t.Errorf("root total %v != %v + %v", total, a.Elapsed(), b.Elapsed())
	}
}

func TestSpanLaneChildrenExcludedFromTotal(t *testing.T) {
	m := NewMeter(Default1996())
	par := NewSpan("parallel")
	lane0 := par.LaneChild("worker 0")
	lane1 := par.LaneChild("worker 1")

	// Two lanes overlap: each records its own detail, but the region's
	// cost is the max, credited by AddParallel to the current span.
	w0 := NewMeter(m.Model())
	w0.Charge(SeqRead, 100)
	w1 := NewMeter(m.Model())
	w1.Charge(SeqRead, 60)
	lw0 := NewMeter(m.Model())
	lw0.SetSpan(lane0)
	lw0.Charge(SeqRead, 100)
	lw1 := NewMeter(m.Model())
	lw1.SetSpan(lane1)
	lw1.Charge(SeqRead, 60)

	m.SetSpan(par)
	m.AddParallel(w0, w1)
	m.SetSpan(nil)

	if !lane0.Lane() || lane1.Elapsed() == 0 {
		t.Fatal("lane children must record per-lane detail")
	}
	// Total must equal the max lane, not the sum: lane children are
	// excluded; the AddParallel credit carries the region's cost.
	if par.Total() != m.Elapsed() {
		t.Errorf("parallel span total %v != meter elapsed %v", par.Total(), m.Elapsed())
	}
	if par.Total() != w0.Elapsed() {
		t.Errorf("parallel total %v, want max lane %v", par.Total(), w0.Elapsed())
	}
}

func TestSpanAddSumCreditsCurrent(t *testing.T) {
	m := NewMeter(Default1996())
	s := NewSpan("batch")
	w := NewMeter(m.Model())
	w.Charge(Check, 5)
	m.SetSpan(s)
	m.AddSum(w)
	m.SetSpan(nil)
	if s.Total() != w.Elapsed() {
		t.Errorf("AddSum credited %v, want %v", s.Total(), w.Elapsed())
	}
	if s.Events(Check) != 5 {
		t.Errorf("AddSum events = %d, want 5", s.Events(Check))
	}
}

func TestSpanRender(t *testing.T) {
	m := NewMeter(Default1996())
	root := NewSpan("statement")
	scan := root.Child("scan LINEITEM")
	m.SetSpan(scan)
	m.Charge(SeqRead, 3)
	m.SetSpan(nil)
	scan.AddRows(42)

	out := root.Render(m.Model())
	for _, want := range []string{"statement", "scan LINEITEM", "rows=42", "seq-read"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestMeterLap(t *testing.T) {
	m := NewMeter(Default1996())
	m.Charge(TupleCPU, 7)
	start := m.Elapsed()
	m.Charge(RandRead, 1)
	if lap := m.Lap(start); lap != m.Model().PerEvent[RandRead] {
		t.Errorf("lap = %v, want %v", lap, m.Model().PerEvent[RandRead])
	}
}
