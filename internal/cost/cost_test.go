package cost

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMeterCharging(t *testing.T) {
	m := NewMeter(Default1996())
	m.Charge(RandRead, 10)
	m.Charge(SeqRead, 5)
	want := 10*8*time.Millisecond + 5*time.Millisecond
	if got := m.Elapsed(); got != want {
		t.Errorf("Elapsed = %v, want %v", got, want)
	}
	if m.Count(RandRead) != 10 || m.Count(SeqRead) != 5 {
		t.Error("event counts wrong")
	}
	if m.ByKind(RandRead) != 80*time.Millisecond {
		t.Errorf("ByKind(RandRead) = %v", m.ByKind(RandRead))
	}
	m.Charge(Check, 0) // zero is a no-op
	if m.Count(Check) != 0 {
		t.Error("zero charge must not count")
	}
}

// priced returns Σ_k Count(k) × PerEvent[k] and Σ_k ByKind(k) of m.
func priced(m *Meter) (counts, byKind time.Duration) {
	model := m.Model()
	for k := Kind(0); k < NumKinds; k++ {
		counts += time.Duration(m.Count(k)) * model.PerEvent[k]
		byKind += m.ByKind(k)
	}
	return counts, byKind
}

// TestTimeIsCountsTimesPrices: every charge is a count of events, so a
// serial meter's Elapsed is its counts priced, to the nanosecond — also
// for the helpers that turn a size into events (a sort's comparisons, an
// exchange's packets). Under AddParallel elapsed is the slowest lane's,
// while counts and ByKind are the lanes' sums.
func TestTimeIsCountsTimesPrices(t *testing.T) {
	model := Default1996()
	a := NewMeter(model)
	ChargeComparisons(a, 1000, 1000) // ⌊1000·log₂1000⌋ = 9965
	ChargeComparisons(a, 1, 8)       // one row compares nothing
	ChargeComparisons(a, 64, 4)      // 128
	a.Charge(Optimize, 1)
	if got := a.Count(SortCPU); got != 9965+128 {
		t.Errorf("SortCPU count = %d, want %d", got, 9965+128)
	}
	b := NewMeter(model)
	if packets := ChargeNetShip(b, 250); packets != 3 || b.Count(NetPacket) != 3 || b.Count(NetShip) != 250 {
		t.Errorf("ChargeNetShip(250) = %d packets, counts NetPacket %d NetShip %d; want 3, 3, 250",
			packets, b.Count(NetPacket), b.Count(NetShip))
	}
	b.Charge(Check, 62)
	for _, w := range []*Meter{a, b} {
		if counts, byKind := priced(w); w.Elapsed() != counts || byKind != counts {
			t.Errorf("Elapsed %v, counts priced %v, Σ ByKind %v: want all equal", w.Elapsed(), counts, byKind)
		}
	}
	if got, want := b.ByKind(Check), 1798*time.Millisecond; got != want {
		t.Errorf("a 0.62 dialog = %v, want %v", got, want)
	}

	m := NewMeter(model)
	m.AddParallel(a, b)
	if got, want := m.Elapsed(), max(a.Elapsed(), b.Elapsed()); got != want {
		t.Errorf("AddParallel elapsed = %v, want the slowest lane's %v", got, want)
	}
	for k := Kind(0); k < NumKinds; k++ {
		if m.Count(k) != a.Count(k)+b.Count(k) || m.ByKind(k) != a.ByKind(k)+b.ByKind(k) {
			t.Errorf("AddParallel %v = %d/%v, want the sums %d/%v", k, m.Count(k), m.ByKind(k),
				a.Count(k)+b.Count(k), a.ByKind(k)+b.ByKind(k))
		}
	}
	if counts, _ := priced(m); counts != a.Elapsed()+b.Elapsed() {
		t.Errorf("AddParallel counts priced %v, want the lanes' sum %v", counts, a.Elapsed()+b.Elapsed())
	}
}

func TestUniformIOAblation(t *testing.T) {
	u := Default1996().UniformIO()
	if u.PerEvent[RandRead] != u.PerEvent[SeqRead] {
		t.Error("UniformIO must equalise read costs")
	}
	if Default1996().PerEvent[RandRead] == Default1996().PerEvent[SeqRead] {
		t.Error("default model must distinguish random from sequential")
	}
}

func TestMeterConcurrency(t *testing.T) {
	m := NewMeter(Default1996())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Charge(TupleCPU, 1)
			}
		}()
	}
	wg.Wait()
	if m.Count(TupleCPU) != 8000 {
		t.Errorf("concurrent charges lost: %d", m.Count(TupleCPU))
	}
}

func TestFmtPaperStyle(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{5*time.Minute + 17*time.Second, "5m 17s"},
		{34 * time.Second, "34s"},
		{2*time.Hour + 14*time.Minute + 56*time.Second, "2h 14m 56s"},
		{25*24*time.Hour + 19*time.Hour + 55*time.Minute, "25d 19h 55m"},
		{250 * time.Millisecond, "250ms"},
		{0, "0ms"},
		{-2 * time.Second, "-2s"},
		{time.Minute + 5*time.Second, "1m 05s"},
	}
	for _, c := range cases {
		if got := Fmt(c.d); got != c.want {
			t.Errorf("Fmt(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestBreakdown(t *testing.T) {
	m := NewMeter(Default1996())
	m.Charge(RandRead, 100)
	m.Charge(TupleCPU, 10)
	b := m.Breakdown()
	if !strings.Contains(b, "rand-read") || !strings.Contains(b, "tuple-cpu") {
		t.Errorf("Breakdown missing rows:\n%s", b)
	}
	if strings.Contains(b, "check") {
		t.Error("Breakdown must omit zero rows")
	}
	// Largest contributor first.
	if strings.Index(b, "rand-read") > strings.Index(b, "tuple-cpu") {
		t.Error("Breakdown must sort by contribution")
	}
}

func TestKindString(t *testing.T) {
	if SeqRead.String() != "seq-read" || Commit.String() != "commit" {
		t.Error("kind names wrong")
	}
	if got := Kind(99).String(); got != "kind(99)" {
		t.Errorf("out of range kind = %q", got)
	}
}

func TestAddParallel(t *testing.T) {
	model := Default1996()
	w1 := NewMeter(model)
	w1.Charge(SeqRead, 100) // 100 ms
	w1.Charge(TupleCPU, 10)
	w2 := NewMeter(model)
	w2.Charge(SeqRead, 40) // 40 ms: the faster worker
	w2.Charge(RandRead, 2) // +16 ms

	m := NewMeter(model)
	m.Charge(Commit, 1) // pre-existing 15 ms on the session clock
	before := m.Elapsed()
	m.AddParallel(w1, w2)

	// Elapsed advances by the slowest worker only.
	if got, want := m.Elapsed()-before, w1.Elapsed(); got != want {
		t.Errorf("elapsed advanced %v, want slowest worker %v", got, want)
	}
	// Resources and event counts sum across workers.
	if m.Count(SeqRead) != 140 || m.Count(RandRead) != 2 || m.Count(TupleCPU) != 10 {
		t.Errorf("event counts not summed: SeqRead=%d RandRead=%d TupleCPU=%d",
			m.Count(SeqRead), m.Count(RandRead), m.Count(TupleCPU))
	}
	if got, want := m.ByKind(SeqRead), 140*time.Millisecond; got != want {
		t.Errorf("ByKind(SeqRead) = %v, want %v", got, want)
	}
}

func TestAddSum(t *testing.T) {
	model := Default1996()
	a := NewMeter(model)
	a.Charge(SeqRead, 3)
	b := NewMeter(model)
	b.Charge(SeqRead, 4)
	b.Charge(Commit, 1)

	m := NewMeter(model)
	m.AddSum(a, b)
	if got, want := m.Elapsed(), a.Elapsed()+b.Elapsed(); got != want {
		t.Errorf("Elapsed = %v, want serial sum %v", got, want)
	}
	if m.Count(SeqRead) != 7 || m.Count(Commit) != 1 {
		t.Errorf("counts not summed: SeqRead=%d Commit=%d", m.Count(SeqRead), m.Count(Commit))
	}
}
