package cost

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestLanesRun(t *testing.T) {
	model := Default1996()

	// Every lane runs once, on its own meter.
	l := NewLanes(model, 4)
	var calls [4]atomic.Int32
	err := l.Run(func(i int, m *Meter) error {
		calls[i].Add(1)
		if m != l[i] {
			t.Errorf("lane %d got another lane's meter", i)
		}
		m.Charge(SeqRead, int64(i+1))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Errorf("lane %d ran %d times, want 1", i, n)
		}
		if got := l[i].Count(SeqRead); got != int64(i+1) {
			t.Errorf("lane %d meter counted %d, want %d", i, got, i+1)
		}
	}

	// Lane 0 fails at once; lane 1 is still waiting for it to return. Run
	// must wait for lane 1 anyway, so no lane outlives it. (The sleep only
	// widens the window in which a Run that did not wait would return.)
	lane0Failed := errors.New("lane 0")
	exited := make(chan struct{})
	var lane1Done atomic.Bool
	err = NewLanes(model, 2).Run(func(i int, _ *Meter) error {
		if i == 0 {
			defer close(exited)
			return lane0Failed
		}
		<-exited
		time.Sleep(10 * time.Millisecond)
		lane1Done.Store(true)
		return nil
	})
	if err != lane0Failed {
		t.Errorf("Run = %v, want lane 0's error", err)
	}
	if !lane1Done.Load() {
		t.Error("Run returned before lane 1 finished")
	}

	// Lane 2 fails first, lane 1 after it: the error is lane 1's.
	errs := []error{nil, errors.New("lane 1"), errors.New("lane 2")}
	failed2 := make(chan struct{})
	err = NewLanes(model, 3).Run(func(i int, _ *Meter) error {
		switch i {
		case 1:
			<-failed2
		case 2:
			defer close(failed2)
		}
		return errs[i]
	})
	if err != errs[1] {
		t.Errorf("Run = %v, want the lowest failing lane's %v", err, errs[1])
	}

	// No lanes: nothing runs. Lanes made with make hand out nil meters.
	for _, l := range []Lanes{nil, NewLanes(model, 0)} {
		if err := l.Run(func(int, *Meter) error { t.Error("a lane ran"); return nil }); err != nil {
			t.Errorf("Run over no lanes = %v", err)
		}
	}
	var ran atomic.Int32
	err = make(Lanes, 3).Run(func(i int, m *Meter) error {
		if m != nil {
			t.Errorf("lane %d of make(Lanes, 3) got a meter", i)
		}
		ran.Add(1)
		return nil
	})
	if err != nil || ran.Load() != 3 {
		t.Errorf("make(Lanes, 3): Run = %v after %d lanes, want nil after 3", err, ran.Load())
	}
}

func TestLanesElapsed(t *testing.T) {
	model := Default1996()
	a := NewMeter(model)
	a.Charge(SeqRead, 5)
	b := NewMeter(model)
	b.Charge(SeqRead, 9)
	b.Charge(Commit, 1)
	l := Lanes{a, b}
	if got := l.Elapsed(); got != b.Elapsed() {
		t.Errorf("Elapsed = %v, want %v", got, b.Elapsed())
	}
	if got := (Lanes{}).Elapsed(); got != 0 {
		t.Errorf("Lanes{}.Elapsed() = %v, want 0", got)
	}
	if got := make(Lanes, 2).Elapsed(); got != 0 {
		t.Errorf("make(Lanes, 2).Elapsed() = %v, want 0", got)
	}

	// Total is a fresh meter holding AddSum of the lanes.
	sum := NewMeter(model)
	sum.AddSum(a, b)
	total := l.Total(model)
	if total == a || total == b {
		t.Fatal("Total returned a lane's meter")
	}
	if total.Elapsed() != sum.Elapsed() {
		t.Errorf("Total elapsed = %v, want AddSum's %v", total.Elapsed(), sum.Elapsed())
	}
	for k := Kind(0); k < NumKinds; k++ {
		if total.Count(k) != sum.Count(k) || total.ByKind(k) != sum.ByKind(k) {
			t.Errorf("Total %v = %d/%v, want AddSum's %d/%v", k, total.Count(k), total.ByKind(k), sum.Count(k), sum.ByKind(k))
		}
	}
	if got := make(Lanes, 2).Total(model).Elapsed(); got != 0 {
		t.Errorf("make(Lanes, 2).Total elapsed = %v, want 0", got)
	}
}
