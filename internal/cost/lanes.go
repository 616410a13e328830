package cost

import (
	"sync"
	"time"
)

// Lanes are the meters of work that overlaps on the simulated wall clock:
// the engine's partition workers, the cluster's shards, the load streams,
// the throughput test's query streams and dialogs, and SAP R/3's parallel
// batch-input and direct-path processes. Each lane charges its own meter;
// elapsed time is the slowest lane (Elapsed, or AddParallel into a session
// clock) and resources are the sum (Total). A lane may be nil — one built
// with make — when its work charges a clock of its own.
type Lanes []*Meter

// NewLanes returns n lanes, each with a fresh meter of the model.
func NewLanes(model Model, n int) Lanes {
	l := make(Lanes, n)
	for i := range l {
		l[i] = NewMeter(model)
	}
	return l
}

// Run calls fn once per lane with the lane's index and meter: lanes 1..n-1
// on goroutines of their own, lane 0 on the caller's. It returns after
// every lane has returned — a lane never outlives Run, even when another
// failed — with the first error in lane order.
func (l Lanes) Run(fn func(i int, m *Meter) error) error {
	if len(l) == 0 {
		return nil
	}
	errs := make([]error, len(l))
	var wg sync.WaitGroup
	wg.Add(len(l) - 1)
	for i := 1; i < len(l); i++ {
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i, l[i])
		}(i)
	}
	errs[0] = fn(0, l[0])
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Elapsed returns the slowest lane's elapsed time: the simulated wall
// clock of lanes that ran side by side.
func (l Lanes) Elapsed() time.Duration {
	var max time.Duration
	for _, m := range l {
		if m == nil {
			continue
		}
		if e := m.Elapsed(); e > max {
			max = e
		}
	}
	return max
}

// Total returns a fresh meter of the model holding the sum of every lane's
// time and events (AddSum).
func (l Lanes) Total(model Model) *Meter {
	m := NewMeter(model)
	m.AddSum(l...)
	return m
}
