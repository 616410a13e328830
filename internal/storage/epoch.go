package storage

import "sync"

// Epochs is the grace period a heap page waits out between being listed
// for reuse and being written again (HeapFile.InsertTx). Every statement
// enters the epoch current when it starts and leaves it when it ends; a
// listed page is stamped with the current epoch and may be reused once the
// clock stands two further. The clock moves from e to e+1 only while nobody
// is inside e-1, so by then every statement that was running when the page
// was listed has ended — and one that started later cannot hold a RID into
// it, since the page is listed only after the index entries of its rows
// are gone. A RID a statement got from an index therefore names its row or
// a dead slot until the statement ends, never another row.
//
// The zero value is ready; a nil *Epochs has nobody to wait for. Enter and
// Leave take one mutex and allocate nothing.
type Epochs struct {
	mu     sync.Mutex
	cur    uint64
	inside [2]int64 // how many are inside the current epoch and the one before, by parity
}

// Enter registers a statement in the current epoch and returns the epoch,
// for Leave.
func (e *Epochs) Enter() uint64 {
	e.mu.Lock()
	c := e.cur
	e.inside[c&1]++
	e.mu.Unlock()
	return c
}

// Leave ends a registration Enter made in epoch c.
func (e *Epochs) Leave(c uint64) {
	e.mu.Lock()
	e.inside[c&1]--
	e.mu.Unlock()
}

// advanceLocked moves the clock on when nobody is inside the epoch before
// the current one.
func (e *Epochs) advanceLocked() bool {
	if e.inside[(e.cur+1)&1] != 0 {
		return false
	}
	e.cur++
	return true
}

// stamp returns the epoch a page listed now waits on. It moves the clock on
// if it can, so that whoever enters next does not hold the page back.
func (e *Epochs) stamp() uint64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	c := e.cur
	e.advanceLocked()
	return c
}

// passed reports whether every statement inside when stamp was taken has
// left.
func (e *Epochs) passed(stamp uint64) bool {
	if e == nil {
		return true
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.cur < stamp+2 && e.advanceLocked() {
	}
	return e.cur >= stamp+2
}
