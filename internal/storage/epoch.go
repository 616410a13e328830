package storage

import (
	"slices"
	"sync"
)

// Epochs is the grace period a heap page waits out between being listed
// for reuse and being written again (HeapFile.InsertTx). Every statement
// takes a ticket when it starts and hands it back when it ends; a listed
// page is stamped with the next ticket and may be reused once no statement
// holding an older ticket is left. So every statement that was running when
// the page was listed has ended — and one that started later cannot hold a
// RID into it, since the page is listed only after the index entries of its
// rows are gone. A RID a statement got from an index therefore names its
// row or a dead slot until the statement ends, never another row.
//
// The zero value is ready; a nil *Epochs has nobody to wait for. Enter and
// Leave take one mutex and, once the list has grown to the number of
// statements that overlap, allocate nothing.
type Epochs struct {
	mu      sync.Mutex
	last    uint64   // the ticket Enter handed out last
	running []uint64 // the tickets of the statements inside, oldest first
}

// Enter registers a statement and returns its ticket, for Leave.
func (e *Epochs) Enter() uint64 {
	e.mu.Lock()
	e.last++
	t := e.last
	e.running = append(e.running, t)
	e.mu.Unlock()
	return t
}

// Leave ends the registration Enter returned ticket t for.
func (e *Epochs) Leave(t uint64) {
	e.mu.Lock()
	if i, ok := slices.BinarySearch(e.running, t); ok {
		e.running = slices.Delete(e.running, i, i+1)
	}
	e.mu.Unlock()
}

// stamp returns the ticket a page listed now waits on: the next one, which
// no statement running now holds.
func (e *Epochs) stamp() uint64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.last + 1
}

// passed reports whether every statement inside when stamp was taken has
// left.
func (e *Epochs) passed(stamp uint64) bool {
	if e == nil {
		return true
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.running) == 0 || e.running[0] >= stamp
}
