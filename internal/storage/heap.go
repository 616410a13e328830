package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"r3bench/internal/cost"
	"r3bench/internal/val"
)

// HeapFile stores fixed-width rows of one table in slotted pages.
//
// Page layout:
//
//	[0:2]                    uint16 slot count used so far
//	[2:2+bmBytes]            tombstone bitmap (1 = deleted)
//	[2+bmBytes:]             rows, rowBytes each
//
// Inserts append to the last page; deletes tombstone in place. Space from
// deleted rows is reclaimed only by Compact, mirroring a simple RDBMS heap.
type HeapFile struct {
	mu      sync.RWMutex
	disk    *Disk
	pool    *BufferPool
	wal     *WAL // nil = volatile storage (the default)
	file    FileID
	codec   *val.RowCodec
	perPage int
	bmBytes int
	rows    atomic.Int64 // read without mu: a cached plan checks it on every use
}

// NewHeapFile creates an empty heap file for rows of the given codec.
func NewHeapFile(disk *Disk, pool *BufferPool, codec *val.RowCodec) *HeapFile {
	h := &HeapFile{disk: disk, pool: pool, file: disk.CreateFile(), codec: codec}
	// Solve for the per-page row capacity given the header and bitmap.
	rb := codec.RowBytes()
	c := (PageSize - 2) / rb
	for c > 0 && 2+(c+7)/8+c*rb > PageSize {
		c--
	}
	if c < 1 {
		panic(fmt.Sprintf("storage: row of %d bytes does not fit a page", rb))
	}
	h.perPage = c
	h.bmBytes = (c + 7) / 8
	return h
}

// Codec returns the file's row codec.
func (h *HeapFile) Codec() *val.RowCodec { return h.codec }

// File returns the heap's disk file ID.
func (h *HeapFile) File() FileID { return h.file }

// SetWAL puts the heap under write-ahead logging: every mutation logs a
// redo/undo record before the page can reach disk, and the file's
// current pages become the recovery baseline — taken through the pool,
// since frames of the file may be resident and unshared. nil detaches.
func (h *HeapFile) SetWAL(w *WAL) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.wal != nil && w == nil {
		h.wal.DetachFile(h.file)
	}
	h.wal = w
	if w != nil {
		w.AttachFile(h.file, h.pool)
	}
}

// Rows returns the number of live rows.
func (h *HeapFile) Rows() int64 { return h.rows.Load() }

// Pages returns the number of allocated pages.
func (h *HeapFile) Pages() int { return h.disk.NumPages(h.file) }

// DataBytes returns the allocated size in bytes.
func (h *HeapFile) DataBytes() int64 { return int64(h.Pages()) * PageSize }

// RowsPerPage returns the page capacity in rows.
func (h *HeapFile) RowsPerPage() int { return h.perPage }

// Drop releases the file's pages, its buffered frames, and any WAL
// bookkeeping.
func (h *HeapFile) Drop() {
	h.mu.Lock()
	if h.wal != nil {
		h.wal.DetachFile(h.file)
		h.wal = nil
	}
	h.mu.Unlock()
	h.pool.DropFile(h.file)
	h.disk.DropFile(h.file)
}

func pageUsed(p []byte) int       { return int(binary.BigEndian.Uint16(p[0:2])) }
func setPageUsed(p []byte, n int) { binary.BigEndian.PutUint16(p[0:2], uint16(n)) }

func (h *HeapFile) slotOffset(slot int) int { return 2 + h.bmBytes + slot*h.codec.RowBytes() }

func deleted(p []byte, slot int) bool { return p[2+slot/8]&(1<<(slot%8)) != 0 }
func setDeleted(p []byte, slot int)   { p[2+slot/8] |= 1 << (slot % 8) }
func clearDeleted(p []byte, slot int) { p[2+slot/8] &^= 1 << (slot % 8) }

// errPageFull signals that the last heap page has no free slot and the
// insert must extend the file.
var errPageFull = fmt.Errorf("storage: page full")

// InsertTx appends a row on behalf of transaction tx and returns its RID,
// charging m for the page access and per-tuple CPU. The page bytes are
// mutated through the pool's copy-on-write path, so concurrent scanners
// holding the old version keep reading a consistent page image. Under WAL
// the redo record is logged against tx, so a crash before tx's commit
// record is forced rolls the row back; tx 0 is the system transaction,
// which is always committed. DeleteTx and UpdateTx take tx alike.
func (h *HeapFile) InsertTx(tx int64, row []val.Value, m *cost.Meter) (RID, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := h.disk.NumPages(h.file)
	var pid PageID
	if n == 0 {
		pid = h.disk.AllocPage(h.file)
	} else {
		pid = PageID(n - 1)
	}
	var rid RID
	ins := func(page []byte) (bool, error) {
		used := pageUsed(page)
		if used >= h.perPage {
			return false, errPageFull
		}
		off := h.slotOffset(used)
		enc, err := h.codec.Encode(page[off:off], row)
		if err != nil {
			return false, err
		}
		if len(enc) != h.codec.RowBytes() {
			return false, fmt.Errorf("storage: encoded row is %d bytes, want %d", len(enc), h.codec.RowBytes())
		}
		setPageUsed(page, used+1)
		rid = RID{Page: pid, Slot: uint16(used)}
		if h.wal != nil {
			h.wal.LogInsert(tx, h.file, pid, used, page[off:off+h.codec.RowBytes()])
		}
		return true, nil
	}
	err := h.pool.Mutate(h.file, pid, m, ins)
	if err == errPageFull {
		pid = h.disk.AllocPage(h.file)
		err = h.pool.Mutate(h.file, pid, m, ins)
	}
	if err != nil {
		return RID{}, err
	}
	h.rows.Add(1)
	if m != nil {
		m.Charge(cost.TupleCPU, 1)
	}
	return rid, nil
}

// ErrDeadRID reports a fetch of a tombstoned (or never-used) slot. Under
// concurrent sessions this is an expected read-committed outcome: a row
// can be deleted between an index probe handing out its RID and the heap
// fetch, in which case the reader simply skips it.
var ErrDeadRID = errors.New("storage: fetch of dead rid")

// Fetch decodes the row at rid (random page access), appending every
// column to out.
func (h *HeapFile) Fetch(rid RID, m *cost.Meter, out []val.Value) ([]val.Value, error) {
	n, nc := len(out), h.codec.NumCols()
	out = slices.Grow(out, nc)[:n+nc]
	if err := h.FetchCols(rid, m, h.codec.AllCols(), out[n:]); err != nil {
		return out[:n], err
	}
	return out, nil
}

// FetchCols decodes the columns in cols of the row at rid (random page
// access) into dst, which is cols.Len() wide. CHAR values are views
// of the page image (val.ColSet.Decode): valid for good, since the image is
// never written again, but whoever keeps them long keeps the image.
func (h *HeapFile) FetchCols(rid RID, m *cost.Meter, cols *val.ColSet, dst []val.Value) error {
	page, err := h.pool.Get(h.file, rid.Page, m)
	if err != nil {
		return err
	}
	if int(rid.Slot) >= pageUsed(page) || deleted(page, int(rid.Slot)) {
		return fmt.Errorf("%w %v", ErrDeadRID, rid)
	}
	off := h.slotOffset(int(rid.Slot))
	if m != nil {
		m.Charge(cost.TupleCPU, 1)
	}
	return cols.Decode(page[off:off+h.codec.RowBytes()], dst)
}

// DeleteTx tombstones the row at rid on behalf of transaction tx.
func (h *HeapFile) DeleteTx(tx int64, rid RID, m *cost.Meter) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	err := h.pool.Mutate(h.file, rid.Page, m, func(page []byte) (bool, error) {
		if int(rid.Slot) >= pageUsed(page) || deleted(page, int(rid.Slot)) {
			return false, fmt.Errorf("storage: delete of dead rid %v", rid)
		}
		if h.wal != nil {
			off := h.slotOffset(int(rid.Slot))
			h.wal.LogDelete(tx, h.file, rid.Page, int(rid.Slot), page[off:off+h.codec.RowBytes()])
		}
		setDeleted(page, int(rid.Slot))
		return true, nil
	})
	if err != nil {
		return err
	}
	h.rows.Add(-1)
	if m != nil {
		m.Charge(cost.TupleCPU, 1)
	}
	return nil
}

// UpdateTx overwrites the row at rid in place (fixed-width rows always
// fit) on behalf of transaction tx.
func (h *HeapFile) UpdateTx(tx int64, rid RID, row []val.Value, m *cost.Meter) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	err := h.pool.Mutate(h.file, rid.Page, m, func(page []byte) (bool, error) {
		if int(rid.Slot) >= pageUsed(page) || deleted(page, int(rid.Slot)) {
			return false, fmt.Errorf("storage: update of dead rid %v", rid)
		}
		off := h.slotOffset(int(rid.Slot))
		enc, err := h.codec.Encode(make([]byte, 0, h.codec.RowBytes()), row)
		if err != nil {
			return false, err
		}
		if h.wal != nil {
			h.wal.LogUpdate(tx, h.file, rid.Page, int(rid.Slot), page[off:off+h.codec.RowBytes()], enc)
		}
		copy(page[off:off+h.codec.RowBytes()], enc)
		return true, nil
	})
	if err != nil {
		return err
	}
	if m != nil {
		m.Charge(cost.TupleCPU, 1)
	}
	return nil
}

// Scan calls fn for every live row in file order. The row slice is reused
// between calls; fn must copy values it retains, and give CHAR values it
// retains for long storage of their own (they are views of the page image:
// see FetchCols). Returning a non-nil error from fn stops the scan; the
// sentinel ErrStopScan stops it silently.
func (h *HeapFile) Scan(m *cost.Meter, fn func(rid RID, row []val.Value) error) error {
	row := make([]val.Value, h.codec.NumCols())
	return h.ScanRange(0, h.Pages(), m, h.codec.AllCols(),
		func() []val.Value { return row }, nil,
		func(rid RID) error { return fn(rid, row) })
}

// ScanRange is the heap's scan loop: for every live row in pages [loPage,
// hiPage), in file order, it decodes the columns in cols into the slice dst
// returns — cols.Len() wide — and calls fn. dst is asked before each row,
// so a caller that keeps a row where it was decoded hands out the next
// one's storage. A row is decoded without its output-only columns first
// (val.ColSet.DecodeScan) and, when pass is set, handed to pass; only a row
// pass keeps gets them and goes on to fn. Every row examined is charged one
// TupleCPU.
// The whole file is one range; a narrower one is one partition of a
// parallel scan. Page charging is range-local: the first page costs a
// random read (the arm seeks there), subsequent pages are sequential or a
// batched readahead window. The global per-file sequential detector is
// untouched, so concurrent partitions charge deterministically, and the
// run's limit keeps readahead from prefetching into a neighboring
// partition's range.
func (h *HeapFile) ScanRange(loPage, hiPage int, m *cost.Meter, cols *val.ColSet, dst func() []val.Value, pass func() (bool, error), fn func(rid RID) error) error {
	if n := h.disk.NumPages(h.file); hiPage > n {
		hiPage = n
	}
	run := h.pool.NewScanRun(h.file, PageID(hiPage))
	for p := loPage; p < hiPage; p++ {
		page, err := run.Get(PageID(p), m)
		if err != nil {
			return err
		}
		// The page's tuples are charged together once it is done with —
		// one trip to the meter's lock instead of one per tuple; the
		// meter's sums cannot tell.
		n, err := h.scanPage(page, PageID(p), cols, dst, pass, fn)
		if m != nil {
			m.Charge(cost.TupleCPU, n)
		}
		if err != nil {
			if err == ErrStopScan {
				return nil
			}
			return err
		}
	}
	return nil
}

// scanPage is ScanRange over one page: it returns the number of tuples it
// decoded, each a TupleCPU event, and stops at the first error.
func (h *HeapFile) scanPage(page []byte, pid PageID, cols *val.ColSet, dst func() []val.Value, pass func() (bool, error), fn func(rid RID) error) (int64, error) {
	var n int64
	used := pageUsed(page)
	for s := 0; s < used; s++ {
		if deleted(page, s) {
			continue
		}
		off := h.slotOffset(s)
		row, d := page[off:off+h.codec.RowBytes()], dst()
		if err := cols.DecodeScan(row, d); err != nil {
			return n, err
		}
		n++
		if pass != nil {
			ok, err := pass()
			if err != nil {
				return n, err
			}
			if !ok {
				continue
			}
		}
		if err := cols.DecodeOutputOnly(row, d); err != nil {
			return n, err
		}
		if err := fn(RID{Page: pid, Slot: uint16(s)}); err != nil {
			return n, err
		}
	}
	return n, nil
}

// Flush charges write-back for the file's dirty pages (a commit point).
func (h *HeapFile) Flush(m *cost.Meter) {
	h.pool.FlushFile(h.file, m)
}

// ErrStopScan stops a Scan early without reporting an error.
var ErrStopScan = fmt.Errorf("storage: stop scan")

// Recovery helpers. They run single-threaded after a simulated crash, below
// the pool, whose frames for the file have been dropped. Images that readers
// were handed before the crash — and the values decoded from them — are left
// as they are: restorePage installs the WAL's stable image itself, shared,
// or a fresh zero page, and redo*/undoDelete write through ownPage, which
// copies a shared image the first time recovery writes it. So recovery
// copies only the pages it redoes, and writes only into copies no reader can
// hold before recovery returns.

// restorePage resets page pid to img, the stable image the WAL keeps,
// installed shared (nil = a fresh zero page).
func (h *HeapFile) restorePage(pid PageID, img []byte) {
	if img == nil {
		h.disk.writePage(h.file, pid, make([]byte, PageSize), false)
		return
	}
	h.disk.writePage(h.file, pid, img, true)
}

// ownPage returns page pid's image for recovery to write into, copying it
// first — once — if it is shared.
func (h *HeapFile) ownPage(pid PageID) ([]byte, error) {
	page, shared, err := h.disk.image(h.file, pid)
	if err != nil || !shared {
		return page, err
	}
	cp := append([]byte(nil), page...)
	h.disk.writePage(h.file, pid, cp, false)
	return cp, nil
}

// redoInsert replays a row append: write the image, extend the slot
// count, clear any tombstone.
func (h *HeapFile) redoInsert(pid PageID, slot int, row []byte) error {
	page, err := h.ownPage(pid)
	if err != nil {
		return err
	}
	off := h.slotOffset(slot)
	copy(page[off:off+h.codec.RowBytes()], row)
	if pageUsed(page) < slot+1 {
		setPageUsed(page, slot+1)
	}
	clearDeleted(page, slot)
	return nil
}

// redoDelete replays a tombstone (also the undo of an insert).
func (h *HeapFile) redoDelete(pid PageID, slot int) error {
	page, err := h.ownPage(pid)
	if err != nil {
		return err
	}
	if pageUsed(page) < slot+1 {
		setPageUsed(page, slot+1)
	}
	setDeleted(page, slot)
	return nil
}

// redoWrite replays an in-place overwrite with the given image (redo
// uses the after image, undo the before image).
func (h *HeapFile) redoWrite(pid PageID, slot int, row []byte) error {
	page, err := h.ownPage(pid)
	if err != nil {
		return err
	}
	off := h.slotOffset(slot)
	copy(page[off:off+h.codec.RowBytes()], row)
	return nil
}

// undoDelete rolls a tombstone back: restore the old image and clear
// the bit.
func (h *HeapFile) undoDelete(pid PageID, slot int, oldRow []byte) error {
	page, err := h.ownPage(pid)
	if err != nil {
		return err
	}
	off := h.slotOffset(slot)
	copy(page[off:off+h.codec.RowBytes()], oldRow)
	clearDeleted(page, slot)
	return nil
}

// recount rebuilds the live-row counter from the recovered pages.
func (h *HeapFile) recount() {
	n := h.disk.NumPages(h.file)
	rows := int64(0)
	for p := 0; p < n; p++ {
		page, err := h.disk.readPage(h.file, PageID(p))
		if err != nil {
			continue
		}
		used := pageUsed(page)
		for s := 0; s < used; s++ {
			if !deleted(page, s) {
				rows++
			}
		}
	}
	h.rows.Store(rows)
}
