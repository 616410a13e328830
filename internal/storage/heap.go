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
// Deletes tombstone in place. A page whose last live row is deleted is
// listed for reuse once nothing on it can be rolled back: when the delete's
// transaction commits (Committed) and no other transaction that has not
// committed wrote the page. InsertTx refills the oldest listed page, its
// tombstoned slots first, once the page's grace period has passed (Epochs);
// it appends to the last page, and extends the file, only when no listed
// page is ready. A page that still holds a live row is never written into a
// tombstoned slot, so a bulk insert after a bulk delete lands in the pages
// the delete emptied and not scattered over half-full ones.
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

	// Page reuse, under mu. open lists the pages each transaction that has
	// not committed wrote, one entry per run of its writes to a page; pages
	// holds each page's count of those entries and its listing. free is the
	// listed pages, oldest first. While filling, inserts go to page fill,
	// into its first tombstoned slot from next on, then past its used slots.
	epochs  *Epochs
	pages   []pageState
	open    []txPage
	free    []freePage
	filling bool
	fill    PageID
	next    int
}

// pageState is what page reuse knows of one page.
type pageState struct {
	writers int32  // entries of HeapFile.open that name the page
	listed  uint64 // while the page is listed and empty, its stamp + 1; else 0, or pinned
}

// txPage is one entry of HeapFile.open.
type txPage struct {
	tx   int64
	page PageID
}

// freePage is one listing of an emptied page.
type freePage struct {
	page  PageID
	stamp uint64
}

// pinned marks a page whose tombstones recovery made by undoing a lost
// transaction: that transaction's records stay in the log, and the next
// recovery undoes them again, over whatever a reuse of the page would have
// stored. It is never listed.
const pinned = ^uint64(0)

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

// SetEpochs sets the grace period an emptied page waits out before InsertTx
// writes it again; nil, the default, waits for nobody.
func (h *HeapFile) SetEpochs(e *Epochs) {
	h.mu.Lock()
	h.epochs = e
	h.mu.Unlock()
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

// empty reports whether every used slot of the page is tombstoned.
func (h *HeapFile) empty(page []byte) bool {
	used := pageUsed(page)
	bm := page[2 : 2+(used+7)/8]
	for i, b := range bm {
		if i < used/8 {
			if b != 0xFF {
				return false
			}
		} else if b != byte(1)<<(used%8)-1 {
			return false
		}
	}
	return true
}

// freeSlot returns the slot the next row of the page being refilled goes
// to: its first tombstoned slot from next on, else the first unused one, or
// perPage when it is full. Slots before next are not looked at again: one
// the refill stored in and a delete has since tombstoned may belong to a
// transaction that has not committed.
func (h *HeapFile) freeSlot(page []byte) int {
	used := pageUsed(page)
	for s := h.next; s < used; s++ {
		if deleted(page, s) {
			return s
		}
	}
	return used
}

// state returns page pid's reuse state.
func (h *HeapFile) state(pid PageID) *pageState {
	for len(h.pages) <= int(pid) {
		h.pages = append(h.pages, pageState{})
	}
	return &h.pages[pid]
}

// wrote notes that transaction tx wrote page pid: the page is not listed
// before tx has committed. The system transaction is committed already.
func (h *HeapFile) wrote(tx int64, pid PageID) {
	if tx == 0 {
		return
	}
	e := txPage{tx, pid}
	if n := len(h.open); n > 0 && h.open[n-1] == e {
		return
	}
	h.open = append(h.open, e)
	h.state(pid).writers++
}

// Committed settles the writes of transaction tx, which has committed —
// without WAL, whose statement or unit of work has ended: every page it
// emptied that no other transaction still open has written is listed for
// reuse. The caller has logged tx's commit record, and has finished the
// index maintenance of its deletes: a statement that starts after the
// listing finds no RID into the page.
func (h *HeapFile) Committed(tx int64) {
	if tx == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	keep := h.open[:0]
	for _, e := range h.open {
		if e.tx != tx {
			keep = append(keep, e)
			continue
		}
		st := &h.pages[e.page]
		st.writers--
		if st.writers > 0 || st.listed != 0 {
			continue
		}
		if page, err := h.disk.readPage(h.file, e.page); err == nil && h.empty(page) {
			h.list(e.page)
		}
	}
	h.open = keep
}

// list lists page pid, empty and written by no transaction that has not
// committed, for reuse. A page being refilled stops being refilled: after
// its grace period it is refilled from its first slot.
func (h *HeapFile) list(pid PageID) {
	st := h.state(pid)
	if st.listed == pinned {
		return
	}
	if h.filling && h.fill == pid {
		h.filling = false
	}
	stamp := h.epochs.stamp()
	st.listed = stamp + 1
	h.free = append(h.free, freePage{pid, stamp})
}

// unlist drops page pid's listing: a row was stored in it.
func (h *HeapFile) unlist(pid PageID) {
	if int(pid) < len(h.pages) && h.pages[pid].listed != pinned {
		h.pages[pid].listed = 0
	}
}

// refill makes the oldest listed page whose grace period has passed the
// page inserts go to, dropping listings of pages that have held a row
// since.
func (h *HeapFile) refill() {
	for len(h.free) > 0 {
		f := h.free[0]
		st := &h.pages[f.page]
		if st.listed != f.stamp+1 {
			h.free = h.free[1:]
			continue
		}
		if !h.epochs.passed(f.stamp) {
			return
		}
		h.free = h.free[1:]
		st.listed = 0
		h.filling, h.fill, h.next = true, f.page, 0
		return
	}
}

// target returns the page the next row goes to: the page being refilled,
// else the oldest listed page that is ready, else the last page — the file's
// first when it has none.
func (h *HeapFile) target() PageID {
	if !h.filling {
		h.refill()
	}
	if h.filling {
		return h.fill
	}
	if n := h.disk.NumPages(h.file); n > 0 {
		return PageID(n - 1)
	}
	return h.disk.AllocPage(h.file)
}

// errPageFull signals that the target page has no free slot: the insert
// tries the next listed page or extends the file.
var errPageFull = fmt.Errorf("storage: page full")

// InsertTx stores a row on behalf of transaction tx and returns its RID,
// charging m for the page access and per-tuple CPU: in a listed page whose
// grace period has passed if there is one, else at the end of the file (see
// HeapFile). The page bytes are mutated through the pool's copy-on-write
// path, so concurrent scanners holding the old version keep reading a
// consistent page image. Under WAL the redo record is logged against tx, so
// a crash before tx's commit record is forced rolls the row back; tx 0 is
// the system transaction, which is always committed. DeleteTx and UpdateTx
// take tx alike.
func (h *HeapFile) InsertTx(tx int64, row []val.Value, m *cost.Meter) (RID, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var pid PageID
	var rid RID
	ins := func(page []byte) (bool, error) {
		used := pageUsed(page)
		refill := h.filling && pid == h.fill
		slot := used
		if refill {
			slot = h.freeSlot(page)
		}
		if slot >= h.perPage {
			return false, errPageFull
		}
		off := h.slotOffset(slot)
		enc, err := h.codec.Encode(page[off:off], row)
		if err != nil {
			return false, err
		}
		if len(enc) != h.codec.RowBytes() {
			return false, fmt.Errorf("storage: encoded row is %d bytes, want %d", len(enc), h.codec.RowBytes())
		}
		if slot == used {
			setPageUsed(page, used+1)
		} else {
			clearDeleted(page, slot)
		}
		rid = RID{Page: pid, Slot: uint16(slot)}
		if h.wal != nil {
			h.wal.LogInsert(tx, h.file, pid, slot, page[off:off+h.codec.RowBytes()])
		}
		if refill {
			h.next = slot + 1
			h.filling = h.freeSlot(page) < h.perPage
		}
		return true, nil
	}
	pid = h.target()
	err := h.pool.Mutate(h.file, pid, m, ins)
	if err == errPageFull {
		pid = h.disk.AllocPage(h.file)
		err = h.pool.Mutate(h.file, pid, m, ins)
	}
	if err != nil {
		return RID{}, err
	}
	h.unlist(pid)
	h.wrote(tx, pid)
	h.rows.Add(1)
	if m != nil {
		m.Charge(cost.TupleCPU, 1)
	}
	return rid, nil
}

// ErrDeadRID reports a fetch of a tombstoned (or never-used) slot. Under
// concurrent sessions this is an expected outcome, whether or not the
// deleting transaction has committed (sessions read uncommitted writes): a
// row can be deleted between an index probe handing out its RID and the
// heap fetch, in which case the reader simply skips it.
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

// DeleteTx tombstones the row at rid on behalf of transaction tx. When
// that was the page's last live row, the page is listed for reuse once
// nothing on it can be rolled back (see HeapFile): at once for the system
// transaction, else when Committed says so.
func (h *HeapFile) DeleteTx(tx int64, rid RID, m *cost.Meter) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	emptied := false
	err := h.pool.Mutate(h.file, rid.Page, m, func(page []byte) (bool, error) {
		if int(rid.Slot) >= pageUsed(page) || deleted(page, int(rid.Slot)) {
			return false, fmt.Errorf("storage: delete of dead rid %v", rid)
		}
		if h.wal != nil {
			off := h.slotOffset(int(rid.Slot))
			h.wal.LogDelete(tx, h.file, rid.Page, int(rid.Slot), page[off:off+h.codec.RowBytes()])
		}
		setDeleted(page, int(rid.Slot))
		emptied = h.empty(page)
		return true, nil
	})
	if err != nil {
		return err
	}
	h.wrote(tx, rid.Page)
	if emptied && h.state(rid.Page).writers == 0 {
		h.list(rid.Page)
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
	h.wrote(tx, rid.Page)
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

// recount rebuilds the live-row counter and page reuse from the recovered
// pages: no transaction is open any more, and every empty page is listed
// but for those recovery undid a lost transaction's work on (undone),
// which are pinned.
func (h *HeapFile) recount(undone map[pageKey]bool) {
	n := h.disk.NumPages(h.file)
	rows := int64(0)
	h.pages, h.open, h.free, h.filling = make([]pageState, n), nil, nil, false
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
		switch {
		case undone[pageKey{h.file, PageID(p)}]:
			h.pages[p].listed = pinned
		case h.empty(page):
			h.list(PageID(p))
		}
	}
	h.rows.Store(rows)
}
