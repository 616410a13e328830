package storage

import (
	"fmt"

	"r3bench/internal/cost"
	"r3bench/internal/val"
)

// BulkWriter is the direct-path load channel into a heap file: rows are
// formatted into 100%-full pages in a private staging buffer and the
// finished pages are appended straight to the disk file, bypassing the
// buffer pool — the Oracle-style direct path the paper's batch input so
// painfully lacked. Under WAL the data pages are not logged row by row;
// one recExtent record covers each batch of appended pages (its force
// is the WAL-rule consequence of the pages' stable writes), which is
// what makes the path cheap: cost is one PageWrite per page plus one
// TupleCPU per row, with no per-row log traffic.
//
// A BulkWriter requires exclusive use of its heap file between New and
// Close — the engine's DirectLoader guarantees that. RIDs are assigned
// deterministically in append order, so callers can compute index
// entries while packing. The writer goes below the pool, but only ever
// writes its private staging page: a page is installed once, complete, and
// the writer starts a new buffer, so no image a reader holds is touched.
type BulkWriter struct {
	h    *HeapFile
	m    *cost.Meter
	tx   int64
	page []byte // staging page
	used int
	cur  PageID // page the staging buffer will become
	rows int64

	extentStart PageID
	extentLen   int
}

// NewBulkWriter opens a direct-path channel on the heap. tx is the
// owning transaction for extent records (0 = system).
func (h *HeapFile) NewBulkWriter(tx int64, m *cost.Meter) *BulkWriter {
	h.mu.Lock()
	defer h.mu.Unlock()
	b := &BulkWriter{
		h:    h,
		m:    m,
		tx:   tx,
		page: make([]byte, PageSize),
		cur:  PageID(h.disk.NumPages(h.file)),
	}
	b.extentStart = b.cur
	return b
}

// Append packs one row and returns its RID.
func (b *BulkWriter) Append(row []val.Value) (RID, error) {
	h := b.h
	if b.used >= h.perPage {
		if err := b.sealPage(); err != nil {
			return RID{}, err
		}
	}
	off := h.slotOffset(b.used)
	enc, err := h.codec.Encode(b.page[off:off], row)
	if err != nil {
		return RID{}, err
	}
	if len(enc) != h.codec.RowBytes() {
		return RID{}, fmt.Errorf("storage: encoded row is %d bytes, want %d", len(enc), h.codec.RowBytes())
	}
	rid := RID{Page: b.cur, Slot: uint16(b.used)}
	b.used++
	setPageUsed(b.page, b.used)
	b.rows++
	if b.m != nil {
		b.m.Charge(cost.TupleCPU, 1)
	}
	return rid, nil
}

// sealPage appends the staging page to the file and starts a new one.
func (b *BulkWriter) sealPage() error {
	h := b.h
	pid := h.disk.AllocPage(h.file)
	if pid != b.cur {
		return fmt.Errorf("storage: direct path lost exclusive use of file %d (page %d, want %d)", h.file, pid, b.cur)
	}
	h.disk.writePage(h.file, pid, b.page, false)
	if b.m != nil {
		b.m.Charge(cost.PageWrite, 1)
	}
	b.extentLen++
	if b.extentLen >= extentPages {
		b.sealExtent()
	}
	b.page = make([]byte, PageSize)
	b.used = 0
	b.cur = pid + 1
	return nil
}

// sealExtent logs the allocation of the finished page run and makes the
// pages durable: the extent record stamps their LSNs, so the first
// stable write forces it (one log force per extent, not per page). The
// WAL keeps each page's image, taken as a reader takes it (BufferPool.share),
// as its stable image and as its baseline: no log record carries the rows.
func (b *BulkWriter) sealExtent() {
	h := b.h
	if b.extentLen > 0 && h.wal != nil {
		h.wal.LogExtent(b.tx, h.file, b.extentStart, b.extentLen)
		for i := 0; i < b.extentLen; i++ {
			pid := b.extentStart + PageID(i)
			if data, err := h.pool.share(h.file, pid); err == nil {
				h.wal.stableWrite(pageKey{h.file, pid}, data, true, b.m)
			}
		}
	}
	b.extentStart += PageID(b.extentLen)
	b.extentLen = 0
}

// Close seals the partial page and extent and publishes the row count.
// The writer must not be used afterwards.
func (b *BulkWriter) Close() error {
	if b.used > 0 {
		if err := b.sealPage(); err != nil {
			return err
		}
	}
	b.sealExtent()
	b.h.rows.Add(b.rows)
	return nil
}
