// Package storage implements the engine's physical layer: a simulated disk
// of 8 KB pages, an LRU buffer pool that charges sequential/random page
// I/O to a cost meter, and heap files of fixed-width rows addressed by
// record IDs.
//
// The disk is simulated (pages live in memory) because the experiments
// measure *which* I/O happens, not how fast 2026 SSDs are; the buffer pool
// charges every miss against the virtual clock in internal/cost, with the
// sequential-vs-random distinction that drives the paper's Table 6.
package storage

import (
	"fmt"
	"sync"
)

// PageSize is the size of one disk page in bytes.
const PageSize = 8192

// FileID identifies one file on the simulated disk.
type FileID uint32

// PageID identifies one page within a file.
type PageID uint32

// RID is a record identifier: a page and a slot within it.
type RID struct {
	Page PageID
	Slot uint16
}

// String renders the RID for diagnostics.
func (r RID) String() string { return fmt.Sprintf("(%d,%d)", r.Page, r.Slot) }

// Disk is the simulated disk: a set of files, each an extensible array of
// pages. All I/O goes through a BufferPool, never directly to the Disk.
type Disk struct {
	mu    sync.Mutex
	files map[FileID][]pageImage
	next  FileID
}

// pageImage is the current version of one page. shared records that the
// slice has been handed to a reader (BufferPool.Get, ScanRun.Get): from
// then on nobody writes it again — decoded CHAR values are views of it
// (val.ColSet.Decode) — and the next mutation copies the page and
// publishes the copy as a new, unshared image. The bit belongs to the
// image, not to the pool frame that happens to cache it, so it outlives
// the frame's eviction.
type pageImage struct {
	data   []byte
	shared bool
}

// NewDisk returns an empty simulated disk.
func NewDisk() *Disk {
	return &Disk{files: make(map[FileID][]pageImage)}
}

// CreateFile allocates a new empty file.
func (d *Disk) CreateFile() FileID {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.next
	d.next++
	d.files[id] = nil
	return id
}

// DropFile releases a file and its pages.
func (d *Disk) DropFile(id FileID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.files, id)
}

// NumPages returns the number of pages allocated to the file.
func (d *Disk) NumPages(id FileID) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.files[id])
}

// AllocPage extends the file by one zeroed page and returns its ID.
func (d *Disk) AllocPage(id FileID) PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	pages := d.files[id]
	d.files[id] = append(pages, pageImage{data: make([]byte, PageSize)})
	return PageID(len(pages))
}

// readPage returns the raw page storage. Internal: callers go through the
// buffer pool.
func (d *Disk) readPage(id FileID, p PageID) ([]byte, error) {
	data, _, err := d.image(id, p)
	return data, err
}

// image returns the page's current image and whether a reader holds it.
func (d *Disk) image(id FileID, p PageID) (data []byte, shared bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	pages, ok := d.files[id]
	if !ok {
		return nil, false, fmt.Errorf("storage: read of dropped file %d", id)
	}
	if int(p) >= len(pages) {
		return nil, false, fmt.Errorf("storage: page %d past end of file %d (%d pages)", p, id, len(pages))
	}
	return pages[p].data, pages[p].shared, nil
}

// share records that the page's current image went out to a reader, and
// returns the image.
func (d *Disk) share(id FileID, p PageID) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	pages, ok := d.files[id]
	if !ok || int(p) >= len(pages) {
		return nil, fmt.Errorf("storage: share of page %d of file %d, dropped or past its end", p, id)
	}
	pages[p].shared = true
	return pages[p].data, nil
}

// writePage publishes data as the page's new image. Internal: the buffer
// pool calls it when a copy-on-write supersedes the image the disk array
// held, keeping the invariant that the disk and the resident frame always
// point at the current version while readers may retain the old immutable
// bytes, and the direct-path writer installs pages it built privately — those
// images are unshared, since their caller made the slice and handed it to
// nobody. Recovery installs stable images the WAL holds, which are shared.
func (d *Disk) writePage(id FileID, p PageID, data []byte, shared bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if pages, ok := d.files[id]; ok && int(p) < len(pages) {
		pages[p] = pageImage{data: data, shared: shared}
	}
}
