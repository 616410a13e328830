package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"

	"r3bench/internal/cost"
)

// The write-ahead log makes the storage layer durable on the modelled
// 1996 disk (DESIGN.md §14). Like the rest of the storage layer it is a
// simulation with real bookkeeping: the log is an append-only byte
// stream whose LSNs are byte offsets, every heap mutation appends a
// logical redo/undo record before its page leaves the buffer pool
// (the WAL rule, enforced at stable-write time), commits force the log
// tail with one modelled fsync — batched across concurrent sessions by
// group commit — and restart recovery replays the ARIES-lite
// redo-then-undo protocol against the stable page images.
//
// "Durable" state is modelled explicitly: the WAL keeps a stable image
// of every page at the moment it was last written back (FlushFile,
// FlushAll, dirty eviction, or a direct-path bulk write). A crash at
// log offset `cut` discards everything volatile — buffer-pool frames
// and all page writes newer than their stable images — and Recover
// rebuilds exactly the committed state from stable images (or, past a
// stable image newer than the cut, each page's baseline) plus the
// surviving log prefix. A stable image is the page's own image, taken
// the way a reader takes it: shared, so the next write copies the page
// (DESIGN.md §12, "The concurrency model") and the image stays as it was.

// Log record types.
const (
	recInsert     byte = iota + 1 // row appended to a heap page slot
	recDelete                     // slot tombstoned (payload carries the old row for undo)
	recUpdate                     // slot overwritten (old and new images)
	recExtent                     // direct-path allocation: n pages appended below the WAL
	recCommit                     // transaction commit point
	recCheckpoint                 // fuzzy checkpoint: all stable images current as of here
)

// Record framing: [4B payload len][1B type][8B txid][payload][4B CRC32].
// A torn tail — a crash mid-record — fails either the length bound or
// the checksum and is dropped by recovery.
const (
	walHeaderLen  = 4 + 1 + 8
	walTrailerLen = 4
)

// defaultCkptEvery is the log volume between fuzzy checkpoints: every
// ~4 MB of forced log, the pool's dirty pages are written back so redo
// after a crash stays bounded.
const defaultCkptEvery = 4 << 20

// extentPages is the direct-path allocation granularity: one recExtent
// record covers up to this many bulk-formatted pages.
const extentPages = 64

// walChunk is the size of one piece of the log. The log is a list of
// chunks of this size that are never moved or regrown: an append that
// fills the tail chunk goes on in a new one, so a record may straddle two
// (a byte layout, not a val.Chunks).
const walChunk = 1 << 20

type stablePage struct {
	lsn  int64 // end-LSN of the last record logged against the page
	data []byte
}

// WalStats is a snapshot of the log's counters for the metrics registry.
type WalStats struct {
	Records     int64 // records appended
	Bytes       int64 // log bytes appended (framing included)
	Fsyncs      int64 // modelled log forces
	FsyncPages  int64 // log pages streamed across all forces
	Commits     int64 // commit records appended
	Groups      int64 // forces that retired at least one commit
	GroupSum    int64 // commits retired across those forces
	MaxGroup    int64 // largest commit group retired by one force
	Checkpoints int64 // fuzzy checkpoints taken
}

// WAL is the write-ahead log of one Disk. All LSNs are end offsets: a
// record's LSN is the byte offset just past its trailer, so a record is
// durable iff its LSN ≤ the flushed watermark.
type WAL struct {
	mu   sync.Mutex
	disk *Disk

	chunks     [][]byte // the log, walChunk bytes a chunk; volatile past flushedLSN
	size       int64    // log length: the next record's start LSN
	flushedLSN int64
	nextTx     int64
	groupSize  int
	pending    int // commits appended since the last force

	files   map[FileID]bool        // heap files under WAL protection
	pageLSN map[pageKey]int64      // last LSN logged against each page
	stable  map[pageKey]stablePage // newest durable image of each page
	// base is each page's baseline, the image redo can start from when
	// the stable image is newer than a cut: the page at AttachFile (LSN
	// 0) or, for a direct-path page, the page its extent sealed.
	base map[pageKey]stablePage

	flusher   func(m *cost.Meter) // checkpoint hook (pool.FlushAll); runs outside mu
	ckptEvery int64
	lastCkpt  int64
	inCkpt    bool

	stats WalStats
}

// NewWAL returns an empty log over disk. groupSize is the group-commit
// batch: a force is issued every groupSize commit records (1 = force
// every commit, the classical non-grouped log).
func NewWAL(disk *Disk, groupSize int) *WAL {
	if groupSize < 1 {
		groupSize = 1
	}
	return &WAL{
		disk:      disk,
		nextTx:    1,
		groupSize: groupSize,
		files:     make(map[FileID]bool),
		pageLSN:   make(map[pageKey]int64),
		stable:    make(map[pageKey]stablePage),
		base:      make(map[pageKey]stablePage),
		ckptEvery: defaultCkptEvery,
	}
}

// SetFlusher installs the checkpoint write-back hook (normally the
// buffer pool's FlushAll). The hook runs outside the WAL lock.
func (w *WAL) SetFlusher(fn func(m *cost.Meter)) {
	w.mu.Lock()
	w.flusher = fn
	w.mu.Unlock()
}

// AttachFile puts a heap file under WAL protection, keeping its current
// pages as the recovery baseline (LSN 0). The images are taken from pool
// the way a reader takes them (BufferPool.share), so no later write
// reaches them. Attach before the first logged mutation of the file.
func (w *WAL) AttachFile(f FileID, pool *BufferPool) {
	imgs := make([][]byte, w.disk.NumPages(f))
	for p := range imgs {
		imgs[p], _ = pool.share(f, PageID(p))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.files[f] = true
	for p, data := range imgs {
		if data == nil {
			continue
		}
		key := pageKey{f, PageID(p)}
		sp := stablePage{lsn: 0, data: data}
		w.base[key] = sp
		w.stable[key] = sp
	}
}

// DetachFile drops a file from WAL protection (table drop): its stable
// images and page LSNs are released.
func (w *WAL) DetachFile(f FileID) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.files, f)
	for key := range w.pageLSN {
		if key.file == f {
			delete(w.pageLSN, key)
		}
	}
	for key := range w.stable {
		if key.file == f {
			delete(w.stable, key)
		}
	}
	for key := range w.base {
		if key.file == f {
			delete(w.base, key)
		}
	}
}

// Begin opens a transaction and returns its ID. TxID 0 is the system
// transaction: its records are always treated as committed.
func (w *WAL) Begin() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	tx := w.nextTx
	w.nextTx++
	return tx
}

// appendLocked frames one record whose payload is the concatenation of
// parts straight into the log tail, and returns its end-LSN.
func (w *WAL) appendLocked(typ byte, tx int64, parts ...[]byte) int64 {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	var hdr [walHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(n))
	hdr[4] = typ
	binary.BigEndian.PutUint64(hdr[5:13], uint64(tx))
	w.write(hdr[:4], 0)
	sum := w.write(hdr[4:], 0)
	for _, p := range parts {
		sum = w.write(p, sum)
	}
	var tr [walTrailerLen]byte
	binary.BigEndian.PutUint32(tr[:], sum)
	w.write(tr[:], 0)
	w.stats.Records++
	w.stats.Bytes += int64(walHeaderLen + n + walTrailerLen)
	return w.size
}

// write copies b to the log tail, starting a chunk where the last is full,
// and returns sum, the CRC-32 of the bytes before b, updated over b. The
// checksum reads the copy in the log, not b: crc32 calls through a function
// value, so a caller's stack buffer handed to it would move to the heap.
func (w *WAL) write(b []byte, sum uint32) uint32 {
	for len(b) > 0 {
		i := int(w.size / walChunk)
		if i == len(w.chunks) {
			w.chunks = append(w.chunks, make([]byte, walChunk))
		}
		dst := w.chunks[i][w.size%walChunk:]
		n := copy(dst, b)
		sum = crc32.Update(sum, crc32.IEEETable, dst[:n])
		w.size += int64(n)
		b = b[n:]
	}
	return sum
}

// view returns log bytes [off, end): a view into the chunk that holds
// them, or, when they straddle chunks, a copy appended to scratch, which
// is returned grown.
func (w *WAL) view(off, end int64, scratch []byte) ([]byte, []byte) {
	if o := off % walChunk; end-off <= walChunk-o {
		return w.chunks[off/walChunk][o : o+end-off], scratch
	}
	start := len(scratch)
	for ; off < end; off += walChunk - off%walChunk {
		o := off % walChunk
		scratch = append(scratch, w.chunks[off/walChunk][o:min(walChunk, o+end-off)]...)
	}
	return scratch[start:], scratch
}

func putSlotHeader(p []byte, file FileID, page PageID, slot int) {
	binary.BigEndian.PutUint32(p[0:4], uint32(file))
	binary.BigEndian.PutUint32(p[4:8], uint32(page))
	binary.BigEndian.PutUint16(p[8:10], uint16(slot))
}

// LogInsert records a row appended at (page,slot) and stamps the page's
// LSN. row is the encoded fixed-width image.
func (w *WAL) LogInsert(tx int64, file FileID, page PageID, slot int, row []byte) {
	var hd [10]byte
	putSlotHeader(hd[:], file, page, slot)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pageLSN[pageKey{file, page}] = w.appendLocked(recInsert, tx, hd[:], row)
}

// LogDelete records a tombstone at (page,slot); oldRow is kept for undo.
func (w *WAL) LogDelete(tx int64, file FileID, page PageID, slot int, oldRow []byte) {
	var hd [10]byte
	putSlotHeader(hd[:], file, page, slot)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pageLSN[pageKey{file, page}] = w.appendLocked(recDelete, tx, hd[:], oldRow)
}

// LogUpdate records an in-place overwrite with both images.
func (w *WAL) LogUpdate(tx int64, file FileID, page PageID, slot int, oldRow, newRow []byte) {
	var hd [14]byte
	putSlotHeader(hd[:], file, page, slot)
	binary.BigEndian.PutUint32(hd[10:14], uint32(len(oldRow)))
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pageLSN[pageKey{file, page}] = w.appendLocked(recUpdate, tx, hd[:], oldRow, newRow)
}

// LogExtent records a direct-path allocation of n pages starting at
// first — the only logging bulk-formatted pages get — and stamps each
// page's LSN so their stable writes observe the WAL rule.
func (w *WAL) LogExtent(tx int64, file FileID, first PageID, n int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var p [12]byte
	binary.BigEndian.PutUint32(p[0:4], uint32(file))
	binary.BigEndian.PutUint32(p[4:8], uint32(first))
	binary.BigEndian.PutUint32(p[8:12], uint32(n))
	lsn := w.appendLocked(recExtent, tx, p[:])
	for i := 0; i < n; i++ {
		w.pageLSN[pageKey{file, first + PageID(i)}] = lsn
	}
}

// Commit appends the transaction's commit record. The force is batched:
// only every groupSize-th pending commit pays the modelled fsync (the
// group's WalWrite pages plus one Commit), so concurrent sessions share
// the rotational wait — the classic group-commit win. A commit whose
// record has not yet been forced is not durable; it is lost (treated as
// uncommitted) by a crash before the next force.
func (w *WAL) Commit(tx int64, m *cost.Meter) {
	w.mu.Lock()
	w.appendLocked(recCommit, tx, nil)
	w.stats.Commits++
	w.pending++
	if w.pending >= w.groupSize {
		w.forceLocked(m)
	}
	w.mu.Unlock()
	w.maybeCheckpoint(m)
}

// Force flushes the log tail unconditionally (shutdown, end of load).
func (w *WAL) Force(m *cost.Meter) {
	w.mu.Lock()
	w.forceLocked(m)
	w.mu.Unlock()
	w.maybeCheckpoint(m)
}

// forceLocked makes the buffered tail durable: one modelled fsync
// (cost.Commit, the rotational wait) plus the sequential streaming of
// the log pages (cost.WalWrite). Caller holds w.mu.
func (w *WAL) forceLocked(m *cost.Meter) {
	delta := w.size - w.flushedLSN
	if delta <= 0 {
		if w.pending > 0 {
			w.retireGroupLocked()
		}
		return
	}
	pages := (delta + PageSize - 1) / PageSize
	if m != nil {
		m.Charge(cost.WalWrite, pages)
		m.Charge(cost.Commit, 1)
	}
	w.stats.Fsyncs++
	w.stats.FsyncPages += pages
	if w.pending > 0 {
		w.retireGroupLocked()
	}
	w.flushedLSN = w.size
}

func (w *WAL) retireGroupLocked() {
	w.stats.Groups++
	w.stats.GroupSum += int64(w.pending)
	if int64(w.pending) > w.stats.MaxGroup {
		w.stats.MaxGroup = int64(w.pending)
	}
	w.pending = 0
}

// maybeCheckpoint takes a fuzzy checkpoint once enough log has been
// forced since the last one: write back all dirty pages (each becoming
// a stable image), then log and force a checkpoint record. The flusher
// runs outside w.mu — it re-enters the WAL through stableWrite.
func (w *WAL) maybeCheckpoint(m *cost.Meter) {
	w.mu.Lock()
	if w.flusher == nil || w.inCkpt || w.flushedLSN-w.lastCkpt < w.ckptEvery {
		w.mu.Unlock()
		return
	}
	w.inCkpt = true
	flusher := w.flusher
	w.mu.Unlock()
	flusher(m)
	w.mu.Lock()
	w.appendLocked(recCheckpoint, 0, nil)
	w.forceLocked(m)
	w.stats.Checkpoints++
	w.lastCkpt = w.flushedLSN
	w.inCkpt = false
	w.mu.Unlock()
}

// stableWrite records that data, the page's current image, just became
// durable (write-back or direct-path write). The caller has handed the
// image out as to a reader, so nobody writes it again and the WAL keeps
// it as it is. baseline marks a direct-path page: its rows are in no log
// record, so the image also becomes the page's baseline. The WAL rule is
// enforced here: if the page carries an unflushed LSN, the log is forced
// first. Pages of unattached files are ignored.
func (w *WAL) stableWrite(key pageKey, data []byte, baseline bool, m *cost.Meter) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.files[key.file] {
		return
	}
	if w.pageLSN[key] > w.flushedLSN {
		w.forceLocked(m)
	}
	sp := stablePage{lsn: w.pageLSN[key], data: data}
	w.stable[key] = sp
	if baseline {
		w.base[key] = sp
	}
}

// Size returns the log length in bytes (the next record's start LSN).
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// FlushedLSN returns the durable watermark.
func (w *WAL) FlushedLSN() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushedLSN
}

// Boundaries returns the end-LSN of every whole record currently in the
// log — the cut points a crash can land exactly on. Recovery torture
// tests iterate these (and offsets in between, for torn tails).
func (w *WAL) Boundaries() []int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	recs, _ := w.parseLocked(w.size)
	out := make([]int64, len(recs))
	for i, r := range recs {
		out[i] = r.lsn
	}
	return out
}

// Stats snapshots the log counters.
func (w *WAL) Stats() WalStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// walRec is one decoded log record.
type walRec struct {
	lsn   int64 // end offset
	typ   byte
	tx    int64
	file  FileID
	page  PageID
	slot  int
	old   []byte // prior image (delete/update undo)
	new   []byte // after image (insert/update redo)
	first PageID // extent
	n     int    // extent
}

// parseLocked decodes the valid record prefix of the log's first limit
// bytes. A record that extends past limit, or whose checksum fails, ends
// the prefix — exactly how a torn tail is dropped after a crash. The
// records' row images are views of the log, except that a record which
// straddles two chunks is copied, whole, into one scratch buffer.
func (w *WAL) parseLocked(limit int64) ([]walRec, int64) {
	var recs []walRec
	var scratch []byte
	off := int64(0)
	for off+walHeaderLen+walTrailerLen <= limit {
		var lb []byte
		lb, scratch = w.view(off, off+4, scratch)
		plen := int64(binary.BigEndian.Uint32(lb))
		end := off + walHeaderLen + plen + walTrailerLen
		if end > limit {
			break
		}
		var rec []byte
		rec, scratch = w.view(off, end, scratch)
		tr := len(rec) - walTrailerLen
		if crc32.ChecksumIEEE(rec[4:tr]) != binary.BigEndian.Uint32(rec[tr:]) {
			break
		}
		r := walRec{
			lsn: end,
			typ: rec[4],
			tx:  int64(binary.BigEndian.Uint64(rec[5:13])),
		}
		p := rec[walHeaderLen:tr]
		switch r.typ {
		case recInsert, recDelete:
			r.file = FileID(binary.BigEndian.Uint32(p[0:4]))
			r.page = PageID(binary.BigEndian.Uint32(p[4:8]))
			r.slot = int(binary.BigEndian.Uint16(p[8:10]))
			if r.typ == recInsert {
				r.new = p[10:]
			} else {
				r.old = p[10:]
			}
		case recUpdate:
			r.file = FileID(binary.BigEndian.Uint32(p[0:4]))
			r.page = PageID(binary.BigEndian.Uint32(p[4:8]))
			r.slot = int(binary.BigEndian.Uint16(p[8:10]))
			oldLen := int64(binary.BigEndian.Uint32(p[10:14]))
			r.old = p[14 : 14+oldLen]
			r.new = p[14+oldLen:]
		case recExtent:
			r.file = FileID(binary.BigEndian.Uint32(p[0:4]))
			r.first = PageID(binary.BigEndian.Uint32(p[4:8]))
			r.n = int(binary.BigEndian.Uint32(p[8:12]))
		case recCommit, recCheckpoint:
		default:
			return recs, off // unknown type: treat as corruption
		}
		recs = append(recs, r)
		off = end
	}
	return recs, off
}

// stableAtLocked returns the image key restarts from after a crash at
// limit: its stable image if that is no newer than limit, else its
// baseline if that is not, else no image (zeroes, LSN 0). Redo replays
// every record newer than the image's LSN, which rebuilds the page from
// any of the three: every change to a page after its baseline is logged.
func (w *WAL) stableAtLocked(key pageKey, limit int64) stablePage {
	if sp, ok := w.stable[key]; ok && sp.lsn <= limit {
		return sp
	}
	if sp, ok := w.base[key]; ok && sp.lsn <= limit {
		return sp
	}
	return stablePage{}
}

// RecoveryStats summarizes one restart recovery.
type RecoveryStats struct {
	Records       int   // valid log records scanned
	PagesRestored int   // pages reset to their stable image (or zeroes)
	Redone        int   // DML records replayed
	Undone        int   // loser-transaction records rolled back
	Committed     int   // committed transactions found
	Lost          int   // transactions without a durable commit record
	ValidLSN      int64 // end of the surviving log prefix
}

// Recover simulates a crash at log offset cut (< 0 means "no bytes
// lost") and rebuilds exactly the committed state: every attached page
// is reset to its stable image, its baseline or zeroes (stableAtLocked),
// the surviving log prefix is replayed in LSN order onto pages whose
// restored LSN predates the record (redo), then records of transactions
// without a durable commit are rolled back in reverse order (undo). heaps
// maps each attached FileID to its handler; their row counts are rebuilt
// afterwards.
// Indexes are not WAL-logged — callers rebuild them bottom-up from the
// recovered heaps.
//
// The WAL itself survives with the truncated prefix, so logging can
// resume after recovery.
func (w *WAL) Recover(cut int64, heaps map[FileID]*HeapFile, m *cost.Meter) (RecoveryStats, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if cut < 0 || cut > w.size {
		cut = w.size
	}
	recs, limit := w.parseLocked(cut)
	var st RecoveryStats
	st.Records = len(recs)
	st.ValidLSN = limit

	committed := map[int64]bool{0: true}
	losers := map[int64]bool{}
	maxTx := int64(0)
	for _, r := range recs {
		if r.tx > maxTx {
			maxTx = r.tx
		}
		if r.typ == recCommit {
			committed[r.tx] = true
			delete(losers, r.tx)
		} else if r.tx != 0 && !committed[r.tx] {
			losers[r.tx] = true
		}
	}
	st.Committed = len(committed) - 1
	st.Lost = len(losers)

	// A lost direct-path extent is undone before redo rather than after:
	// its pages were fresh, and its image, which holds its rows, is both
	// their stable image and their baseline. Each page whose image is no
	// newer than the extent restores to zeroes instead, and loses its
	// baseline. Redo then replays onto the empty page whatever later
	// committed work a recovery since put there.
	lostExtent := map[pageKey]int64{}
	for _, r := range recs {
		if r.typ == recExtent && !committed[r.tx] {
			for i := 0; i < r.n; i++ {
				lostExtent[pageKey{r.file, r.first + PageID(i)}] = r.lsn
			}
			st.Undone++
		}
	}

	// Restore: drop all volatile frames and reset every page to its
	// stable image, its baseline or zeroes (stableAtLocked).
	restored := make(map[pageKey]int64, len(w.pageLSN))
	newStable := make(map[pageKey]stablePage)
	for f, h := range heaps {
		if !w.files[f] {
			return st, fmt.Errorf("storage: recover of unattached file %d", f)
		}
		h.pool.DropFile(f)
		n := w.disk.NumPages(f)
		for p := 0; p < n; p++ {
			key := pageKey{f, PageID(p)}
			sp := w.stableAtLocked(key, limit)
			if lsn, ok := lostExtent[key]; ok && sp.lsn <= lsn {
				sp = stablePage{}
				delete(w.base, key)
			}
			h.restorePage(PageID(p), sp.data)
			restored[key] = sp.lsn
			if sp.data != nil {
				newStable[key] = sp
			}
			st.PagesRestored++
			if m != nil {
				m.Charge(cost.PageWrite, 1)
			}
		}
	}
	// Reading the surviving log is one sequential pass.
	if m != nil && limit > 0 {
		m.Charge(cost.SeqRead, (limit+PageSize-1)/PageSize)
	}

	// Redo: replay history onto pages whose restored image predates the
	// record. Idempotent by the LSN test.
	for _, r := range recs {
		h := heaps[r.file]
		if h == nil {
			continue
		}
		key := pageKey{r.file, r.page}
		switch r.typ {
		case recInsert:
			if r.lsn > restored[key] {
				if err := h.redoInsert(r.page, r.slot, r.new); err != nil {
					return st, err
				}
				st.Redone++
			}
		case recDelete:
			if r.lsn > restored[key] {
				if err := h.redoDelete(r.page, r.slot); err != nil {
					return st, err
				}
				st.Redone++
			}
		case recUpdate:
			if r.lsn > restored[key] {
				if err := h.redoWrite(r.page, r.slot, r.new); err != nil {
					return st, err
				}
				st.Redone++
			}
		}
		if m != nil && (r.typ == recInsert || r.typ == recDelete || r.typ == recUpdate) {
			m.Charge(cost.TupleCPU, 1)
		}
	}

	// Undo: roll back losers newest-first.
	undone := map[pageKey]bool{}
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		if committed[r.tx] {
			continue
		}
		h := heaps[r.file]
		if h == nil {
			continue
		}
		var err error
		switch r.typ {
		case recInsert:
			err = h.redoDelete(r.page, r.slot) // undo insert = tombstone
		case recDelete:
			err = h.undoDelete(r.page, r.slot, r.old)
		case recUpdate:
			err = h.redoWrite(r.page, r.slot, r.old)
		default:
			continue
		}
		if err != nil {
			return st, err
		}
		undone[pageKey{r.file, r.page}] = true
		st.Undone++
		if m != nil {
			m.Charge(cost.TupleCPU, 1)
		}
	}

	for _, h := range heaps {
		h.recount(undone)
	}

	// The WAL continues from the surviving prefix: the chunks past it go.
	keep := (limit + walChunk - 1) / walChunk
	clear(w.chunks[keep:])
	w.chunks = w.chunks[:keep]
	w.size = limit
	w.flushedLSN = limit
	w.pending = 0
	w.pageLSN = restored
	w.stable = newStable
	for key, sp := range w.base {
		if sp.lsn > limit {
			delete(w.base, key) // its extent is no longer in the log
		}
	}
	if maxTx >= w.nextTx {
		w.nextTx = maxTx + 1
	}
	return st, nil
}
