package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"math/rand"
	"slices"
	"testing"

	"r3bench/internal/cost"
	"r3bench/internal/race"
	"r3bench/internal/val"
)

// logBytes returns a copy of the whole log byte stream. It is the one place
// these tests read how the log is held.
func logBytes(w *WAL) []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]byte, 0, w.size)
	for _, c := range w.chunks {
		out = append(out, c[:min(int64(len(c)), w.size-int64(len(out)))]...)
	}
	return out
}

// stableWay makes page 0 of a fresh heap stable in one of the ways a page
// becomes durable, and returns the heap, the page's bytes at that moment and
// the log cut that selects the image.
type stableWay func(t *testing.T) (h *HeapFile, want []byte, cut int64)

// walHeap returns an empty heap over a pool of poolBytes, under a WAL.
func walHeap(poolBytes int) (*HeapFile, *WAL) {
	disk := NewDisk()
	pool := NewBufferPool(disk, poolBytes)
	h := NewHeapFile(disk, pool, testCodec())
	w := NewWAL(disk, 1)
	h.SetWAL(w)
	pool.SetWAL(w)
	return h, w
}

func testCodec() *val.RowCodec {
	return val.NewRowCodec([]val.ColType{val.Int4, val.Char(16), val.Dec8})
}

// page0 returns a copy of page 0's current image on the disk.
func page0(t *testing.T, h *HeapFile) []byte {
	t.Helper()
	data, err := h.disk.readPage(h.file, 0)
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), data...)
}

func insertRows(t *testing.T, h *HeapFile, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if _, err := h.InsertTx(0, row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
}

// bulkLoad appends n rows to h through a BulkWriter.
func bulkLoad(t *testing.T, h *HeapFile, n int) {
	t.Helper()
	b := h.NewBulkWriter(0, nil)
	for i := 0; i < n; i++ {
		if _, err := b.Append(row(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStableImagesAreSnapshots holds every way a page becomes stable to one
// rule: the stable image is the page as it was at that moment, whatever the
// heap writes afterwards. For each way it records page 0's bytes when the
// page becomes stable, mutates the page — straight away, or after a reader
// took the page — and recovers at the cut that selects that image, which
// must come back byte for byte. A stable image that a later in-place write
// reached would come back with the write in it. A direct-path page whose
// extent image the cut selects comes back as that image even after a newer
// one was written back: its rows are in no log record that redo could replay.
func TestStableImagesAreSnapshots(t *testing.T) {
	ways := []struct {
		name string
		make stableWay
	}{
		{"AttachFile of a resident unread frame", func(t *testing.T) (*HeapFile, []byte, int64) {
			disk := NewDisk()
			pool := NewBufferPool(disk, 1<<20)
			h := NewHeapFile(disk, pool, testCodec())
			insertRows(t, h, 0, 50) // page 0 is resident, and nobody has read it
			want := page0(t, h)
			w := NewWAL(disk, 1)
			h.SetWAL(w)
			pool.SetWAL(w)
			return h, want, 0
		}},
		{"FlushFile", func(t *testing.T) (*HeapFile, []byte, int64) {
			h, w := walHeap(1 << 20)
			insertRows(t, h, 0, 50)
			h.Flush(nil)
			return h, page0(t, h), w.Size()
		}},
		{"FlushAll", func(t *testing.T) (*HeapFile, []byte, int64) {
			h, w := walHeap(1 << 20)
			insertRows(t, h, 0, 50)
			h.pool.FlushAll(nil)
			return h, page0(t, h), w.Size()
		}},
		{"dirty eviction", func(t *testing.T) (*HeapFile, []byte, int64) {
			h, w := walHeap(PageSize) // one frame
			insertRows(t, h, 0, h.perPage)
			want, cut := page0(t, h), w.Size()
			insertRows(t, h, h.perPage, 1) // page 1 evicts page 0, dirty
			if h.pool.Contains(h.file, 0) {
				t.Fatal("page 0 is still resident")
			}
			return h, want, cut
		}},
		{"BulkWriter extent", func(t *testing.T) (*HeapFile, []byte, int64) {
			h, w := walHeap(1 << 20)
			bulkLoad(t, h, 50)
			return h, page0(t, h), w.Size()
		}},
		{"BulkWriter extent, then written back again", func(t *testing.T) (*HeapFile, []byte, int64) {
			h, w := walHeap(1 << 20)
			bulkLoad(t, h, 50)
			want, cut := page0(t, h), w.Size()
			if err := h.UpdateTx(0, RID{Page: 0, Slot: 2}, row(998), nil); err != nil {
				t.Fatal(err)
			}
			h.Flush(nil) // a stable image newer than the cut
			return h, want, cut
		}},
	}
	for _, way := range ways {
		for _, read := range []bool{false, true} {
			h, want, cut := way.make(t)
			if read {
				if _, err := h.pool.Get(h.file, 0, nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := h.DeleteTx(0, RID{Page: 0, Slot: 0}, nil); err != nil {
				t.Fatal(err)
			}
			if err := h.UpdateTx(0, RID{Page: 0, Slot: 1}, row(999), nil); err != nil {
				t.Fatal(err)
			}
			if _, err := h.wal.Recover(cut, map[FileID]*HeapFile{h.file: h}, nil); err != nil {
				t.Fatal(err)
			}
			if got := page0(t, h); !bytes.Equal(got, want) {
				t.Errorf("%s (read before the write %v): recovered page 0 differs from its image when it became stable",
					way.name, read)
			}
		}
	}
}

// fillLog appends a seeded mix of records — inserts, deletes and updates of
// rows of 1 to 300 bytes, extents, commits, forces and the checkpoints they
// trigger — until the log passes 3.5 MiB.
func fillLog(seed int64) *WAL {
	w := NewWAL(NewDisk(), 4)
	w.SetFlusher(func(*cost.Meter) {})
	w.ckptEvery = 256 << 10
	r := rand.New(rand.NewSource(seed))
	rowOf := func() []byte {
		b := make([]byte, 1+r.Intn(300))
		r.Read(b)
		return b
	}
	var tx int64
	for w.Size() < 3<<20+512<<10 {
		if tx == 0 {
			tx = w.Begin()
		}
		at := tx
		if r.Intn(5) == 0 {
			at = 0 // the system transaction
		}
		file, page, slot := FileID(r.Intn(3)), PageID(r.Intn(500)), r.Intn(300)
		switch k := r.Intn(20); {
		case k < 8:
			w.LogInsert(at, file, page, slot, rowOf())
		case k < 11:
			w.LogDelete(at, file, page, slot, rowOf())
		case k < 15:
			w.LogUpdate(at, file, page, slot, rowOf(), rowOf())
		case k < 16:
			w.LogExtent(at, file, page, 1+r.Intn(extentPages))
		case k < 19:
			w.Commit(tx, nil)
			tx = 0
		default:
			w.Force(nil)
		}
	}
	return w
}

// The log fillLog(37) leaves, recorded when the log was one slice.
const (
	logSize       = 3670114
	logFlushed    = 3668835
	logRecords    = 20777
	logBoundsCRC  = 0x72b82c77ffaf6663
	logBytesCRC   = 0xf196bbde6e5cc897
	logCkpts      = 13
	logChunkGuess = 1 << 20 // offsets at which a chunked log may split a record
)

func crc64Of(b []byte) uint64 { return crc64.Checksum(b, crc64.MakeTable(crc64.ECMA)) }

// TestLogBytesAcrossChunks pins the log's byte stream and record boundaries
// for a seeded mix that fills several MiB, and recovers at cuts on record
// boundaries and inside records, most of all around each MiB offset, where a
// log held in MiB chunks splits a record in two. Every boundary cannot be
// recovered at — each recovery parses the whole prefix — so the cuts are
// every boundary within 20 records of a MiB offset, every 128th elsewhere,
// and cuts inside the header, payload and trailer of each record that spans
// a MiB offset.
func TestLogBytesAcrossChunks(t *testing.T) {
	w := fillLog(37)
	bounds := w.Boundaries()
	enc := make([]byte, 0, 8*len(bounds))
	for _, b := range bounds {
		enc = binary.BigEndian.AppendUint64(enc, uint64(b))
	}
	full := logBytes(w)
	st := w.Stats()
	t.Logf("size %d, flushed %d, records %d, bounds crc %#x, bytes crc %#x, checkpoints %d",
		w.Size(), w.FlushedLSN(), len(bounds), crc64Of(enc), crc64Of(full), st.Checkpoints)
	if w.Size() != logSize || w.FlushedLSN() != logFlushed || len(bounds) != logRecords ||
		crc64Of(enc) != logBoundsCRC || crc64Of(full) != logBytesCRC || st.Checkpoints != logCkpts {
		t.Fatalf("the log differs from the one recorded")
	}
	if int64(len(full)) != w.Size() || st.Records != int64(len(bounds)) || bounds[len(bounds)-1] != w.Size() {
		t.Fatalf("log of %d bytes, %d records appended, last boundary %d, size %d",
			len(full), st.Records, bounds[len(bounds)-1], w.Size())
	}

	// Cuts, recovered at from the highest down: each recovery keeps the
	// log up to its cut, so a lower cut still finds its prefix.
	cuts := []int64{0}
	for i := 0; i < len(bounds); i += 128 {
		cuts = append(cuts, bounds[i])
	}
	var straddle []int64 // start offsets of the records spanning a MiB offset
	for at := int64(logChunkGuess); at < w.Size(); at += logChunkGuess {
		k, _ := slices.BinarySearch(bounds, at)
		for j := max(0, k-20); j < min(len(bounds), k+21); j++ {
			cuts = append(cuts, bounds[j])
		}
		if bounds[k] == at {
			continue // a record ends exactly here
		}
		start := bounds[k-1]
		straddle = append(straddle, start)
		for _, c := range []int64{start + 1, start + 4, start + walHeaderLen, at - 1, at, at + 1, bounds[k] - walTrailerLen, bounds[k] - 1} {
			if c > start && c < bounds[k] {
				cuts = append(cuts, c)
			}
		}
	}
	if len(straddle) < 2 {
		t.Fatalf("only %d records span a MiB offset", len(straddle))
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	for i := len(cuts) - 1; i >= 0; i-- {
		cut := cuts[i]
		k, exact := slices.BinarySearch(bounds, cut)
		if exact {
			k++
		}
		valid := int64(0)
		if k > 0 {
			valid = bounds[k-1]
		}
		rs, err := w.Recover(cut, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rs.ValidLSN != valid || rs.Records != k || w.Size() != valid || w.FlushedLSN() != valid {
			t.Fatalf("cut %d: valid %d after %d records, size %d, flushed %d; want %d after %d",
				cut, rs.ValidLSN, rs.Records, w.Size(), w.FlushedLSN(), valid, k)
		}
		if !bytes.Equal(logBytes(w), full[:valid]) {
			t.Fatalf("cut %d: the kept log is not the prefix of the log", cut)
		}
	}

	// A log cut inside a record that spans a MiB offset takes appends again
	// from the cut.
	w = fillLog(37)
	start := straddle[0]
	if _, err := w.Recover(start+walHeaderLen, nil, nil); err != nil {
		t.Fatal(err)
	}
	k, _ := slices.BinarySearch(bounds, start)
	for i := 0; i < 2000; i++ {
		w.LogInsert(0, 1, PageID(i), i%300, bytes.Repeat([]byte{byte(i)}, 1+i%300))
	}
	w.Force(nil)
	again := w.Boundaries()
	if len(again) != k+1+2000 || !slices.Equal(again[:k+1], bounds[:k+1]) || again[len(again)-1] != w.Size() {
		t.Fatalf("after the cut: %d records ending at %d, want %d records ending at the size %d",
			len(again), again[len(again)-1], k+1+2000, w.Size())
	}
	if got := logBytes(w); !bytes.Equal(got[:start], full[:start]) {
		t.Fatal("appending after the cut changed the kept log")
	}
}

// TestWALAppendAllocatesNothing budgets the append path: LogInsert,
// LogDelete, LogUpdate and Commit into a warm log allocate at most 0.01
// times a record; the only allocation left is a new chunk per MiB of log.
// While each record built its payload in a buffer of its own and the log was
// one slice regrown by append, a record took 0.75 allocations here: one
// per row record, none per commit.
// testing.AllocsPerRun truncates its average to a whole number, so each run
// is a batch of 10 000 records (and AllocsPerRun's warm-up one more).
func TestWALAppendAllocatesNothing(t *testing.T) {
	w := NewWAL(NewDisk(), 8)
	r := rand.New(rand.NewSource(1))
	rows := make([][]byte, 64)
	for i := range rows {
		rows[i] = make([]byte, 1+r.Intn(300))
		r.Read(rows[i])
	}
	const batch = 10000
	i := 0
	appendBatch := func() {
		for end := i + batch; i < end; i++ {
			row, page, slot := rows[i%len(rows)], PageID(i%100), i%200
			switch i % 4 {
			case 0:
				w.LogInsert(1, 1, page, slot, row)
			case 1:
				w.LogDelete(1, 1, page, slot, row)
			case 2:
				w.LogUpdate(1, 1, page, slot, row, rows[(i+1)%len(rows)])
			default:
				w.Commit(1, nil)
			}
		}
	}
	appendBatch() // warm: every page has its LSN entry
	per := testing.AllocsPerRun(1, appendBatch) / batch
	t.Logf("%.4f allocations per record", per)
	if st := w.Stats(); st.Records != 3*batch {
		t.Fatalf("%d records appended, want %d", st.Records, 3*batch)
	}
	if !race.Enabled && per > 0.01 {
		t.Errorf("a record allocates %.4f times, budget 0.01", per)
	}
}

// TestRecoveryCopiesOnlyWhatItRedoes holds recovery to the reader rule: it
// installs each stable image itself, and copies a page only when it redoes
// a record on it, so an image a reader took before the crash — here the
// stable image of both pages — never changes under the reader.
func TestRecoveryCopiesOnlyWhatItRedoes(t *testing.T) {
	h, w := walHeap(1 << 20)
	insertRows(t, h, 0, h.perPage+10) // page 0 full, page 1 begun
	h.Flush(nil)
	var held [2][]byte
	for p := range held {
		img, err := h.pool.Get(h.file, PageID(p), nil)
		if err != nil {
			t.Fatal(err)
		}
		held[p] = img
	}
	was := append([]byte(nil), held[1]...)
	insertRows(t, h, h.perPage+10, 5) // logged on page 1 only, never written back
	if _, err := w.Recover(-1, map[FileID]*HeapFile{h.file: h}, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(held[1], was) {
		t.Fatal("recovery wrote into an image a reader held")
	}
	p0, _ := h.disk.readPage(h.file, 0)
	p1, _ := h.disk.readPage(h.file, 1)
	if &p0[0] != &held[0][0] {
		t.Error("recovery copied page 0, which it had nothing to redo on")
	}
	if &p1[0] == &held[1][0] || pageUsed(p1) != 15 {
		t.Errorf("page 1 after recovery: the held image %v, %d rows; want a copy with 15",
			&p1[0] == &held[1][0], pageUsed(p1))
	}
}

// TestRecoveryPinsPagesItUndid: a transaction that never committed keeps
// its records in the log, and every recovery undoes them again. A page that
// recovery emptied by undoing such an insert is therefore never refilled:
// a committed row stored in the lost row's slot would be tombstoned by the
// next recovery.
func TestRecoveryPinsPagesItUndid(t *testing.T) {
	h, w := walHeap(1 << 20)
	heaps := map[FileID]*HeapFile{h.file: h}
	insertRows(t, h, 0, h.RowsPerPage()) // page 0, by the system transaction
	if _, err := h.InsertTx(w.Begin(), row(-1), nil); err != nil {
		t.Fatal(err) // page 1, slot 0, never committed
	}
	if _, err := w.Recover(-1, heaps, nil); err != nil {
		t.Fatal(err)
	}
	tx := w.Begin()
	rid, err := h.InsertTx(tx, row(9000), nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Commit(tx, nil)
	if rid == (RID{Page: 1, Slot: 0}) {
		t.Fatalf("a committed row went to %v, the slot of the undone insert", rid)
	}
	if _, err := w.Recover(-1, heaps, nil); err != nil {
		t.Fatal(err)
	}
	if got, err := h.Fetch(rid, nil, nil); err != nil || got[0].AsInt() != 9000 {
		t.Fatalf("after a second recovery the committed row at %v reads %v, %v", rid, got, err)
	}
}
