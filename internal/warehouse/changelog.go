package warehouse

import (
	"sort"
	"strconv"
	"strings"
	"sync"

	"r3bench/internal/val"
)

// ChangeLog is the warehouse's change-capture feed: registered as a
// write observer on an r3.System, it maps every physical row mutation
// back to the TPC-D order it belongs to, so a refresh after an
// update-function batch knows exactly which orders to re-extract
// (upserts) and which to tombstone (deletes) — no timestamp columns, no
// scanning.
//
// The mapping mirrors the buffer-coherency decoding in r3: VBAK, VBAP
// and VBEP carry VBELN in their second column; KONV (transparent or its
// _C cluster realization) carries KNUMV, which the population equates
// with VBELN; STXL text rows name their owner in TDOBJECT/TDNAME.
// Writes to any other table (MARA, ATAB, KNA1, ...) don't belong to an
// order and are ignored.
type ChangeLog struct {
	mu      sync.Mutex
	upserts map[int64]struct{}
	deletes map[int64]struct{}
}

// NewChangeLog returns an empty change log. Register its Observe method
// with r3.System.AddWriteObserver.
func NewChangeLog() *ChangeLog {
	return &ChangeLog{
		upserts: make(map[int64]struct{}),
		deletes: make(map[int64]struct{}),
	}
}

// Observe is the write-observer entry point.
func (cl *ChangeLog) Observe(phys string, oldRow, newRow []val.Value) {
	key, isVBAK, ok := orderKeyOf(phys, oldRow, newRow)
	if !ok {
		return
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	switch {
	case isVBAK && newRow == nil:
		// Header deleted: the order is gone, whatever child writes said.
		delete(cl.upserts, key)
		cl.deletes[key] = struct{}{}
	case isVBAK:
		// Header inserted or changed: (re-)extract the order.
		delete(cl.deletes, key)
		cl.upserts[key] = struct{}{}
	default:
		// Child-table write. A delete-order transaction removes children
		// before (VBAP/VBEP) and after (STXL) the header; once the header
		// delete has been seen, the tombstone wins.
		if _, dead := cl.deletes[key]; !dead {
			cl.upserts[key] = struct{}{}
		}
	}
}

// Drain returns the accumulated change sets, sorted, and resets the log.
func (cl *ChangeLog) Drain() (upserts, deletes []int64) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for k := range cl.upserts {
		upserts = append(upserts, k)
	}
	for k := range cl.deletes {
		deletes = append(deletes, k)
	}
	cl.upserts = make(map[int64]struct{})
	cl.deletes = make(map[int64]struct{})
	sort.Slice(upserts, func(i, j int) bool { return upserts[i] < upserts[j] })
	sort.Slice(deletes, func(i, j int) bool { return deletes[i] < deletes[j] })
	return upserts, deletes
}

// orderKeyOf decodes which order a physical write touched. isVBAK marks
// header writes, whose insert/delete distinction drives the
// upsert-vs-tombstone decision.
func orderKeyOf(phys string, oldRow, newRow []val.Value) (key int64, isVBAK, ok bool) {
	row := newRow
	if row == nil {
		row = oldRow
	}
	if row == nil {
		return 0, false, false // bulk-load summary notification
	}
	switch phys {
	case "VBAK", "VBAP", "VBEP", "KONV", "KONV_C":
		if len(row) < 2 {
			return 0, false, false
		}
		key, ok = parseOrderKey(row[1], 16)
		return key, phys == "VBAK", ok
	case "STXL":
		if len(row) < 3 {
			return 0, false, false
		}
		switch strings.TrimSpace(row[1].AsStr()) {
		case "VBAK", "VBAP":
			key, ok = parseOrderKey(row[2], 16)
			return key, false, ok
		}
	}
	return 0, false, false
}

// parseOrderKey reads a zero-padded numeric key (r3.Key16) from the
// first width characters of a stored CHAR value.
func parseOrderKey(v val.Value, width int) (int64, bool) {
	s := v.AsStr()
	if len(s) > width {
		s = s[:width]
	}
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, false
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}
