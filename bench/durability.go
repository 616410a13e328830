package main

import (
	"time"

	"r3bench/internal/storage"
	"r3bench/internal/tpcd"
	"r3bench/internal/val"
)

// The durability check of oltp_write_wal. Every statement the clients sent
// was acknowledged; with group commit 8 the log is forced on every eighth
// commit, so a crash may lose the last few acknowledged statements and
// nothing else. Before the timed passes the benchmark leaves one
// transaction open (a row inserted, never committed); the clients' own
// commits then carry its record to disk. After the last pass it crashes at
// WAL.FlushedLSN() — without a final force, which would hide exactly the
// window under test — and recovers.
//
// It then requires: the statements lost per session are a suffix of the
// session's stream and at most groupCommit-1 in total; the open
// transaction's row is gone; ORDERS and LINEITEM hold exactly the rows the
// surviving statements leave; every index has as many entries as its heap
// has rows; every live new order is found through its index with all its
// lines.

// recovery is what the crash cut yields for the layer ledger.
type recovery struct {
	stats   storage.RecoveryStats
	seconds []float64
	lostAck int // acknowledged statements the benchmark finds missing
}

func (rc *recovery) into(m map[string]float64) {
	m["storage.wal.acked_lost"] = float64(rc.lostAck)
	m["storage.recover.redone"] = float64(rc.stats.Redone)
	m["storage.recover.pages_restored"] = float64(rc.stats.PagesRestored)
	m["storage.recover.recover_s"] = median(rc.seconds)
}

// openTransaction inserts an order on a session of its own and never
// commits it.
func (r *wireRun) openTransaction() {
	o := *r.og.template(r.og.seed, 0, 0)
	o.Key = r.og.orderKey(txStream{block: int64(3 * r.cfg.sz.clients)}, 0)
	r.m.attempted++
	if err := r.db.NewSession().InsertRow("ORDERS", tpcd.OrderRow(&o)); err != nil {
		r.m.fail("durability: insert in the open transaction: %v", err)
	}
	r.openKey = o.Key
}

func (r *wireRun) crashAndVerify(repeats int) *recovery {
	rc := &recovery{}
	m := r.m
	fail := func(format string, args ...any) {
		m.attempted++
		m.fail("durability: "+format, args...)
	}

	w := r.db.WAL()
	cut, size := w.FlushedLSN(), w.Size()
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		st, err := r.db.CrashRecover(cut, nil)
		rc.seconds = append(rc.seconds, time.Since(t0).Seconds())
		if err != nil {
			fail("recovery %d: %v", i+1, err)
			return rc
		}
		if i == 0 {
			rc.stats = st
		} else if st.Redone != rc.stats.Redone || st.PagesRestored != rc.stats.PagesRestored {
			// Repeats make a fair median only if they redo the same work.
			fail("recovery %d redid %d records on %d pages, the first %d on %d",
				i+1, st.Redone, st.PagesRestored, rc.stats.Redone, rc.stats.PagesRestored)
		}
	}

	// The catalog now holds rebuilt indexes; ask through a fresh session.
	q, err := newLocalClient(r.db, nil)
	if err != nil {
		fail("session after recovery: %v", err)
		return rc
	}
	count := func(stmt int, params ...val.Value) int {
		res, err := q.stmts[stmt].Query(params...)
		if err != nil {
			fail("%s: %v", stmtSQL[stmt], err)
			return -1
		}
		return len(res.Rows)
	}
	// present reports whether a write statement's effect is in the database.
	present := func(o *op) bool {
		switch o.class {
		case clInsertOrder:
			return count(stPkOrders, val.Int(o.key)) == 1
		case clInsertLine:
			res, err := q.stmts[stReadBack].Query(val.Int(o.key))
			if err != nil {
				return false
			}
			for _, row := range res.Rows {
				if row[0].AsInt() == o.line {
					return true
				}
			}
			return false
		case clDeleteLines:
			return count(stRange, val.Int(o.key)) == 0
		default: // clDeleteOrder
			return count(stPkOrders, val.Int(o.key)) == 0
		}
	}

	m.attempted++
	if count(stPkOrders, val.Int(r.openKey)) != 0 {
		m.fail("durability: the row of the transaction that never committed is visible after recovery")
	}

	// Per session, newest statement first: a run of lost statements, then
	// only surviving ones. Only the last few can be lost, so the last
	// 4*groupCommit write statements of each session show the rule broken.
	lostOrders, lostLines := int64(0), int64(0)
	for _, ops := range r.lastOps {
		var stmts []op
		for _, o := range ops {
			if o.want == wantAffected {
				stmts = append(stmts, o)
			}
		}
		if len(stmts) > 4*groupCommit {
			stmts = stmts[len(stmts)-4*groupCommit:]
		}
		inSuffix := true
		for i := len(stmts) - 1; i >= 0; i-- {
			o := &stmts[i]
			m.attempted++
			switch ok := present(o); {
			case ok:
				inSuffix = false
			case inSuffix:
				rc.lostAck++
				switch o.class {
				case clInsertOrder:
					lostOrders--
				case clInsertLine:
					lostLines--
				case clDeleteLines:
					lostLines += o.wantN
				case clDeleteOrder:
					lostOrders++
				}
			default:
				m.fail("durability: %s was lost although a later statement of its session survived", o.describe(r.classes))
			}
		}
	}
	m.attempted++
	if rc.lostAck > groupCommit-1 {
		m.fail("durability: %d acknowledged statements lost, group commit %d allows %d", rc.lostAck, groupCommit, groupCommit-1)
	}
	r.cfg.logf("crash at LSN %d of %d: recovered in %.2f s, %d records redone, %d undone; %d acknowledged statements lost",
		cut, size, median(rc.seconds), rc.stats.Redone, rc.stats.Undone, rc.lostAck)

	// Row counts and index sizes.
	wantRows := map[string]int64{
		"ORDERS":   int64(r.gen.NumOrders()) + r.og.written.orders + lostOrders,
		"LINEITEM": r.baseLines + r.og.written.lines + lostLines,
	}
	for name, want := range wantRows {
		t := r.db.Table(name)
		m.attempted++
		if got := t.Heap.Rows(); got != want {
			m.fail("durability: %s holds %d rows after recovery, the surviving statements leave %d", name, got, want)
		}
		for _, ix := range t.Indexes {
			m.attempted++
			if ix.Tree.Entries() != t.Heap.Rows() {
				m.fail("durability: index %s has %d entries, its heap %d rows", ix.Name, ix.Tree.Entries(), t.Heap.Rows())
			}
		}
	}

	// Every live new order of the wire sessions (but the last few, which
	// the suffix rule above covers), probed through the indexes.
	last := (len(m.passOps) + 1) * r.cfg.sz.passOps // transactions each wire session has run
	for c := 0; c < r.cfg.sz.clients; c++ {
		ts := txStream{block: int64(c), client: c}
		for idx := max(0, last-deleteLag); idx < last-groupCommit; idx++ {
			key := r.og.orderKey(ts, idx)
			m.attempted++
			if count(stPkOrders, val.Int(key)) != 1 || count(stRange, val.Int(key)) != len(r.og.template(r.og.seed, c, idx).Lines) {
				m.fail("durability: live order %d is not found whole through its indexes", key)
			}
		}
	}
	return rc
}
