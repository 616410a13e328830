package r3

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/val"
)

// TestConcurrentDialogStreams is the dedicated -race exercise for the
// application-server shared state: several dialog streams (each with its
// own Open SQL connection, as each R/3 work process has) hammer a
// buffered table with SELECT SINGLEs while writers churn rows — every
// write fires the engine write hook, which invalidates buffer entries
// from the writer's goroutine — and a monitor thread snapshots
// BufferStatsAll/CursorStats throughout. The buffer starts undersized so
// admission control, ghost-list epochs and auto-resize all run under
// contention.
func TestConcurrentDialogStreams(t *testing.T) {
	sys, g := installedSys(t, Release22)
	n := int64(g.NumParts())
	rowBytes := maraRowBytes(sys)
	// Undersized adaptive budget: eviction pressure drives ghost-list
	// admission and epoch resizes while the streams run.
	sys.SetBuffered("MARA", rowBytes*8)

	const readers, writers = 4, 2
	writerMax := n / 8 // writers churn keys [1, writerMax]
	var workers sync.WaitGroup
	errs := make(chan error, readers+writers+1)

	for r := 0; r < readers; r++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			o := sys.OpenSQL(cost.NewMeter(sys.DB.Model()))
			for pass := 0; pass < 2; pass++ {
				for i := int64(1); i <= n; i++ {
					_, ok, err := o.SelectSingle("MARA", []Cond{Eq("MATNR", val.Str(Key16(i)))})
					if err != nil {
						errs <- err
						return
					}
					// Keys in the writers' range flicker between deleted
					// and re-inserted; everything above must always hit.
					if !ok && i > writerMax {
						errs <- fmt.Errorf("MARA %d vanished outside the writer range", i)
						return
					}
				}
			}
		}()
	}

	for w := 0; w < writers; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			o := sys.OpenSQL(cost.NewMeter(sys.DB.Model()))
			nat := sys.NativeSQL(cost.NewMeter(sys.DB.Model()))
			// Disjoint key stripes so the writers never race each other
			// for the same logical row, only for the shared buffer.
			for round := 0; round < 3; round++ {
				for i := int64(1 + w); i <= writerMax; i += writers {
					matnr := Key16(i)
					if round%2 == 0 {
						// Open SQL delete + re-insert: hook sees both shapes.
						if err := o.Delete("MARA", val.Str(matnr)); err != nil {
							errs <- err
							return
						}
						if err := o.InsertGroup("MARA", []map[string]val.Value{{
							"MATNR": val.Str(matnr), "MTART": val.Str("CHURN"),
						}}); err != nil {
							errs <- err
							return
						}
					} else {
						// Native SQL update: the hook's old+new invalidation.
						if _, err := nat.Exec(`UPDATE MARA SET MTART = ? WHERE MANDT = ? AND MATNR = ?`,
							val.Str("NATCHURN"), val.Str(DefaultClient), val.Str(matnr)); err != nil {
							errs <- err
							return
						}
					}
				}
			}
		}(w)
	}

	// Monitor: concurrent stats snapshots must never tear or deadlock.
	// It polls until every dialog stream has finished.
	done := make(chan struct{})
	var monitor sync.WaitGroup
	monitor.Add(1)
	go func() {
		defer monitor.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, st := range sys.BufferStatsAll() {
				if st.Hits < 0 || st.Misses < 0 || st.Resident < 0 {
					errs <- fmt.Errorf("torn buffer stats snapshot: %+v", st)
					return
				}
			}
			if b := sys.Buffer("MARA"); b != nil {
				_ = b.HitRatio()
			}
			sys.CursorStats()
		}
	}()

	workers.Wait()
	close(done)
	monitor.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := sys.Buffer("MARA").Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("buffer recorded no lookups under concurrent streams")
	}

	// Quiesced coherency check: cache a writer-range key (repeating the
	// lookup until admission control lets it in), delete it, and verify
	// the write-hook invalidation keeps the buffer from serving it.
	o := sys.OpenSQL(cost.NewMeter(sys.DB.Model()))
	key := []Cond{Eq("MATNR", val.Str(Key16(1)))}
	for i := 0; i < 8; i++ {
		if _, ok, err := o.SelectSingle("MARA", key); err != nil || !ok {
			t.Fatalf("post-race lookup: ok=%v err=%v", ok, err)
		}
	}
	before := sys.Buffer("MARA").Stats().Invalidations
	if err := o.Delete("MARA", val.Str(Key16(1))); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := o.SelectSingle("MARA", key); ok {
		t.Fatal("buffer served a deleted row after the concurrent run")
	}
	if after := sys.Buffer("MARA").Stats().Invalidations; after <= before {
		t.Fatalf("delete of a resident key produced no invalidation (%d -> %d)", before, after)
	}
}

// TestConcurrentBatchInputSessions is the throughput experiment's dialog
// shape under -race: four sessions, each its own BatchInput on one System,
// enter disjoint slices of the UF1 orders at once (SF 0.01's set, fifteen
// orders keyed above the loaded population); the order tables must then
// hold exactly what one session entering them all leaves.
func TestConcurrentBatchInputSessions(t *testing.T) {
	var orders []*dbgen.Order
	dbgen.New(0.01).UF1Orders(func(o *dbgen.Order) error {
		orders = append(orders, o)
		return nil
	})
	concurrent, _ := installedSys(t, Release22)
	const sessions = 4
	var wg sync.WaitGroup
	for w := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := concurrent.NewBatchInput(1)
			for i := w; i < len(orders); i += sessions {
				if err := b.EnterOrder(orders[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	serial, _ := installedSys(t, Release22)
	b := serial.NewBatchInput(1)
	for _, o := range orders {
		if err := b.EnterOrder(o); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"VBAK", "VBAP", "VBEP", "KONV"} {
		got, want := renderPhysical(t, concurrent, concurrent.Table(name)), renderPhysical(t, serial, serial.Table(name))
		if !slices.Equal(got, want) {
			t.Errorf("%s: %d rows after the concurrent sessions, %d after one", name, len(got), len(want))
		}
	}
}

// TestConcurrentSetBufferedChurn races buffer enable/replace/disable
// (retiring counters into the cumulative bucket) against lookups and
// BufferStatsAll: the System buffer registry and the retired-stats fold
// must hold up when an operator re-sizes buffers mid-workload.
func TestConcurrentSetBufferedChurn(t *testing.T) {
	sys, g := installedSys(t, Release22)
	n := int64(g.NumParts())
	rowBytes := maraRowBytes(sys)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	churned := make(chan struct{}) // closed when the churn has ended

	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := sys.OpenSQL(cost.NewMeter(sys.DB.Model()))
			// Passes over the keys go on for as long as the buffer churns —
			// however fast a lookup is, the two overlap — and one more runs
			// against the buffer the churn leaves enabled.
			for last := false; ; {
				for i := int64(1); i <= n; i++ {
					if _, ok, err := o.SelectSingle("MARA", []Cond{Eq("MATNR", val.Str(Key16(i)))}); err != nil || !ok {
						errs <- fmt.Errorf("lookup %d: ok=%v err=%v", i, ok, err)
						return
					}
				}
				if last {
					return
				}
				select {
				case <-churned:
					last = true
				default:
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(churned)
		for i := 0; i < 20; i++ {
			sys.SetBuffered("MARA", rowBytes*int64(16+i))
			sys.BufferStatsAll()
			sys.SetBuffered("MARA", 0) // disable: counters fold into retired
		}
		sys.SetBuffered("MARA", rowBytes*(n+8))
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The cumulative view must have survived every retire cycle.
	var total int64
	for _, st := range sys.BufferStatsAll() {
		if st.Table == "MARA" {
			total = st.Hits + st.Misses
		}
	}
	if total == 0 {
		t.Fatal("retired buffer counters lost across SetBuffered churn")
	}
}
