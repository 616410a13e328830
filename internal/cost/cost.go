// Package cost implements the virtual clock that stands in for the paper's
// 1996 hardware (Sun SPARCstation 20/612MP, 60 MHz CPUs, Seagate ST15230N
// disks).
//
// Every measured experiment in the paper is dominated by a handful of
// physical events: sequential and random page I/O, per-tuple CPU work,
// client/server interface crossings, and SAP R/3's per-record consistency
// checks. Instead of timing a 2026 in-memory engine with a wall clock —
// which would erase every I/O-bound effect the paper reports — each such
// event charges a calibrated amount of simulated time to a Meter. Reports
// and the benchmark harness then print simulated durations whose *ratios*
// (who wins, by what factor, where crossovers fall) are comparable to the
// paper's tables.
//
// The constants in Model are calibrated once, against a 1996-era budget,
// and never tuned per query (see DESIGN.md §4).
package cost

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Kind labels a charged event class for breakdown reporting.
type Kind int

// Event classes charged against the virtual clock.
const (
	SeqRead      Kind = iota // sequential page read from disk
	RandRead                 // random page read (seek + rotational delay)
	PageWrite                // page write
	TupleCPU                 // per-tuple CPU work (predicate eval, copy, hash)
	SortCPU                  // per-comparison sort work
	Interface                // client/server round trip (one call)
	RowShip                  // one result row shipped across the interface
	Translate                // Open SQL → SQL translation of one statement
	Decode                   // decode of one pool/cluster tuple
	Check                    // one hundredth of a batch-input consistency check
	Commit                   // one transaction commit (log force)
	ReadAhead                // one batched sequential readahead window (several pages, one charge)
	RowShipBatch             // one array-fetch packet shipped across the interface (several rows, one charge)
	NetShip                  // one row shipped between engine shards over the network
	WalWrite                 // one write-ahead-log page appended to the log file
	Optimize                 // one parse+optimize round of a statement
	NetPacket                // one exchange packet's protocol overhead between shards
	NumKinds
)

var kindNames = [...]string{
	"seq-read", "rand-read", "page-write", "tuple-cpu", "sort-cpu",
	"interface", "row-ship", "translate", "decode", "check", "commit",
	"readahead", "row-ship-batch", "net-ship", "wal-write", "optimize",
	"net-packet",
}

// String returns the stable lower-case name of the event class.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Model maps event classes to simulated durations: a simulated time is
// always Σ Count(k) × PerEvent[k]. The zero value is not useful; start
// from Default1996.
type Model struct {
	PerEvent [NumKinds]time.Duration
}

// Default1996 returns the calibrated cost model used for all experiments.
//
// Calibration sketch (see EXPERIMENTS.md for the resulting fits):
//   - Seagate ST15230N-class disk: ~8 ms average seek+rotate per random
//     page, ~1 ms per 8 KB page sequential.
//   - 60 MHz SuperSPARC: ~5 µs of CPU per tuple touched.
//   - Local (same-machine) client/server IPC: ~0.4 ms per call, ~120 µs
//     per row shipped through the database interface layers (the paper's
//     Section 4.2 hinges on tuple shipping being expensive).
//   - SAP batch input: the paper loads 1.5M ORDER+LINEITEM records in
//     25d 19h 55m with two parallel workers ⇒ ≈2.9 s of checking per
//     record, charged as 100 Check events of 29 ms so that the lighter
//     dialogs are whole counts too.
//   - Parse+optimize of one statement: ~4 ms, paid on every Exec and
//     Prepare and avoided by a reopened cached cursor.
func Default1996() Model {
	var m Model
	m.PerEvent[SeqRead] = 1 * time.Millisecond
	m.PerEvent[RandRead] = 8 * time.Millisecond
	m.PerEvent[PageWrite] = 2 * time.Millisecond
	m.PerEvent[TupleCPU] = 5 * time.Microsecond
	m.PerEvent[SortCPU] = 2 * time.Microsecond
	m.PerEvent[Interface] = 400 * time.Microsecond
	m.PerEvent[RowShip] = 120 * time.Microsecond
	m.PerEvent[Translate] = 1 * time.Millisecond
	m.PerEvent[Decode] = 30 * time.Microsecond
	m.PerEvent[Check] = 29 * time.Millisecond
	m.PerEvent[Commit] = 15 * time.Millisecond
	// A readahead window is one sequential multi-page transfer: the disk
	// streams the whole window off the track in roughly the time of a
	// single-page sequential read, so the per-page cost collapses into
	// one charge per window (DESIGN.md §9).
	m.PerEvent[ReadAhead] = 1 * time.Millisecond
	// An array-fetch packet ships up to ArrayFetchRows result rows in one
	// interface buffer copy: the round trip and context switch that make
	// RowShip expensive are paid once per packet, not once per tuple
	// (DESIGN.md §10). The round trip dominates, so a packet costs only
	// ~25% more than a single-row ship (the larger buffer copy); full
	// packets move rows ~80x cheaper, and a one-row result (the SELECT
	// SINGLE pattern) pays just that small partial-packet overhead.
	m.PerEvent[RowShipBatch] = 150 * time.Microsecond
	// Cross-shard exchange over a 1996-era switched 100 Mbit segment:
	// ~200 bytes on the wire per row ⇒ ~16 µs of transfer, charged per
	// row; the per-packet protocol latency is NetPacket's
	// (ChargeNetShip), mirroring the array interface's packet model. The
	// network row is an order of magnitude cheaper than a RowShip — the
	// interface crossing of Tables 4/5 was context switches and buffer
	// copies, not wire time — but it is not free, which is exactly where
	// the paper's lesson reappears at scale-out (DESIGN.md §13).
	m.PerEvent[NetShip] = 16 * time.Microsecond
	// The write-ahead log lives at the start of its own disk region and is
	// only ever appended to, so a log page goes out at sequential-transfer
	// speed. The expensive part of commit — waiting out the rotational
	// latency of the force — stays in Commit; WalWrite is just the
	// streaming of log bytes, which is why group commit amortizes Commit
	// across a batch but still pays WalWrite per page (DESIGN.md §14).
	m.PerEvent[WalWrite] = 1 * time.Millisecond
	m.PerEvent[Optimize] = 4 * time.Millisecond
	// One exchange packet's protocol overhead (syscall, protocol stack,
	// switch latency) on the 1996 network.
	m.PerEvent[NetPacket] = 400 * time.Microsecond
	return m
}

// ArrayFetchRows is the packet granularity of the array interface: one
// RowShipBatch event covers up to this many rows. Partial packets cost a
// full charge — the buffer is copied regardless of fill.
const ArrayFetchRows = 100

// NetPacketRows is the exchange packet granularity: rows cross between
// shards in packets of up to this many rows, each paying one NetPacket
// on top of the per-row NetShip transfer time.
const NetPacketRows = 100

// ChargeNetShip charges m for shipping n rows between shards: n NetShip
// row transfers plus one NetPacket per started packet of NetPacketRows
// rows. It returns the packet count. Zero rows are free — an exchange
// with nothing to send makes no round trip.
func ChargeNetShip(m *Meter, n int64) int64 {
	if n <= 0 {
		return 0
	}
	packets := (n + NetPacketRows - 1) / NetPacketRows
	m.Charge(NetShip, n)
	m.Charge(NetPacket, packets)
	return packets
}

// ChargeComparisons charges m the ⌊n·log₂k⌋ SortCPU comparisons of
// merging n rows out of k sorted runs; a comparison sort of n rows is
// k = n. Fewer than two rows or runs compare nothing.
func ChargeComparisons(m *Meter, n, k int64) {
	if n > 1 && k > 1 {
		m.Charge(SortCPU, int64(float64(n)*math.Log2(float64(k))))
	}
}

// UniformIO returns a copy of m in which random reads cost the same as
// sequential reads. Used by the cost-model ablation (DESIGN.md §4) to show
// that Table 6's access-path blunder is an I/O effect, not a constant.
func (m Model) UniformIO() Model {
	m.PerEvent[RandRead] = m.PerEvent[SeqRead]
	return m
}

// Meter accumulates simulated time for one session: event counts per kind
// and the elapsed total, which the parallel combining rule (AddParallel)
// keeps below the counts' priced sum. It is safe for concurrent use so
// that parallel batch-input workers can share a wall clock while charging
// their own lanes.
type Meter struct {
	mu      sync.Mutex
	model   Model
	total   time.Duration
	nEvents [NumKinds]int64
	cur     *Span // attribution target for subsequent charges, may be nil
}

// NewMeter returns a Meter charging against the given model.
func NewMeter(model Model) *Meter {
	return &Meter{model: model}
}

// Charge adds n events of class k.
func (m *Meter) Charge(k Kind, n int64) {
	if n == 0 {
		return
	}
	d := m.model.price(k, n)
	m.mu.Lock()
	m.total += d
	m.nEvents[k] += n
	cur := m.cur
	m.mu.Unlock()
	if cur != nil {
		cur.add(k, d, n)
	}
}

// SetSpan installs s as the attribution target for subsequent charges and
// returns the previous target, so callers can scope a span push/pop style:
//
//	prev := m.SetSpan(op)
//	... charges land on op ...
//	m.SetSpan(prev)
//
// A nil s turns span attribution off. SetSpan never affects the meter's
// own totals.
func (m *Meter) SetSpan(s *Span) *Span {
	m.mu.Lock()
	prev := m.cur
	m.cur = s
	m.mu.Unlock()
	return prev
}

// Elapsed returns total simulated time charged so far.
func (m *Meter) Elapsed() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// Count returns the number of events charged under k.
func (m *Meter) Count(k Kind) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nEvents[k]
}

// ByKind returns the simulated time charged under k: its count at the
// meter's price.
func (m *Meter) ByKind(k Kind) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.model.price(k, m.nEvents[k])
}

// Model returns the meter's cost model.
func (m *Meter) Model() Model {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.model
}

// Lap returns simulated time elapsed since the given previous reading.
func (m *Meter) Lap(since time.Duration) time.Duration {
	return m.Elapsed() - since
}

// snapshot copies a meter's counters under its lock.
func (m *Meter) snapshot() (time.Duration, [NumKinds]int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total, m.nEvents
}

// AddParallel folds the meters of concurrently executing workers into m
// using the parallel combining rule: elapsed virtual time advances by the
// *maximum* worker elapsed (the lanes overlap on the wall clock), while
// per-kind resource totals and event counts accumulate as *sums* (every
// page was still read, every tuple still touched). It is how a session or
// cluster clock absorbs Lanes after Run: the engine's partition workers
// (a parallel drain and a parallel hash build) and the shard cluster's
// per-shard lanes.
//
// After a merge m's grand total is deliberately smaller than the sum of
// its priced counts: the difference is exactly the time hidden by
// overlapping the workers.
func (m *Meter) AddParallel(workers ...*Meter) { m.fold(true, workers) }

// AddSum folds src meters into m by plain summation of totals and event
// counts — the serial combining rule, used to report aggregate resource
// consumption across lanes.
func (m *Meter) AddSum(srcs ...*Meter) { m.fold(false, srcs) }

// fold adds the srcs' events to m, and to m's total either the largest
// src total (parallel) or their sum; nil srcs are skipped. The current
// span is credited with the same amounts.
func (m *Meter) fold(parallel bool, srcs []*Meter) {
	var elapsed time.Duration
	var events [NumKinds]int64
	for _, w := range srcs {
		if w == nil {
			continue
		}
		total, nEvents := w.snapshot()
		if !parallel {
			elapsed += total
		} else if total > elapsed {
			elapsed = total
		}
		for k := range events {
			events[k] += nEvents[k]
		}
	}
	m.mu.Lock()
	m.total += elapsed
	for k := range events {
		m.nEvents[k] += events[k]
	}
	cur := m.cur
	m.mu.Unlock()
	if cur != nil {
		cur.addCombined(elapsed, &events)
	}
}

// Breakdown renders a per-kind cost report, largest contributor first,
// omitting zero rows.
func (m *Meter) Breakdown() string {
	total, events := m.snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "total %s\n", Fmt(total))
	for _, k := range m.model.ranked(&events) {
		fmt.Fprintf(&b, "  %-10s %12s  (%d events)\n", k, Fmt(m.model.price(k, events[k])), events[k])
	}
	return b.String()
}

// price returns the simulated time of n events of class k.
func (m *Model) price(k Kind, n int64) time.Duration {
	return m.PerEvent[k] * time.Duration(n)
}

// ranked returns the kinds whose events cost time, the costliest first
// and equal costs in kind order.
func (m *Model) ranked(events *[NumKinds]int64) []Kind {
	var ks []Kind
	for k := Kind(0); k < NumKinds; k++ {
		if m.price(k, events[k]) > 0 {
			ks = append(ks, k)
		}
	}
	sort.SliceStable(ks, func(i, j int) bool {
		return m.price(ks[i], events[ks[i]]) > m.price(ks[j], events[ks[j]])
	})
	return ks
}

// Fmt formats a simulated duration the way the paper's tables do:
// "25d 19h 55m", "2h 14m 56s", "5m 17s", "34s", or sub-second values
// with millisecond precision.
func Fmt(d time.Duration) string {
	if d < 0 {
		return "-" + Fmt(-d)
	}
	if d < time.Second {
		return fmt.Sprintf("%dms", d.Milliseconds())
	}
	day := 24 * time.Hour
	days := d / day
	d -= days * day
	h := d / time.Hour
	d -= h * time.Hour
	m := d / time.Minute
	d -= m * time.Minute
	s := d / time.Second

	switch {
	case days > 0:
		return fmt.Sprintf("%dd %dh %dm", days, h, m)
	case h > 0:
		return fmt.Sprintf("%dh %dm %02ds", h, m, s)
	case m > 0:
		return fmt.Sprintf("%dm %02ds", m, s)
	default:
		return fmt.Sprintf("%ds", s)
	}
}
