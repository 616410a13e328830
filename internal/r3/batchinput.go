package r3

import (
	"time"

	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/val"
)

// BatchInput is the facility of paper Section 2.4: it reads records from
// an external source and "simulates" interactive data entry, invoking all
// application programs that interpret and check the consistency of the
// input. That is why it is so slow: every record pays the full dialog
// pipeline (validations, existence checks, number-range access) and is
// inserted tuple-at-a-time with a commit per transaction — the bulk
// loading interface of the RDBMS is never used.
//
// Parallel batch-input processes (the paper tunes loading to two) are
// modelled as lanes: whole records round-robin onto lanes, each lane
// charging its own meter, and elapsed time is the slowest lane — the same
// combining rule (elapsed = max, resources = sum) the engine's parallel
// executor uses, via cost.Lanes.
type BatchInput struct {
	sys     *System
	lanes   []*OpenSQL // one Open SQL session per lane, charging meters[i]
	meters  cost.Lanes
	next    int
	records int64
	cur     *OpenSQL // the open record's lane; nil between records
	anchor  string   // the open record's anchor table

	// The entity stream being entered, the records before it, and Load's
	// per-stream callback.
	stream string
	from   int64
	mark   func(anchor string, records int64)
}

// dialogScale calibrates the per-record dialog cost by anchor table, in
// Check events — hundredths of a full 2.9 s check — derived from the
// paper's Table 3 (seconds per record at two workers): orders/lineitems
// ≈ 2.9 s, parts ≈ 2.9 s, customers ≈ 1.8 s, partsupps ≈ 1.4 s,
// suppliers ≈ 1.1 s.
var dialogScale = map[string]int64{
	"VBAK": 100, "VBAP": 100, "MARA": 100,
	"KNA1": 62, "EINA": 47, "LFA1": 37,
	"T005": 10, "T005U": 10,
}

// dialogCheck is one existence check of the dialog: a SELECT SINGLE on the
// check table, keyed by the anchor row's field of the same name.
type dialogCheck struct{ table, field string }

// dialogChecks lists, per anchor table, the existence checks another
// application program runs before a record's anchor row is inserted. The
// line item's pricing read (A004, then the KONP position it names) is the
// one check whose key is not a field of the row, so it is coded in add.
var dialogChecks = map[string][]dialogCheck{
	"LFA1": {{"T005", "LAND1"}},
	"KNA1": {{"T005", "LAND1"}},
	"EINA": {{"MARA", "MATNR"}, {"LFA1", "LIFNR"}},
	"VBAK": {{"KNA1", "KUNNR"}},
	"VBAP": {{"MARA", "MATNR"}, {"LFA1", "LIFNR"}},
}

// NewBatchInput opens a batch-input session with its own virtual clock.
func (sys *System) NewBatchInput(workers int) *BatchInput {
	return sys.NewBatchInputWithMeter(workers, cost.NewMeter(sys.DB.Model()))
}

// NewBatchInputWithMeter opens a batch-input session whose first lane
// charges an existing meter (the power test's update functions share the
// report's clock); additional lanes get fresh meters.
func (sys *System) NewBatchInputWithMeter(workers int, m *cost.Meter) *BatchInput {
	if workers < 1 {
		workers = 1
	}
	b := &BatchInput{sys: sys, meters: append(cost.Lanes{m}, cost.NewLanes(sys.DB.Model(), workers-1)...)}
	for _, lm := range b.meters {
		b.lanes = append(b.lanes, sys.OpenSQL(lm))
	}
	return b
}

// Meter returns a snapshot of total resource consumption across all
// lanes (serial combining rule: everything sums).
func (b *BatchInput) Meter() *cost.Meter { return b.meters.Total(b.sys.DB.Model()) }

// Elapsed returns the simulated wall time: the slowest lane, since the
// parallel batch-input processes overlap.
func (b *BatchInput) Elapsed() time.Duration { return b.meters.Elapsed() }

// Records returns how many records were entered.
func (b *BatchInput) Records() int64 { return b.records }

// BatchInput is the third populationSink: the dialog takes every table.
func (b *BatchInput) wants(...string) bool { return true }

// record ends the record before with its commit — a line item (VBAP) is
// the exception: it joins its order's document —, puts a new record on the
// next lane round-robin and charges the lane the record's dialog. A record
// opening a new entity stream first reports the one that ended to mark.
func (b *BatchInput) record(anchor string) {
	if anchor != "VBAP" {
		b.commit()
		if anchor != b.stream {
			b.endStream(anchor)
		}
		b.cur = b.lanes[b.next%len(b.lanes)]
		b.next++
	}
	b.anchor = anchor
	b.cur.Meter().Charge(cost.Check, dialogScale[anchor])
	b.records++
}

// add runs the record's existence checks on its anchor row — the check
// table's, then a line item's pricing read — and inserts the rows through
// Open SQL. The checks' answers are not used, only what they charge.
func (b *BatchInput) add(table string, rows ...F) error {
	o := b.cur
	if table == b.anchor {
		for _, c := range dialogChecks[table] {
			o.SelectSingle(c.table, []Cond{Eq(c.field, rows[0][c.field])})
		}
		if table == "VBAP" {
			// Pricing: find the condition record through A004 (a pool-table
			// read) and its KONP position.
			if cond, ok, _ := o.SelectSingle("A004", []Cond{
				Eq("KAPPL", str("V")), Eq("KSCHL", str("PR00")), Eq("MATNR", rows[0]["MATNR"])}); ok {
				o.SelectSingle("KONP", []Cond{Eq("KNUMH", cond.Get("KNUMH")), Eq("KOPOS", str("01"))})
			}
		}
	}
	return o.InsertGroup(table, rows)
}

// commit ends the record being entered, if there is one.
func (b *BatchInput) commit() {
	if b.cur != nil {
		b.cur.Commit()
		b.cur = nil
	}
}

// endStream reports the entity stream that ended to Load's mark and starts
// counting the stream next opens.
func (b *BatchInput) endStream(next string) {
	if b.mark != nil && b.stream != "" {
		b.mark(b.stream, b.records-b.from)
	}
	b.stream, b.from = next, b.records
}

// Load enters the whole population through the dialog, in Table 3's
// entity order. mark, if not nil, is called once per entity stream — named
// by its anchor table — after that stream's last commit, with the records
// the stream entered.
func (b *BatchInput) Load(g *dbgen.Generator, mark func(anchor string, records int64)) error {
	b.mark = mark
	defer func() { b.mark = nil }()
	if err := walkPopulation(g, b); err != nil {
		return err
	}
	b.commit()
	b.endStream("")
	return nil
}

// EnterOrder enters one sales order with all its items — the transaction
// whose per-record checking makes the paper's ORDER+LINEITEM load take
// 25 days 19 hours 55 minutes. Every item re-validates material, vendor
// and pricing before the document commits as one unit.
func (b *BatchInput) EnterOrder(o *dbgen.Order) error {
	if err := walkOrder(o, b); err != nil {
		return err
	}
	b.commit()
	return nil
}

// DeleteOrder removes an order dialog-style (used by update function
// UF2): the document and all dependent rows go, with the same per-record
// checking discipline.
func (b *BatchInput) DeleteOrder(orderKey int64) error {
	vbeln := Key16(orderKey)
	b.record("VBAK")
	o := b.cur
	// Collect the items first (the dialog reads the document).
	var posnrs []string
	err := o.Select("VBAP", []Cond{Eq("VBELN", val.Str(vbeln))}, func(r Row) error {
		posnrs = append(posnrs, r.Get("POSNR").AsStr())
		return nil
	})
	if err != nil {
		return err
	}
	for _, p := range posnrs {
		b.record("VBAP")
		if err := o.Delete("VBAP", val.Str(vbeln), val.Str(p)); err != nil {
			return err
		}
		if err := o.Delete("VBEP", val.Str(vbeln), val.Str(p)); err != nil {
			return err
		}
		if err := o.Delete("STXL", val.Str("VBAP"), val.Str(vbeln+p)); err != nil {
			return err
		}
	}
	if err := o.Delete("KONV", val.Str(vbeln)); err != nil {
		return err
	}
	if err := o.Delete("VBAK", val.Str(vbeln)); err != nil {
		return err
	}
	if err := o.Delete("STXL", val.Str("VBAK"), val.Str(vbeln)); err != nil {
		return err
	}
	b.commit()
	return nil
}
