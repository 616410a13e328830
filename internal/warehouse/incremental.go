package warehouse

import (
	"fmt"
	"io"
	"time"

	"r3bench/internal/dbgen"
	"r3bench/internal/r3"
	"r3bench/internal/val"
)

// Incremental maintenance — the paper's stated future work ("the
// maintenance costs for incrementally propagating updates (insertions,
// deletions and modifications) to the data warehouse"). Instead of
// re-extracting everything, the delta of one update-function pair is
// propagated: the new orders' rows are re-extracted through the same Open
// SQL reports and the deleted orders are emitted as tombstones for the
// warehouse loader.
//
// The stream format is line-oriented:
//
//	O|<orders.tbl row>     full 9-field ORDER payload
//	L|<lineitem.tbl row>   full 16-field LINEITEM payload
//	D|<orderkey>|          tombstone: drop every fact row of that order
//
// The O/L payloads are the corresponding full-extract rows — the same
// report functions write them — so Warehouse.ApplyDelta and Warehouse.Build
// parse both with the tables' ParseLine.

// tombstone is a D| line's payload: the primary key of ORDERS, written the
// way orders.tbl writes it.
var tombstone = &dbgen.Table{Name: "tombstone", Cols: dbgen.OrdersTable.Cols[:1], PK: []int{0}}

// deltaTags maps a stream line's tag to the descriptor of its payload.
var deltaTags = map[string]*dbgen.Table{"O": dbgen.OrdersTable, "L": dbgen.LineitemTable, "D": tombstone}

// Delta is one incremental maintenance batch.
type Delta struct {
	InsertedOrders int64
	InsertedLines  int64
	Elapsed        time.Duration
}

// ExtractDelta re-extracts exactly the given order keys (ORDER and
// LINEITEM rows) into w, and records the delete set as tombstone lines
// ("D|orderkey|"). The cost charged is the paper's point: even the
// incremental path pays per-row Open SQL re-joining, so maintenance cost
// is proportional to the delta at the same per-row price as the initial
// construction.
func (e *Extractor) ExtractDelta(inserted []int64, deleted []int64, w io.Writer) (*Delta, error) {
	start := e.Meter().Elapsed()
	d := &Delta{}
	for _, key := range inserted {
		vbeln := val.Str(r3.Key16(key))
		// Re-extract the order header through the dictionary.
		hdr, ok, err := e.o.SelectSingle("VBAK", []r3.Cond{r3.Eq("VBELN", vbeln)})
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("warehouse: delta order %d not found", key)
		}
		row, err := e.orderRow(hdr)
		if err != nil {
			return nil, err
		}
		if err := writeLine(w, "O|", dbgen.OrdersTable, row); err != nil {
			return nil, err
		}
		d.InsertedOrders++
		// And its lineitems, re-joining VBAP/VBEP/KONV/STXL per row
		// exactly as the full extraction does.
		err = e.o.Select("VBAP", []r3.Cond{r3.Eq("VBELN", vbeln)}, func(p r3.Row) error {
			row, err := e.lineitemRow(p)
			if err != nil || row == nil {
				return err
			}
			d.InsertedLines++
			return writeLine(w, "L|", dbgen.LineitemTable, row)
		})
		if err != nil {
			return nil, err
		}
	}
	for _, key := range deleted {
		if err := writeLine(w, "D|", tombstone, []val.Value{val.Int(key)}); err != nil {
			return nil, err
		}
	}
	d.Elapsed = e.Meter().Lap(start)
	return d, nil
}
