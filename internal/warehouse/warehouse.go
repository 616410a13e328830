// Package warehouse implements the data-warehouse construction study of
// the paper's Section 5: Open SQL extraction reports that reconstruct the
// original eight TPC-D tables as ASCII files from the SAP database. The
// paper's finding — extraction costs about as much as a whole power test,
// because the reports must re-join the vertically partitioned data
// through SAP's interfaces — falls out of the same per-row mechanics the
// query experiments use.
package warehouse

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/r3"
	"r3bench/internal/val"
)

// Extractor runs the extraction reports over one R/3 system.
type Extractor struct {
	o *r3.OpenSQL
}

// New opens an extractor with its own virtual clock.
func New(sys *r3.System) *Extractor {
	return &Extractor{o: sys.OpenSQL(cost.NewMeter(sys.DB.Model()))}
}

// Meter exposes the extractor's virtual clock.
func (e *Extractor) Meter() *cost.Meter { return e.o.Meter() }

// TableResult is one extracted table's accounting.
type TableResult struct {
	Table   string
	Rows    int64
	Elapsed time.Duration
}

// extracts lists the extraction reports in the paper's Table 9 order. A
// report scans its leading SAP table and, per row, re-joins what the
// original table's row needs; it hands the row to the table's descriptor,
// which owns the column order and the .tbl format.
var extracts = []struct {
	name string // Table 9's row label: the paper writes ORDER for ORDERS
	t    *dbgen.Table
	from string
	row  func(e *Extractor, r r3.Row) ([]val.Value, error) // a nil row: nothing to extract here
}{
	{"REGION", dbgen.RegionTable, "T005U", (*Extractor).regionRow},
	{"NATION", dbgen.NationTable, "T005", (*Extractor).nationRow},
	{"SUPPLIER", dbgen.SupplierTable, "LFA1", (*Extractor).supplierRow},
	{"PART", dbgen.PartTable, "MARA", (*Extractor).partRow},
	{"PARTSUPP", dbgen.PartSuppTable, "EINA", (*Extractor).partSuppRow},
	{"CUSTOMER", dbgen.CustomerTable, "KNA1", (*Extractor).customerRow},
	{"ORDER", dbgen.OrdersTable, "VBAK", (*Extractor).orderRow},
	{"LINEITEM", dbgen.LineitemTable, "VBAP", (*Extractor).lineitemRow},
}

// ExtractAll reconstructs every original table into dir as .tbl files,
// timing each (the paper's Table 9).
func (e *Extractor) ExtractAll(dir string) ([]TableResult, error) {
	var out []TableResult
	for _, x := range extracts {
		f, err := os.Create(filepath.Join(dir, x.t.File))
		if err != nil {
			return nil, err
		}
		w := bufio.NewWriter(f)
		start := e.Meter().Elapsed()
		rows, err := e.Extract(x.name, w)
		if err != nil {
			f.Close()
			return nil, err
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		out = append(out, TableResult{Table: x.name, Rows: rows, Elapsed: e.Meter().Lap(start)})
	}
	return out, nil
}

// Extract reconstructs one original TPC-D table, writing pipe-delimited
// rows.
func (e *Extractor) Extract(name string, w io.Writer) (int64, error) {
	for _, x := range extracts {
		if !strings.EqualFold(name, x.name) && !strings.EqualFold(name, x.t.Name) {
			continue
		}
		var n int64
		err := e.o.Select(x.from, nil, func(r r3.Row) error {
			row, err := x.row(e, r)
			if err != nil || row == nil {
				return err
			}
			n++
			return writeLine(w, "", x.t, row)
		})
		return n, err
	}
	return 0, fmt.Errorf("warehouse: unknown table %s", name)
}

// writeLine writes row as one line of t's .tbl format behind tag (the delta
// stream's "O|" and "L|"; empty in a .tbl file).
func writeLine(w io.Writer, tag string, t *dbgen.Table, row []val.Value) error {
	_, err := w.Write(t.AppendLine([]byte(tag), row))
	return err
}

// comment reads an object's STXL text.
func (e *Extractor) comment(object string, name val.Value) (val.Value, error) {
	row, _, err := e.o.SelectSingle("STXL", []r3.Cond{
		r3.Eq("TDOBJECT", val.Str(object)), r3.Eq("TDNAME", name),
		r3.Eq("TDID", val.Str("0001")), r3.Eq("TDSPRAS", val.Str("EN"))})
	return row.Get("CLUSTD"), err
}

func (e *Extractor) regionRow(r r3.Row) ([]val.Value, error) {
	cmt, err := e.comment("T005U", r.Get("BLAND"))
	return []val.Value{r.Get("BLAND"), r.Get("BEZEI"), cmt}, err
}

func (e *Extractor) nationRow(r r3.Row) ([]val.Value, error) {
	t, ok, err := e.o.SelectSingle("T005T", []r3.Cond{
		r3.Eq("SPRAS", val.Str("EN")), r3.Eq("LAND1", r.Get("LAND1"))})
	if err != nil || !ok {
		return nil, err
	}
	cmt, err := e.comment("T005", r.Get("LAND1"))
	return []val.Value{r.Get("LAND1"), t.Get("LANDX"), r.Get("LANDK"), cmt}, err
}

func (e *Extractor) supplierRow(r r3.Row) ([]val.Value, error) {
	cmt, err := e.comment("LFA1", r.Get("LIFNR"))
	return []val.Value{r.Get("LIFNR"), r.Get("NAME1"), r.Get("STRAS"),
		r.Get("LAND1"), r.Get("TELF1"), r.Get("ACCBL"), cmt}, err
}

func (e *Extractor) partRow(r r3.Row) ([]val.Value, error) {
	matnr := r.Get("MATNR")
	mk, ok, err := e.o.SelectSingle("MAKT", []r3.Cond{
		r3.Eq("MATNR", matnr), r3.Eq("SPRAS", val.Str("EN"))})
	if err != nil || !ok {
		return nil, err
	}
	// Characteristics.
	attr := func(name string) (val.Value, error) {
		row, _, err := e.o.SelectSingle("AUSP", []r3.Cond{
			r3.Eq("OBJEK", matnr), r3.Eq("ATINN", val.Str(name)), r3.Eq("KLART", val.Str("001"))})
		if err != nil {
			return val.Null, err
		}
		if row.Get("ATWRT").AsStr() != "" {
			return row.Get("ATWRT"), nil
		}
		return row.Get("ATFLV"), nil
	}
	size, err := attr("SIZE")
	if err != nil {
		return nil, err
	}
	brand, err := attr("BRAND")
	if err != nil {
		return nil, err
	}
	container, err := attr("CONTAINER")
	if err != nil {
		return nil, err
	}
	// Retail price via the A004 pool table and KONP.
	price := val.Float(0)
	a, ok, err := e.o.SelectSingle("A004", []r3.Cond{
		r3.Eq("KAPPL", val.Str("V")), r3.Eq("KSCHL", val.Str("PR00")), r3.Eq("MATNR", matnr)})
	if err != nil {
		return nil, err
	}
	if ok {
		kp, ok2, err := e.o.SelectSingle("KONP", []r3.Cond{
			r3.Eq("KNUMH", a.Get("KNUMH")), r3.Eq("KOPOS", val.Str("01"))})
		if err != nil {
			return nil, err
		}
		if ok2 {
			price = kp.Get("KBETR")
		}
	}
	cmt, err := e.comment("MARA", matnr)
	return []val.Value{matnr, mk.Get("MAKTX"), r.Get("MFRNR"), brand, r.Get("MTART"),
		size, container, price, cmt}, err
}

func (e *Extractor) partSuppRow(r r3.Row) ([]val.Value, error) {
	ie, ok, err := e.o.SelectSingle("EINE", []r3.Cond{
		r3.Eq("INFNR", r.Get("INFNR")), r3.Eq("EKORG", val.Str("0001"))})
	if err != nil || !ok {
		return nil, err
	}
	cmt, err := e.comment("EINA", r.Get("INFNR"))
	return []val.Value{r.Get("MATNR"), r.Get("LIFNR"), ie.Get("NORBM"), ie.Get("NETPR"), cmt}, err
}

func (e *Extractor) customerRow(r r3.Row) ([]val.Value, error) {
	cmt, err := e.comment("KNA1", r.Get("KUNNR"))
	return []val.Value{r.Get("KUNNR"), r.Get("NAME1"), r.Get("STRAS"), r.Get("LAND1"),
		r.Get("TELF1"), r.Get("ACCBL"), r.Get("BRSCH"), cmt}, err
}

// orderRow and lineitemRow serve both the full extraction and ExtractDelta,
// so a delta's O| and L| payloads equal the .tbl lines byte for byte.
func (e *Extractor) orderRow(r r3.Row) ([]val.Value, error) {
	cmt, err := e.comment("VBAK", r.Get("VBELN"))
	return []val.Value{r.Get("VBELN"), r.Get("KUNNR"), r.Get("GBSTK"), r.Get("NETWR"),
		r.Get("AUDAT"), r.Get("SUBMI"), r.Get("ERNAM"), r.Get("LPRIO"), cmt}, err
}

func (e *Extractor) lineitemRow(r r3.Row) ([]val.Value, error) {
	vbeln, posnr := r.Get("VBELN"), r.Get("POSNR")
	ep, ok, err := e.o.SelectSingle("VBEP", []r3.Cond{
		r3.Eq("VBELN", vbeln), r3.Eq("POSNR", posnr), r3.Eq("ETENR", val.Str("0001"))})
	if err != nil || !ok {
		return nil, err
	}
	// The pricing conditions: a cluster read in 2.2, transparent in a
	// converted 3.0 system — either way through Open SQL.
	var discRate, taxRate float64
	err = e.o.Select("KONV", []r3.Cond{
		r3.Eq("KNUMV", vbeln), r3.Eq("KPOSN", posnr)}, func(k r3.Row) error {
		switch strings.TrimSpace(k.Get("KSCHL").AsStr()) {
		case "DISC":
			discRate = -k.Get("KBETR").AsFloat() / 1000
		case "TAX":
			taxRate = k.Get("KBETR").AsFloat() / 1000
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cmt, err := e.comment("VBAP", val.Str(vbeln.AsStr()+posnr.AsStr()))
	return []val.Value{vbeln, r.Get("MATNR"), r.Get("LIFNR"), posnr, r.Get("KWMENG"), r.Get("NETWR"),
		val.Float(discRate), val.Float(taxRate), r.Get("ABGRU"), ep.Get("LFSTA"),
		ep.Get("EDATU"), ep.Get("WADAT"), ep.Get("MBDAT"), r.Get("SDABW"), r.Get("VSBED"), cmt}, err
}
