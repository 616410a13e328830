package r3

import (
	"fmt"
	"strings"

	"r3bench/internal/dbgen"
	"r3bench/internal/val"
)

// This file maps TPC-D business entities onto the SAP schema (the
// vertical partitioning of the paper's Table 1), walks the population in
// one order for every loader, and provides the direct loader used to set
// up query experiments. Timed loading — the paper's Table 3 — walks the
// same population through the batch-input facility instead.

// F is shorthand for a logical row's field assignment.
type F = map[string]val.Value

// SAPRow is one logical row destined for an SAP table.
type SAPRow struct {
	Table  string
	Fields F
}

func str(s string) val.Value { return val.Str(s) }

// stxl builds the comment-text row all objects share.
func stxl(object, name, text string) SAPRow {
	return SAPRow{"STXL", F{"TDOBJECT": str(object), "TDNAME": str(name),
		"TDID": str("0001"), "TDSPRAS": str("EN"), "CLUSTD": str(text)}}
}

// NationRows maps one NATION record (paper: T005, T005T + text).
func NationRows(n dbgen.Nation) []SAPRow {
	key := Key16(n.Key)
	return []SAPRow{
		{"T005", F{"LAND1": str(key), "LANDK": str(Key16(n.RegionKey)),
			"WAERS": str("USD"), "SPRAS": str("EN")}},
		{"T005T", F{"SPRAS": str("EN"), "LAND1": str(key), "LANDX": str(n.Name),
			"NATIO": str(n.Name)}},
		stxl("T005", key, n.Comment),
	}
}

// RegionRows maps one REGION record (T005U + text).
func RegionRows(r dbgen.Region) []SAPRow {
	key := Key16(r.Key)
	return []SAPRow{
		{"T005U", F{"SPRAS": str("EN"), "BLAND": str(key), "BEZEI": str(r.Name)}},
		stxl("T005U", key, r.Comment),
	}
}

// SupplierRows maps one SUPPLIER record (LFA1 + text).
func SupplierRows(s dbgen.Supplier) []SAPRow {
	key := Key16(s.Key)
	return []SAPRow{
		{"LFA1", F{"LIFNR": str(key), "NAME1": str(s.Name), "STRAS": str(s.Address),
			"LAND1": str(Key16(s.NationKey)), "TELF1": str(s.Phone),
			"ACCBL": val.Float(s.AcctBal)}},
		stxl("LFA1", key, s.Comment),
	}
}

// PartRows maps one PART record across MARA, MAKT, A004 (pool), KONP and
// AUSP characteristic rows — the paper's point that one TPC-D table
// shatters into many SAP tables.
func PartRows(p dbgen.Part) []SAPRow {
	key := Key16(p.Key)
	knumh := key // condition record number mirrors the material number
	return []SAPRow{
		{"MARA", F{"MATNR": str(key), "MTART": str(p.Type), "MFRNR": str(p.Mfgr),
			"MEINS": str("EA")}},
		{"MAKT", F{"MATNR": str(key), "SPRAS": str("EN"), "MAKTX": str(p.Name),
			"MAKTG": str(strings.ToUpper(p.Name))}},
		{"A004", F{"KAPPL": str("V"), "KSCHL": str("PR00"), "MATNR": str(key),
			"KNUMH": str(knumh), "DATAB": val.DateFromYMD(1992, 1, 1),
			"DATBI": val.DateFromYMD(1999, 12, 31)}},
		{"KONP", F{"KNUMH": str(knumh), "KOPOS": str("01"), "KSCHL": str("PR00"),
			"KBETR": val.Float(p.RetailPrice), "KONWA": str("USD")}},
		{"AUSP", F{"OBJEK": str(key), "ATINN": str("SIZE"), "KLART": str("001"),
			"ATFLV": val.Float(float64(p.Size))}},
		{"AUSP", F{"OBJEK": str(key), "ATINN": str("BRAND"), "KLART": str("001"),
			"ATWRT": str(p.Brand)}},
		{"AUSP", F{"OBJEK": str(key), "ATINN": str("CONTAINER"), "KLART": str("001"),
			"ATWRT": str(p.Container)}},
		stxl("MARA", key, p.Comment),
	}
}

// InfnrFor derives the purchasing-info-record number of a (part, j)
// combination — the EINA/EINE key.
func InfnrFor(partKey int64, j int) string {
	return Key16((partKey-1)*4 + int64(j) + 1)
}

// PartSuppRows maps one PARTSUPP record (EINA, EINE + text). j is the
// supplier's ordinal (0–3) within the part.
func PartSuppRows(ps dbgen.PartSupp, j int) []SAPRow {
	infnr := InfnrFor(ps.PartKey, j)
	return []SAPRow{
		{"EINA", F{"INFNR": str(infnr), "MATNR": str(Key16(ps.PartKey)),
			"LIFNR": str(Key16(ps.SuppKey))}},
		{"EINE", F{"INFNR": str(infnr), "EKORG": str("0001"),
			"NORBM": val.Float(float64(ps.AvailQty)), "NETPR": val.Float(ps.SupplyCost),
			"APLFZ": val.Float(0)}},
		stxl("EINA", infnr, ps.Comment),
	}
}

// CustomerRows maps one CUSTOMER record (KNA1 + text).
func CustomerRows(c dbgen.Customer) []SAPRow {
	key := Key16(c.Key)
	return []SAPRow{
		{"KNA1", F{"KUNNR": str(key), "NAME1": str(c.Name), "STRAS": str(c.Address),
			"LAND1": str(Key16(c.NationKey)), "TELF1": str(c.Phone),
			"BRSCH": str(c.MktSegment), "ACCBL": val.Float(c.AcctBal)}},
		stxl("KNA1", key, c.Comment),
	}
}

// OrderHeaderRows maps an ORDER record's header (VBAK + text). The
// pricing document number KNUMV equals the order number.
func OrderHeaderRows(o *dbgen.Order) []SAPRow {
	vbeln := Key16(o.Key)
	return []SAPRow{
		{"VBAK", F{"VBELN": str(vbeln), "KUNNR": str(Key16(o.CustKey)),
			"AUDAT": o.Date, "NETWR": val.Float(o.TotalPrice), "GBSTK": str(o.Status),
			"KNUMV": str(vbeln), "SUBMI": str(o.Priority), "ERNAM": str(o.Clerk),
			"LPRIO": val.Float(float64(o.ShipPriority))}},
		stxl("VBAK", vbeln, o.Comment),
	}
}

// LineItemRows maps one LINEITEM record (VBAP, VBEP + text). The KONV
// pricing rows come separately from KonvRows because cluster rows of one
// document must be written as a group.
func LineItemRows(li dbgen.Lineitem) []SAPRow {
	vbeln, posnr := Key16(li.OrderKey), Posnr(li.LineNumber)
	return []SAPRow{
		{"VBAP", F{"VBELN": str(vbeln), "POSNR": str(posnr),
			"MATNR": str(Key16(li.PartKey)), "LIFNR": str(Key16(li.SuppKey)),
			"KWMENG": val.Float(float64(li.Quantity)), "NETWR": val.Float(li.ExtendedPrice),
			"ABGRU": str(li.ReturnFlag), "SDABW": str(li.ShipInstruct),
			"VSBED": str(li.ShipMode)}},
		{"VBEP", F{"VBELN": str(vbeln), "POSNR": str(posnr), "ETENR": str("0001"),
			"EDATU": li.ShipDate, "WADAT": li.CommitDate, "MBDAT": li.ReceiptDate,
			"LFSTA": str(li.LineStatus), "BMENG": val.Float(float64(li.Quantity))}},
		stxl("VBAP", vbeln+posnr, li.Comment),
	}
}

// KonvRows maps one order's pricing conditions: two KONV rows per
// lineitem — the DISC row carries the discount as a negative per-mille
// rate, the TAX row the tax (paper Figure 4's KAWRT * (1 + KBETR/1000)).
func KonvRows(o *dbgen.Order) []F {
	var rows []F
	vbeln := Key16(o.Key)
	for _, li := range o.Lines {
		posnr := Posnr(li.LineNumber)
		rows = append(rows,
			F{"KNUMV": str(vbeln), "KPOSN": str(posnr), "STUNR": str("040"),
				"ZAEHK": str("01"), "KSCHL": str("DISC"),
				"KBETR": val.Float(-li.Discount * 1000), "KAWRT": val.Float(li.ExtendedPrice),
				"KWERT": val.Float(-li.Discount * li.ExtendedPrice)},
			F{"KNUMV": str(vbeln), "KPOSN": str(posnr), "STUNR": str("050"),
				"ZAEHK": str("01"), "KSCHL": str("TAX"),
				"KBETR": val.Float(li.Tax * 1000), "KAWRT": val.Float(li.ExtendedPrice),
				"KWERT": val.Float(li.Tax * li.ExtendedPrice)},
		)
	}
	return rows
}

// --- the population walk, shared by the three loaders ---

// populationSink receives the generated population mapped onto the SAP
// schema. The walk decides the order — entity streams in Table 3's order,
// each record's rows in mapping order, an order's pricing conditions as
// one cluster group after its items — and a sink decides what to do with
// what it is handed: where rows go, who owns which table, what is charged.
// The sinks are the setup loader, the direct path's lanes and batch input.
type populationSink interface {
	// wants reports whether the sink loads any of the physical tables; a
	// stream that feeds none of them is not generated at all.
	wants(phys ...string) bool
	// record marks one business record, anchored at the table that pays
	// for its interpretation, about to arrive through add.
	record(anchor string)
	// add takes logical rows of one table; rows of a cluster table arrive
	// as one cluster key's whole group.
	add(table string, rows ...F) error
}

// walkRecord hands s one business record: its anchor, then its rows.
func walkRecord(s populationSink, anchor string, rows []SAPRow) error {
	s.record(anchor)
	for _, r := range rows {
		if err := s.add(r.Table, r.Fields); err != nil {
			return err
		}
	}
	return nil
}

// walkOrder hands s one sales order: the header, each line item, then the
// document's pricing conditions as one cluster group.
func walkOrder(o *dbgen.Order, s populationSink) error {
	if err := walkRecord(s, "VBAK", OrderHeaderRows(o)); err != nil {
		return err
	}
	for _, li := range o.Lines {
		if err := walkRecord(s, "VBAP", LineItemRows(li)); err != nil {
			return err
		}
	}
	return s.add("KONV", KonvRows(o)...)
}

// walkPopulation streams the whole population into s. Every comment text
// lands in STXL, so a sink that wants STXL sees every stream.
func walkPopulation(g *dbgen.Generator, s populationSink) error {
	if s.wants("STXL", "T005", "T005T") {
		for _, n := range g.NationRows() {
			if err := walkRecord(s, "T005", NationRows(n)); err != nil {
				return err
			}
		}
	}
	if s.wants("STXL", "T005U") {
		for _, rg := range g.Regions() {
			if err := walkRecord(s, "T005U", RegionRows(rg)); err != nil {
				return err
			}
		}
	}
	if s.wants("STXL", "LFA1") {
		if err := g.Suppliers(func(sp dbgen.Supplier) error { return walkRecord(s, "LFA1", SupplierRows(sp)) }); err != nil {
			return err
		}
	}
	if s.wants("STXL", "MARA", "MAKT", poolTableName, "KONP", "AUSP") {
		if err := g.Parts(func(p dbgen.Part) error { return walkRecord(s, "MARA", PartRows(p)) }); err != nil {
			return err
		}
	}
	if s.wants("STXL", "EINA", "EINE") {
		j := 0
		if err := g.PartSupps(func(ps dbgen.PartSupp) error {
			err := walkRecord(s, "EINA", PartSuppRows(ps, j%4))
			j++
			return err
		}); err != nil {
			return err
		}
	}
	if s.wants("STXL", "KNA1") {
		if err := g.Customers(func(c dbgen.Customer) error { return walkRecord(s, "KNA1", CustomerRows(c)) }); err != nil {
			return err
		}
	}
	if s.wants("STXL", "VBAK", "VBAP", "VBEP", "KONV"+clusterSuffix) {
		return g.Orders(func(o *dbgen.Order) error { return walkOrder(o, s) })
	}
	return nil
}

// physRow materializes a logical table's full-width row from a field
// assignment, injecting the client and defaulting absent CHAR columns.
func (sys *System) physRow(t *LogicalTable, fields F) ([]val.Value, error) {
	row := make([]val.Value, len(t.Cols))
	row[0] = val.Str(DefaultClient)
	for name, v := range fields {
		ci := t.ColIndex(name)
		if ci < 0 {
			return nil, fmt.Errorf("r3: no field %s in %s", name, t.Name)
		}
		row[ci] = v
	}
	for i, col := range t.Cols {
		if row[i].IsNull() && col.Type.Kind == val.KStr {
			row[i] = val.Str("")
		}
	}
	return row, nil
}

// physRows materializes the field assignments of several rows.
func (sys *System) physRows(t *LogicalTable, group []F) ([][]val.Value, error) {
	rows := make([][]val.Value, len(group))
	for i, fields := range group {
		row, err := sys.physRow(t, fields)
		if err != nil {
			return nil, err
		}
		rows[i] = row
	}
	return rows, nil
}

// --- direct loader (experiment setup; not the timed Table 3 path) ---

// directLoader batches physical rows per physical table.
type directLoader struct {
	sys     *System
	batches map[string][][]val.Value
}

const directBatch = 4096

// The setup loader takes every table and charges nothing.
func (dl *directLoader) wants(...string) bool { return true }
func (dl *directLoader) record(string)        {}

func (dl *directLoader) add(table string, group ...F) error {
	t := dl.sys.Table(table)
	if t == nil {
		return fmt.Errorf("r3: unknown table %s", table)
	}
	rows, err := dl.sys.physRows(t, group)
	if err != nil {
		return err
	}
	return t.toPhysical(rows, func(phys []val.Value) error { return dl.push(t.physName(), phys) })
}

func (dl *directLoader) push(phys string, row []val.Value) error {
	dl.batches[phys] = append(dl.batches[phys], row)
	if len(dl.batches[phys]) >= directBatch {
		return dl.flushOne(phys)
	}
	return nil
}

func (dl *directLoader) flushOne(phys string) error {
	rows := dl.batches[phys]
	if len(rows) == 0 {
		return nil
	}
	dl.batches[phys] = nil
	return dl.sys.DB.BulkLoad(phys, rows, nil)
}

// flushAll bulk-loads the leftover batches in dpTableOrder, so the pool
// residency the load leaves is the same every run.
func (dl *directLoader) flushAll() error {
	for _, phys := range dpTableOrder {
		if err := dl.flushOne(phys); err != nil {
			return err
		}
	}
	return nil
}

// LoadDirect fills the SAP database from a generated population without
// timing (experiment setup). The measured load path is BatchInput.
func (sys *System) LoadDirect(g *dbgen.Generator) error {
	dl := &directLoader{sys: sys, batches: make(map[string][][]val.Value)}
	if err := walkPopulation(g, dl); err != nil {
		return err
	}
	if err := dl.flushAll(); err != nil {
		return err
	}
	return sys.DB.AnalyzeAll()
}
