// Package r3 simulates the SAP R/3 application system of the paper: a
// data dictionary of logical tables (transparent, pool and cluster), the
// Open SQL interface in its Release 2.2 and 3.0 forms, Native SQL
// pass-through, application-server table buffering, ABAP-style internal
// tables with two-phase grouping, and the batch-input facility with
// per-record consistency checking. It runs on top of internal/engine —
// the "second party commercial RDBMS" of the paper's Figure 1 — and
// charges all work to the same virtual clock.
package r3

import (
	"fmt"
	"slices"

	"r3bench/internal/val"
)

// DefaultClient is the business client ("Mandant") our TPC-D Inc. data
// lives under — the paper's MANDT = '301'.
const DefaultClient = "301"

// TableKind distinguishes how a logical SAP table maps onto the RDBMS.
type TableKind int

// The three kinds of logical SAP tables (paper Section 2.2).
const (
	Transparent TableKind = iota // 1:1 onto an RDBMS table
	Pooled                       // bundled into the shared table pool
	Clustered                    // several logical tuples per RDBMS tuple
)

// String names the kind.
func (k TableKind) String() string {
	switch k {
	case Transparent:
		return "transparent"
	case Pooled:
		return "pool"
	case Clustered:
		return "cluster"
	default:
		return "unknown"
	}
}

// Col is one logical column.
type Col struct {
	Name string
	Type val.ColType
}

// LogicalTable is one entry of the SAP data dictionary.
type LogicalTable struct {
	Name    string
	Kind    TableKind
	Cols    []Col    // MANDT first; FILLER columns model SAP's width
	KeyCols []string // logical primary key (prefix of Cols by name)
	// ClusterPrefix is, for cluster tables, the leading key columns that
	// form the physical cluster key (all logical rows sharing them pack
	// into one physical tuple chain).
	ClusterPrefix []string
	// Secondary indexes on transparent tables (name -> columns).
	Indexes map[string][]string

	colIdx map[string]int
	// How a pool or cluster table's logical rows sit in their physical
	// tuples, worked out once: physKey are the columns the physical key
	// carries (a pool table's key, a cluster table's prefix), packed the
	// columns whose values are packed into VARDATA, in that order. FILLER
	// columns are in neither: they are not stored and read back NULL.
	physKey []int
	packed  []int
	// clusterSQL[n] reads a cluster table's physical tuples under the first
	// n columns of its cluster key.
	clusterSQL []string
}

// ColIndex returns the position of a logical column, or -1.
func (t *LogicalTable) ColIndex(name string) int {
	if i, ok := t.colIdx[name]; ok {
		return i
	}
	return -1
}

func (t *LogicalTable) init() *LogicalTable {
	t.colIdx = make(map[string]int, len(t.Cols))
	for i, c := range t.Cols {
		t.colIdx[c.Name] = i
	}
	keyCols := t.ClusterPrefix
	if t.Kind == Pooled {
		keyCols = t.KeyCols
	}
	for _, kc := range keyCols {
		t.physKey = append(t.physKey, t.colIdx[kc])
	}
	for i, c := range t.Cols {
		if c.Name != "FILLER" && !slices.Contains(keyCols, c.Name) {
			t.packed = append(t.packed, i)
		}
	}
	if t.Kind == Clustered {
		sql, sep := "SELECT * FROM "+t.Name+clusterSuffix, " WHERE "
		t.clusterSQL = append(t.clusterSQL, sql)
		for _, kc := range t.ClusterPrefix {
			sql += sep + kc + " = ?"
			sep = " AND "
			t.clusterSQL = append(t.clusterSQL, sql)
		}
	}
	return t
}

// Key16 renders a numeric key the SAP way: a 16-byte zero-padded string
// ("SAP R/3 uses 16 Byte strings rather than 4 Byte integers to
// represent key attributes", paper Section 3.4.1).
func Key16(n int64) string { return fmt.Sprintf("%016d", n) }

// Posnr renders an item number (6-byte).
func Posnr(n int64) string { return fmt.Sprintf("%06d", n) }

func c(n int) val.ColType { return val.Char(n) }

// sapTables defines the 17 SAP tables of the paper's Table 1 and their
// TPC-D mapping. FILLER columns stand for the hundreds of business
// fields a real installation carries with default values; their widths
// are what inflates the database by an order of magnitude (Table 2).
func sapTables() []*LogicalTable {
	mandt := Col{"MANDT", c(3)}
	tables := []*LogicalTable{
		{ // NATION: general info
			Name: "T005", Kind: Transparent,
			Cols: []Col{mandt, {"LAND1", c(16)}, {"LANDK", c(16)}, {"WAERS", c(5)},
				{"SPRAS", c(2)}, {"FILLER", c(120)}},
			KeyCols: []string{"MANDT", "LAND1"},
		},
		{ // NATION: names (per language)
			Name: "T005T", Kind: Transparent,
			Cols: []Col{mandt, {"SPRAS", c(2)}, {"LAND1", c(16)}, {"LANDX", c(50)},
				{"NATIO", c(50)}, {"FILLER", c(60)}},
			KeyCols: []string{"MANDT", "SPRAS", "LAND1"},
		},
		{ // REGION
			Name: "T005U", Kind: Transparent,
			Cols: []Col{mandt, {"SPRAS", c(2)}, {"BLAND", c(16)}, {"BEZEI", c(50)},
				{"FILLER", c(60)}},
			KeyCols: []string{"MANDT", "SPRAS", "BLAND"},
		},
		{ // PART: general info (type, manufacturer)
			Name: "MARA", Kind: Transparent,
			Cols: []Col{mandt, {"MATNR", c(16)}, {"MTART", c(25)}, {"MFRNR", c(25)},
				{"MEINS", c(3)}, {"FILLER", c(620)}},
			KeyCols: []string{"MANDT", "MATNR"},
		},
		{ // PART: description (p_name, per language)
			Name: "MAKT", Kind: Transparent,
			Cols: []Col{mandt, {"MATNR", c(16)}, {"SPRAS", c(2)}, {"MAKTX", c(55)},
				{"MAKTG", c(55)}, {"FILLER", c(160)}},
			KeyCols: []string{"MANDT", "MATNR", "SPRAS"},
		},
		{ // PART: pricing-condition access (POOL TABLE by default)
			Name: "A004", Kind: Pooled,
			Cols: []Col{mandt, {"KAPPL", c(2)}, {"KSCHL", c(4)}, {"MATNR", c(16)},
				{"KNUMH", c(16)}, {"DATAB", val.Date4}, {"DATBI", val.Date4},
				{"FILLER", c(100)}},
			KeyCols: []string{"MANDT", "KAPPL", "KSCHL", "MATNR"},
		},
		{ // PART: condition positions (p_retailprice)
			Name: "KONP", Kind: Transparent,
			Cols: []Col{mandt, {"KNUMH", c(16)}, {"KOPOS", c(2)}, {"KSCHL", c(4)},
				{"KBETR", val.Dec8}, {"KONWA", c(5)}, {"FILLER", c(150)}},
			KeyCols: []string{"MANDT", "KNUMH", "KOPOS"},
		},
		{ // Characteristics: p_size / p_brand / p_container as key-value rows
			Name: "AUSP", Kind: Transparent,
			Cols: []Col{mandt, {"OBJEK", c(32)}, {"ATINN", c(10)}, {"KLART", c(3)},
				{"ATWRT", c(30)}, {"ATFLV", val.Dec8}, {"FILLER", c(40)}},
			KeyCols: []string{"MANDT", "OBJEK", "ATINN", "KLART"},
		},
		{ // SUPPLIER
			Name: "LFA1", Kind: Transparent,
			Cols: []Col{mandt, {"LIFNR", c(16)}, {"NAME1", c(35)}, {"STRAS", c(35)},
				{"LAND1", c(16)}, {"TELF1", c(16)}, {"ACCBL", val.Dec8},
				{"FILLER", c(560)}},
			KeyCols: []string{"MANDT", "LIFNR"},
			Indexes: map[string][]string{"LFA1_LAND": {"MANDT", "LAND1"}},
		},
		{ // PARTSUPP: general info (purchasing info record)
			Name: "EINA", Kind: Transparent,
			Cols: []Col{mandt, {"INFNR", c(16)}, {"MATNR", c(16)}, {"LIFNR", c(16)},
				{"FILLER", c(180)}},
			KeyCols: []string{"MANDT", "INFNR"},
			Indexes: map[string][]string{
				"EINA_MAT": {"MANDT", "MATNR"},
				"EINA_LIF": {"MANDT", "LIFNR"},
			},
		},
		{ // PARTSUPP: terms (availqty, supplycost)
			Name: "EINE", Kind: Transparent,
			Cols: []Col{mandt, {"INFNR", c(16)}, {"EKORG", c(4)}, {"NORBM", val.Dec8},
				{"NETPR", val.Dec8}, {"APLFZ", val.Dec8}, {"FILLER", c(190)}},
			KeyCols: []string{"MANDT", "INFNR", "EKORG"},
		},
		{ // CUSTOMER
			Name: "KNA1", Kind: Transparent,
			Cols: []Col{mandt, {"KUNNR", c(16)}, {"NAME1", c(35)}, {"STRAS", c(35)},
				{"LAND1", c(16)}, {"TELF1", c(16)}, {"BRSCH", c(10)},
				{"ACCBL", val.Dec8}, {"FILLER", c(640)}},
			KeyCols: []string{"MANDT", "KUNNR"},
			Indexes: map[string][]string{"KNA1_LAND": {"MANDT", "LAND1"}},
		},
		{ // ORDER: general info
			Name: "VBAK", Kind: Transparent,
			Cols: []Col{mandt, {"VBELN", c(16)}, {"KUNNR", c(16)}, {"AUDAT", val.Date4},
				{"NETWR", val.Dec8}, {"GBSTK", c(1)}, {"KNUMV", c(16)},
				{"SUBMI", c(15)}, {"ERNAM", c(15)}, {"LPRIO", val.Dec8},
				{"FILLER", c(680)}},
			KeyCols: []string{"MANDT", "VBELN"},
			Indexes: map[string][]string{"VBAK_KUNNR": {"MANDT", "KUNNR"}},
		},
		{ // LINEITEM: position
			Name: "VBAP", Kind: Transparent,
			Cols: []Col{mandt, {"VBELN", c(16)}, {"POSNR", c(6)}, {"MATNR", c(16)},
				{"LIFNR", c(16)}, {"KWMENG", val.Dec8}, {"NETWR", val.Dec8},
				{"ABGRU", c(1)}, {"SDABW", c(25)}, {"VSBED", c(10)},
				{"FILLER", c(580)}},
			KeyCols: []string{"MANDT", "VBELN", "POSNR"},
			Indexes: map[string][]string{"VBAP_MATNR": {"MANDT", "MATNR"}},
		},
		{ // LINEITEM: schedule line (dates, line status)
			Name: "VBEP", Kind: Transparent,
			Cols: []Col{mandt, {"VBELN", c(16)}, {"POSNR", c(6)}, {"ETENR", c(4)},
				{"EDATU", val.Date4}, {"WADAT", val.Date4}, {"MBDAT", val.Date4},
				{"LFSTA", c(1)}, {"BMENG", val.Dec8}, {"FILLER", c(420)}},
			KeyCols: []string{"MANDT", "VBELN", "POSNR", "ETENR"},
			// The index SAP R/3 creates by default on the ship date — the
			// one the paper deletes for the 3.0E power test.
			Indexes: map[string][]string{"VBEP_EDATU": {"MANDT", "EDATU"}},
		},
		{ // LINEITEM: pricing terms — discount and tax (CLUSTER by default)
			Name: "KONV", Kind: Clustered,
			Cols: []Col{mandt, {"KNUMV", c(16)}, {"KPOSN", c(6)}, {"STUNR", c(3)},
				{"ZAEHK", c(2)}, {"KSCHL", c(4)}, {"KBETR", val.Dec8},
				{"KAWRT", val.Dec8}, {"KWERT", val.Dec8}, {"FILLER", c(180)}},
			KeyCols:       []string{"MANDT", "KNUMV", "KPOSN", "STUNR", "ZAEHK"},
			ClusterPrefix: []string{"MANDT", "KNUMV"},
		},
		{ // Text of comments, for all business objects
			Name: "STXL", Kind: Transparent,
			Cols: []Col{mandt, {"TDOBJECT", c(10)}, {"TDNAME", c(32)}, {"TDID", c(4)},
				{"TDSPRAS", c(2)}, {"CLUSTD", c(236)}},
			KeyCols: []string{"MANDT", "TDOBJECT", "TDNAME", "TDID", "TDSPRAS"},
		},
	}
	for _, t := range tables {
		t.init()
	}
	return tables
}

// TPCDMapping documents which SAP tables store each original TPC-D
// table — the paper's Table 1.
var TPCDMapping = []struct {
	SAP  string
	Desc string
	Orig string
}{
	{"T005", "Country: general info", "NATION"},
	{"T005T", "Country: names", "NATION"},
	{"T005U", "Regions", "REGION"},
	{"MARA", "Parts: general info", "PART"},
	{"MAKT", "Parts: description", "PART"},
	{"A004", "Parts: terms (pool table)", "PART"},
	{"KONP", "Terms: positions", "PART"},
	{"LFA1", "Supplier: general info", "SUPPLIER"},
	{"EINA", "Part-Supplier: general info", "PARTSUPP"},
	{"EINE", "Part-Supplier: terms", "PARTSUPP"},
	{"AUSP", "Properties", "PART, SUPP, PARTS"},
	{"KNA1", "Customer: general info", "CUSTOMER"},
	{"VBAK", "Order: general info", "ORDER"},
	{"VBAP", "Lineitem: position", "LINEITEM"},
	{"VBEP", "Lineitem: terms", "LINEITEM"},
	{"KONV", "Pricing terms (cluster table)", "LINEITEM"},
	{"STXL", "Text of comments", "all"},
}
