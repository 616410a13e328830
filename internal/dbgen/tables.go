package dbgen

import (
	"fmt"
	"strconv"
	"strings"

	"r3bench/internal/val"
)

// Verb is how a column's value is written in a .tbl file. It is not implied
// by the SQL type: l_quantity is DECIMAL(15,2) in the schema and a whole
// number in the file, as DBGEN writes it.
type Verb byte

// The four verbs; the comment gives the fmt verb the line formatters used.
const (
	Whole Verb = iota // %d
	Money             // %.2f
	Text              // %s
	Day               // a date as YYYY-MM-DD
)

// Column is one column of a TPC-D table.
type Column struct {
	Name string // as the TPC-D query texts spell it
	Type string // SQL type, as CREATE TABLE takes it
	Verb Verb
}

// Table describes one TPC-D table. Primary-key columns are all Whole.
type Table struct {
	Name    string // the engine's table name
	File    string // DBGEN's .tbl file (ORDERS is the irregular one: orders.tbl)
	Cols    []Column
	PK      []int // primary-key columns, at most two
	PartKey int   // column a sharded load partitions on; -1: replicated on every shard
}

// The eight TPC-D tables, each described once. The DDL and INSERT texts of
// internal/tpcd, the loaders' rows, the .tbl codec below, the warehouse's
// extraction reports and star build, and the shard exchange's temp tables
// all read these descriptors; no other non-test code spells a column order.
var (
	RegionTable = &Table{Name: "REGION", File: "region.tbl", PK: []int{0}, PartKey: -1, Cols: []Column{
		{"r_regionkey", "INTEGER", Whole},
		{"r_name", "CHAR(25)", Text},
		{"r_comment", "VARCHAR(152)", Text},
	}}

	NationTable = &Table{Name: "NATION", File: "nation.tbl", PK: []int{0}, PartKey: -1, Cols: []Column{
		{"n_nationkey", "INTEGER", Whole},
		{"n_name", "CHAR(25)", Text},
		{"n_regionkey", "INTEGER", Whole},
		{"n_comment", "VARCHAR(152)", Text},
	}}

	SupplierTable = &Table{Name: "SUPPLIER", File: "supplier.tbl", PK: []int{0}, PartKey: 0, Cols: []Column{
		{"s_suppkey", "INTEGER", Whole},
		{"s_name", "CHAR(25)", Text},
		{"s_address", "VARCHAR(40)", Text},
		{"s_nationkey", "INTEGER", Whole},
		{"s_phone", "CHAR(15)", Text},
		{"s_acctbal", "DECIMAL(15,2)", Money},
		{"s_comment", "VARCHAR(101)", Text},
	}}

	PartTable = &Table{Name: "PART", File: "part.tbl", PK: []int{0}, PartKey: -1, Cols: []Column{
		{"p_partkey", "INTEGER", Whole},
		{"p_name", "VARCHAR(55)", Text},
		{"p_mfgr", "CHAR(25)", Text},
		{"p_brand", "CHAR(10)", Text},
		{"p_type", "VARCHAR(25)", Text},
		{"p_size", "INTEGER", Whole},
		{"p_container", "CHAR(10)", Text},
		{"p_retailprice", "DECIMAL(15,2)", Money},
		{"p_comment", "VARCHAR(23)", Text},
	}}

	PartSuppTable = &Table{Name: "PARTSUPP", File: "partsupp.tbl", PK: []int{0, 1}, PartKey: -1, Cols: []Column{
		{"ps_partkey", "INTEGER", Whole},
		{"ps_suppkey", "INTEGER", Whole},
		{"ps_availqty", "INTEGER", Whole},
		{"ps_supplycost", "DECIMAL(15,2)", Money},
		{"ps_comment", "VARCHAR(199)", Text},
	}}

	CustomerTable = &Table{Name: "CUSTOMER", File: "customer.tbl", PK: []int{0}, PartKey: 0, Cols: []Column{
		{"c_custkey", "INTEGER", Whole},
		{"c_name", "VARCHAR(25)", Text},
		{"c_address", "VARCHAR(40)", Text},
		{"c_nationkey", "INTEGER", Whole},
		{"c_phone", "CHAR(15)", Text},
		{"c_acctbal", "DECIMAL(15,2)", Money},
		{"c_mktsegment", "CHAR(10)", Text},
		{"c_comment", "VARCHAR(117)", Text},
	}}

	OrdersTable = &Table{Name: "ORDERS", File: "orders.tbl", PK: []int{0}, PartKey: 0, Cols: []Column{
		{"o_orderkey", "INTEGER", Whole},
		{"o_custkey", "INTEGER", Whole},
		{"o_orderstatus", "CHAR(1)", Text},
		{"o_totalprice", "DECIMAL(15,2)", Money},
		{"o_orderdate", "DATE", Day},
		{"o_orderpriority", "CHAR(15)", Text},
		{"o_clerk", "CHAR(15)", Text},
		{"o_shippriority", "INTEGER", Whole},
		{"o_comment", "VARCHAR(79)", Text},
	}}

	// A lineitem partitions on its order's key, so an order and its
	// lineitems always land on one shard.
	LineitemTable = &Table{Name: "LINEITEM", File: "lineitem.tbl", PK: []int{0, 3}, PartKey: 0, Cols: []Column{
		{"l_orderkey", "INTEGER", Whole},
		{"l_partkey", "INTEGER", Whole},
		{"l_suppkey", "INTEGER", Whole},
		{"l_linenumber", "INTEGER", Whole},
		{"l_quantity", "DECIMAL(15,2)", Whole},
		{"l_extendedprice", "DECIMAL(15,2)", Money},
		{"l_discount", "DECIMAL(15,2)", Money},
		{"l_tax", "DECIMAL(15,2)", Money},
		{"l_returnflag", "CHAR(1)", Text},
		{"l_linestatus", "CHAR(1)", Text},
		{"l_shipdate", "DATE", Day},
		{"l_commitdate", "DATE", Day},
		{"l_receiptdate", "DATE", Day},
		{"l_shipinstruct", "CHAR(25)", Text},
		{"l_shipmode", "CHAR(10)", Text},
		{"l_comment", "VARCHAR(44)", Text},
	}}
)

// Tables lists the eight tables in loading order, which is also the order of
// the paper's Table 9.
var Tables = []*Table{RegionTable, NationTable, SupplierTable, PartTable,
	PartSuppTable, CustomerTable, OrdersTable, LineitemTable}

// OrderRow converts a generated order to the ORDERS layout.
func OrderRow(o *Order) []val.Value {
	return []val.Value{val.Int(o.Key), val.Int(o.CustKey), val.Str(o.Status),
		val.Float(o.TotalPrice), o.Date, val.Str(o.Priority), val.Str(o.Clerk),
		val.Int(o.ShipPriority), val.Str(o.Comment)}
}

// LineitemRow converts a generated lineitem to the LINEITEM layout.
func LineitemRow(li Lineitem) []val.Value {
	return []val.Value{val.Int(li.OrderKey), val.Int(li.PartKey), val.Int(li.SuppKey),
		val.Int(li.LineNumber), val.Float(float64(li.Quantity)), val.Float(li.ExtendedPrice),
		val.Float(li.Discount), val.Float(li.Tax), val.Str(li.ReturnFlag), val.Str(li.LineStatus),
		li.ShipDate, li.CommitDate, li.ReceiptDate, val.Str(li.ShipInstruct),
		val.Str(li.ShipMode), val.Str(li.Comment)}
}

// Stream is one of the generator's fixed-seed entity streams as rows: Each
// walks it once in canonical order, handing every row to emit with the table
// it belongs to. The streams draw from separate RNGs, so they can be walked
// concurrently and in any order.
type Stream struct {
	Tables []*Table
	Each   func(g *Generator, emit Emit) error
}

// Emit receives one row of table t.
type Emit func(t *Table, row []val.Value) error

// Slot returns t's position in s.Tables.
func (s *Stream) Slot(t *Table) int {
	for i := range s.Tables {
		if s.Tables[i] == t {
			return i
		}
	}
	panic("dbgen: stream does not emit " + t.Name)
}

// Streams is the whole population: every row-level walk over it — the
// loaders of internal/tpcd, the .tbl writer — is a loop over these.
var Streams = []Stream{
	{[]*Table{RegionTable}, func(g *Generator, emit Emit) error {
		for _, r := range g.Regions() {
			if err := emit(RegionTable, []val.Value{val.Int(r.Key), val.Str(r.Name), val.Str(r.Comment)}); err != nil {
				return err
			}
		}
		return nil
	}},
	{[]*Table{NationTable}, func(g *Generator, emit Emit) error {
		for _, n := range g.NationRows() {
			if err := emit(NationTable, []val.Value{val.Int(n.Key), val.Str(n.Name), val.Int(n.RegionKey), val.Str(n.Comment)}); err != nil {
				return err
			}
		}
		return nil
	}},
	{[]*Table{SupplierTable}, func(g *Generator, emit Emit) error {
		return g.Suppliers(func(s Supplier) error {
			return emit(SupplierTable, []val.Value{val.Int(s.Key), val.Str(s.Name), val.Str(s.Address),
				val.Int(s.NationKey), val.Str(s.Phone), val.Float(s.AcctBal), val.Str(s.Comment)})
		})
	}},
	{[]*Table{PartTable}, func(g *Generator, emit Emit) error {
		return g.Parts(func(p Part) error {
			return emit(PartTable, []val.Value{val.Int(p.Key), val.Str(p.Name), val.Str(p.Mfgr),
				val.Str(p.Brand), val.Str(p.Type), val.Int(p.Size), val.Str(p.Container),
				val.Float(p.RetailPrice), val.Str(p.Comment)})
		})
	}},
	{[]*Table{PartSuppTable}, func(g *Generator, emit Emit) error {
		return g.PartSupps(func(ps PartSupp) error {
			return emit(PartSuppTable, []val.Value{val.Int(ps.PartKey), val.Int(ps.SuppKey),
				val.Int(ps.AvailQty), val.Float(ps.SupplyCost), val.Str(ps.Comment)})
		})
	}},
	{[]*Table{CustomerTable}, func(g *Generator, emit Emit) error {
		return g.Customers(func(c Customer) error {
			return emit(CustomerTable, []val.Value{val.Int(c.Key), val.Str(c.Name), val.Str(c.Address),
				val.Int(c.NationKey), val.Str(c.Phone), val.Float(c.AcctBal),
				val.Str(c.MktSegment), val.Str(c.Comment)})
		})
	}},
	// ORDERS and LINEITEM arrive interleaved from one stream.
	{[]*Table{OrdersTable, LineitemTable}, func(g *Generator, emit Emit) error {
		return g.Orders(func(o *Order) error {
			if err := emit(OrdersTable, OrderRow(o)); err != nil {
				return err
			}
			for _, li := range o.Lines {
				if err := emit(LineitemTable, LineitemRow(li)); err != nil {
					return err
				}
			}
			return nil
		})
	}},
}

// AppendLine appends row as one pipe-delimited .tbl line. It takes whatever
// kind a value has — a generated row, or the CHAR keys and dates an
// extraction report reads out of the SAP database — and writes it with the
// column's verb.
func (t *Table) AppendLine(dst []byte, row []val.Value) []byte {
	for i, c := range t.Cols {
		switch c.Verb {
		case Whole:
			dst = strconv.AppendInt(dst, row[i].AsInt(), 10)
		case Money:
			dst = strconv.AppendFloat(dst, row[i].AsFloat(), 'f', 2, 64)
		default:
			dst = append(dst, row[i].AsStr()...)
		}
		dst = append(dst, '|')
	}
	return append(dst, '\n')
}

// ParseLine parses one .tbl line (without its newline) into a row: an
// integer for a Whole column, a decimal for Money, a date for Day. A line
// with the wrong number of fields is an error, not a short row.
func (t *Table) ParseLine(line string) ([]val.Value, error) {
	f := strings.Split(line, "|")
	// Every field ends in '|', so the split leaves one empty piece at the end.
	if len(f) != len(t.Cols)+1 || f[len(t.Cols)] != "" {
		return nil, fmt.Errorf("dbgen: %s line has %d fields, want %d", t.Name, strings.Count(line, "|"), len(t.Cols))
	}
	row := make([]val.Value, len(t.Cols))
	for i, c := range t.Cols {
		var err error
		switch c.Verb {
		case Whole:
			var n int64
			n, err = strconv.ParseInt(f[i], 10, 64)
			row[i] = val.Int(n)
		case Money:
			var x float64
			x, err = strconv.ParseFloat(f[i], 64)
			row[i] = val.Float(x)
		case Day:
			row[i], err = val.ParseDate(f[i])
		default:
			row[i] = val.Str(f[i])
		}
		if err != nil {
			return nil, fmt.Errorf("dbgen: %s.%s: %w", t.Name, c.Name, err)
		}
	}
	return row, nil
}

// Key returns row's primary key, the second element zero for a one-column key.
func (t *Table) Key(row []val.Value) (k [2]int64) {
	for i, ci := range t.PK {
		k[i] = row[ci].AsInt()
	}
	return k
}

// Index returns the positions of the named columns. The names are program
// constants, so an unknown one is a bug and panics.
func (t *Table) Index(names ...string) []int {
	out := make([]int, len(names))
next:
	for i, name := range names {
		for ci, c := range t.Cols {
			if c.Name == name {
				out[i] = ci
				continue next
			}
		}
		panic("dbgen: " + t.Name + " has no column " + name)
	}
	return out
}

// ColumnList returns the column names, comma-separated, in table order.
func (t *Table) ColumnList() string {
	names := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		names[i] = c.Name
	}
	return strings.Join(names, ", ")
}

// Definition returns the parenthesized column definitions and primary key
// that follow CREATE TABLE <name>.
func (t *Table) Definition() string {
	var b strings.Builder
	b.WriteByte('(')
	for _, c := range t.Cols {
		b.WriteString(c.Name + " " + c.Type + ", ")
	}
	pk := make([]string, len(t.PK))
	for i, ci := range t.PK {
		pk[i] = t.Cols[ci].Name
	}
	b.WriteString("PRIMARY KEY (" + strings.Join(pk, ", ") + "))")
	return b.String()
}

// InsertSQL returns the full-row INSERT with one parameter per column.
func (t *Table) InsertSQL() string {
	return "INSERT INTO " + strings.ToLower(t.Name) + " VALUES (?" + strings.Repeat(", ?", len(t.Cols)-1) + ")"
}
