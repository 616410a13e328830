package warehouse

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/engine"
	"r3bench/internal/val"
)

// The star-schema warehouse: the extracted .tbl files become one
// LINEITEM_F fact table (grain: one order line, denormalized with the
// order's customer and nation so the common roll-ups need no join) plus
// conformed dimension tables, all loaded through the engine's
// direct-path loader. On top sit materialized aggregate tables that the
// planner's rewrite hook can answer matching GROUP BY queries from —
// byte-identical answers at a fraction of the pages — and an
// incremental ApplyDelta that folds a change-capture delta into both
// the fact table and the aggregates.

// starDDL creates the warehouse schema on an empty engine.
var starDDL = []string{
	`CREATE TABLE REGION_D (
		R_REGIONKEY INTEGER, R_NAME VARCHAR(25),
		PRIMARY KEY (R_REGIONKEY))`,
	`CREATE TABLE NATION_D (
		N_NATIONKEY INTEGER, N_NAME VARCHAR(25), N_REGIONKEY INTEGER,
		PRIMARY KEY (N_NATIONKEY))`,
	`CREATE TABLE CUSTOMER_D (
		C_CUSTKEY BIGINT, C_NAME VARCHAR(25), C_NATIONKEY INTEGER, C_MKTSEGMENT VARCHAR(10),
		PRIMARY KEY (C_CUSTKEY))`,
	`CREATE TABLE SUPPLIER_D (
		S_SUPPKEY BIGINT, S_NAME VARCHAR(25), S_NATIONKEY INTEGER,
		PRIMARY KEY (S_SUPPKEY))`,
	`CREATE TABLE PART_D (
		P_PARTKEY BIGINT, P_NAME VARCHAR(55), P_BRAND VARCHAR(10), P_TYPE VARCHAR(25), P_SIZE INTEGER,
		PRIMARY KEY (P_PARTKEY))`,
	`CREATE TABLE LINEITEM_F (
		L_ORDERKEY BIGINT, L_LINENUMBER INTEGER,
		L_PARTKEY BIGINT, L_SUPPKEY BIGINT, L_CUSTKEY BIGINT, L_NATIONKEY INTEGER,
		L_QUANTITY INTEGER, L_EXTENDEDPRICE DECIMAL(15,2), L_DISCOUNT DECIMAL(15,2), L_TAX DECIMAL(15,2),
		L_RETURNFLAG CHAR(1), L_LINESTATUS CHAR(1),
		L_SHIPDATE DATE, L_ORDERDATE DATE,
		PRIMARY KEY (L_ORDERKEY, L_LINENUMBER))`,
	`CREATE TABLE AGG_RFLS_MONTH (
		RF CHAR(1), LS CHAR(1), SHIPYEAR INTEGER, SHIPMONTH INTEGER,
		SUM_QTY BIGINT, SUM_EXTPRICE DECIMAL(15,2), SUM_REVENUE DECIMAL(15,2), CNT BIGINT,
		PRIMARY KEY (RF, LS, SHIPYEAR, SHIPMONTH))`,
	`CREATE TABLE AGG_NATION_YEAR (
		NATIONKEY INTEGER, SHIPYEAR INTEGER,
		SUM_QTY BIGINT, SUM_EXTPRICE DECIMAL(15,2), SUM_REVENUE DECIMAL(15,2), CNT BIGINT,
		PRIMARY KEY (NATIONKEY, SHIPYEAR))`,
}

// aggBuildSQL computes each aggregate's content from the fact table.
// Running it through the engine (not a Go-side loop) matters: the
// engine's exact order-independent summation is what base-table queries
// use, so the stored group totals are bit-identical to what a direct
// GROUP BY over LINEITEM_F would produce.
var aggBuildSQL = map[string]string{
	"AGG_RFLS_MONTH": `SELECT L_RETURNFLAG, L_LINESTATUS, YEAR(L_SHIPDATE), MONTH(L_SHIPDATE),
			SUM(L_QUANTITY), SUM(L_EXTENDEDPRICE), SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT)), COUNT(*)
		FROM LINEITEM_F
		GROUP BY L_RETURNFLAG, L_LINESTATUS, YEAR(L_SHIPDATE), MONTH(L_SHIPDATE)`,
	"AGG_NATION_YEAR": `SELECT L_NATIONKEY, YEAR(L_SHIPDATE),
			SUM(L_QUANTITY), SUM(L_EXTENDEDPRICE), SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT)), COUNT(*)
		FROM LINEITEM_F
		GROUP BY L_NATIONKEY, YEAR(L_SHIPDATE)`,
}

// Warehouse is one star-schema instance on its own engine and clock.
type Warehouse struct {
	DB   *engine.DB
	sess *engine.Session
	m    *cost.Meter
}

// NewWarehouse opens an empty warehouse engine with the given cost
// model and intra-query parallel degree, and creates the star schema.
func NewWarehouse(model cost.Model, parallel int) (*Warehouse, error) {
	db := engine.Open(engine.Config{CostModel: model, Parallel: parallel})
	w := &Warehouse{DB: db, m: cost.NewMeter(db.Model())}
	w.sess = db.NewSessionWithMeter(w.m)
	for _, ddl := range starDDL {
		if _, err := w.sess.Exec(ddl); err != nil {
			return nil, fmt.Errorf("warehouse: %s: %w", firstLine(ddl), err)
		}
	}
	return w, nil
}

// Meter exposes the warehouse's virtual clock (ETL + query time).
func (w *Warehouse) Meter() *cost.Meter { return w.m }

// Session exposes the warehouse's query session for workload runs.
func (w *Warehouse) Session() *engine.Session { return w.sess }

// EnableRewrite installs (or removes) the materialized-aggregate
// rewrite pass on the warehouse's planner.
func (w *Warehouse) EnableRewrite(on bool) {
	if on {
		w.DB.SetRewriteHook(AggregateRewriter())
	} else {
		w.DB.SetRewriteHook(nil)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return strings.TrimSpace(s[:i]) + " ..."
	}
	return s
}

// BuildStats is one warehouse build's accounting.
type BuildStats struct {
	FactRows int64
	DimRows  int64
	AggRows  int64
	Elapsed  time.Duration
}

// orderInfo is the slice of an ORDER row the fact grain denormalizes.
type orderInfo struct {
	custKey   int64
	nationKey int64
	orderDate val.Value
}

// dims are the conformed dimensions: each star table is a projection of one
// extracted TPC-D table, named by column.
var dims = []struct {
	star string
	src  *dbgen.Table
	cols []int
}{
	{"REGION_D", dbgen.RegionTable, dbgen.RegionTable.Index("r_regionkey", "r_name")},
	{"NATION_D", dbgen.NationTable, dbgen.NationTable.Index("n_nationkey", "n_name", "n_regionkey")},
	{"CUSTOMER_D", dbgen.CustomerTable, dbgen.CustomerTable.Index("c_custkey", "c_name", "c_nationkey", "c_mktsegment")},
	{"SUPPLIER_D", dbgen.SupplierTable, dbgen.SupplierTable.Index("s_suppkey", "s_name", "s_nationkey")},
	{"PART_D", dbgen.PartTable, dbgen.PartTable.Index("p_partkey", "p_name", "p_brand", "p_type", "p_size")},
}

// What the fact transform reads of its three sources. factHead and factTail
// are LINEITEM_F's columns left and right of the two the order supplies
// (L_CUSTKEY, L_NATIONKEY) and before the L_ORDERDATE that ends the row.
var (
	custCols  = dbgen.CustomerTable.Index("c_custkey", "c_nationkey")
	orderCols = dbgen.OrdersTable.Index("o_orderkey", "o_custkey", "o_orderdate")
	factHead  = dbgen.LineitemTable.Index("l_orderkey", "l_linenumber", "l_partkey", "l_suppkey")
	factTail  = dbgen.LineitemTable.Index("l_quantity", "l_extendedprice", "l_discount", "l_tax",
		"l_returnflag", "l_linestatus", "l_shipdate")
)

// project appends the columns cols of row to dst.
func project(dst, row []val.Value, cols []int) []val.Value {
	for _, ci := range cols {
		dst = append(dst, row[ci])
	}
	return dst
}

// Build loads the star schema from a directory of extracted .tbl files
// (the output of Extractor.ExtractAll or dbgen.WriteTbl). Dimension and
// fact rows go through the direct-path loader; each parsed input row is
// charged one tuple of transform CPU. The aggregates are then
// materialized from the loaded fact table.
func (w *Warehouse) Build(dir string) (*BuildStats, error) {
	start := w.m.Elapsed()
	st := &BuildStats{}

	// CUSTOMER_D doubles as the custkey→nationkey lookup the fact
	// transform needs.
	custNation := make(map[int64]int64)
	for _, d := range dims {
		n, err := w.loadTbl(d.star, dir, d.src, func(r []val.Value) ([]val.Value, error) {
			if d.src == dbgen.CustomerTable {
				custNation[r[custCols[0]].AsInt()] = r[custCols[1]].AsInt()
			}
			return project(nil, r, d.cols), nil
		})
		if err != nil {
			return nil, err
		}
		st.DimRows += n
	}

	// The ORDER side of the fact grain: custkey and orderdate per order.
	orders := make(map[int64]orderInfo)
	if err := readTbl(dir, dbgen.OrdersTable, func(r []val.Value) error {
		w.m.Charge(cost.TupleCPU, 1)
		ck := r[orderCols[1]].AsInt()
		orders[r[orderCols[0]].AsInt()] = orderInfo{custKey: ck, nationKey: custNation[ck], orderDate: r[orderCols[2]]}
		return nil
	}); err != nil {
		return nil, err
	}

	n, err := w.loadTbl("LINEITEM_F", dir, dbgen.LineitemTable, func(r []val.Value) ([]val.Value, error) {
		key := r[factHead[0]].AsInt()
		oi, ok := orders[key]
		if !ok {
			return nil, fmt.Errorf("warehouse: lineitem %d has no order", key)
		}
		return factRow(r, oi), nil
	})
	if err != nil {
		return nil, err
	}
	st.FactRows = n

	aggRows, err := w.buildAggregates()
	if err != nil {
		return nil, err
	}
	st.AggRows = aggRows
	st.Elapsed = w.m.Lap(start)
	return st, nil
}

// loadTbl streams src's .tbl file in dir through the direct-path loader of
// table, charging a tuple of transform CPU per input row.
func (w *Warehouse) loadTbl(table, dir string, src *dbgen.Table, row func(r []val.Value) ([]val.Value, error)) (int64, error) {
	dl, err := w.DB.NewDirectLoader(table, w.m)
	if err != nil {
		return 0, err
	}
	var n int64
	if err := readTbl(dir, src, func(r []val.Value) error {
		out, err := row(r)
		if err != nil {
			return err
		}
		w.m.Charge(cost.TupleCPU, 1)
		n++
		return dl.Append(out)
	}); err != nil {
		return 0, err
	}
	if err := dl.Close(); err != nil {
		return 0, err
	}
	return n, nil
}

// buildAggregates materializes every aggregate table from the fact
// table via the engine, then direct-loads the grouped result.
func (w *Warehouse) buildAggregates() (int64, error) {
	var total int64
	for _, name := range aggNames() {
		res, err := w.sess.Query(aggBuildSQL[name])
		if err != nil {
			return 0, err
		}
		dl, err := w.DB.NewDirectLoader(name, w.m)
		if err != nil {
			return 0, err
		}
		for _, r := range res.Rows {
			if err := dl.Append(r); err != nil {
				return 0, err
			}
		}
		if err := dl.Close(); err != nil {
			return 0, err
		}
		total += int64(len(res.Rows))
	}
	return total, nil
}

func aggNames() []string {
	names := make([]string, 0, len(aggBuildSQL))
	for n := range aggBuildSQL {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// factRow turns one parsed LINEITEM row plus its order's info into a
// LINEITEM_F row.
func factRow(li []val.Value, oi orderInfo) []val.Value {
	row := project(make([]val.Value, 0, 14), li, factHead)
	row = append(row, val.Int(oi.custKey), val.Int(oi.nationKey))
	return append(project(row, li, factTail), oi.orderDate)
}

// scanLines hands fn every non-empty line of r with its 1-based number.
func scanLines(r io.Reader, fn func(lineNo int, line string) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		if line := sc.Text(); line != "" {
			if err := fn(n, line); err != nil {
				return err
			}
		}
	}
	return sc.Err()
}

// readTbl streams the rows of t's .tbl file in dir to fn. A line that does
// not parse as a row of t — a truncated one, say — is an error naming the
// file and the line.
func readTbl(dir string, t *dbgen.Table, fn func(row []val.Value) error) error {
	path := filepath.Join(dir, t.File)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return scanLines(f, func(lineNo int, line string) error {
		row, err := t.ParseLine(line)
		if err != nil {
			return fmt.Errorf("warehouse: %s:%d: %w", path, lineNo, err)
		}
		return fn(row)
	})
}

// Refresh is one ApplyDelta's accounting.
type Refresh struct {
	Orders        int
	RowsDeleted   int64
	RowsInserted  int64
	GroupsTouched int64
	Elapsed       time.Duration
}

// aggDelta is the change to one aggregate group's measures, accumulated
// while old fact rows come out and new ones go in. Delta sets are tiny (one
// update-function batch), so plain float64 addition stays far inside the
// %.2f / %.4f rendering tolerance of the stored totals.
type aggDelta struct {
	key      []val.Value // the group's dimension values, in primary-key order
	enc      []byte      // key, encoded: sorts the way the primary-key index does
	qty, cnt int64
	ext, rev float64
}

// ApplyDelta folds one ExtractDelta stream into the fact table and the
// materialized aggregates: tombstoned and re-extracted orders have
// their old fact rows removed (their group contributions subtracted),
// upserted orders insert their new payload rows (contributions added),
// and each touched aggregate group is then patched in place — or
// dropped when its count reaches zero, so a rebuilt warehouse and a
// refreshed one answer queries identically.
func (w *Warehouse) ApplyDelta(r io.Reader) (*Refresh, error) {
	start := w.m.Elapsed()

	// Parse the stream: order headers, line payloads, tombstones. A header
	// or a tombstone marks its order as touched.
	headers := make(map[int64][]val.Value)
	lines := make(map[int64][][]val.Value)
	touched := make(map[int64]struct{})
	err := scanLines(r, func(lineNo int, line string) error {
		tag, rest, _ := strings.Cut(line, "|")
		t, ok := deltaTags[tag]
		if !ok {
			return fmt.Errorf("warehouse: delta line %d: bad line %q", lineNo, line)
		}
		row, err := t.ParseLine(rest)
		if err != nil {
			return fmt.Errorf("warehouse: delta line %d: %w", lineNo, err)
		}
		key := t.Key(row)[0] // the order key leads all three primary keys
		switch t {
		case dbgen.OrdersTable:
			headers[key] = row
			touched[key] = struct{}{}
		case dbgen.LineitemTable:
			lines[key] = append(lines[key], row)
		default:
			touched[key] = struct{}{}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	keys := make([]int64, 0, len(touched))
	for k := range touched {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	selOld, err := w.sess.Prepare(`SELECT L_QUANTITY, L_EXTENDEDPRICE, L_DISCOUNT,
		L_RETURNFLAG, L_LINESTATUS, YEAR(L_SHIPDATE), MONTH(L_SHIPDATE), L_NATIONKEY
		FROM LINEITEM_F WHERE L_ORDERKEY = ?`)
	if err != nil {
		return nil, err
	}
	delFact, err := w.sess.Prepare(`DELETE FROM LINEITEM_F WHERE L_ORDERKEY = ?`)
	if err != nil {
		return nil, err
	}
	selNation, err := w.sess.Prepare(`SELECT C_NATIONKEY FROM CUSTOMER_D WHERE C_CUSTKEY = ?`)
	if err != nil {
		return nil, err
	}

	st := &Refresh{}
	// groups[i] numbers aggSpecs[i]'s touched groups by their encoded keys;
	// deltas[i] holds them under those numbers.
	groups := make([]val.KeyTable, len(aggSpecs))
	deltas := make([][]aggDelta, len(aggSpecs))
	var enc []byte
	// bump adds sign × one fact row's measures to the row's group of every
	// aggregate; dim maps a canonical dimension expression to the row's value.
	bump := func(dim map[string]val.Value, sign, qty int64, ext, disc float64) {
		for i, a := range aggSpecs {
			enc = enc[:0]
			for _, expr := range a.key {
				enc = val.AppendKey(enc, dim[expr])
			}
			g, isNew := groups[i].Insert(enc)
			if isNew {
				key := make([]val.Value, len(a.key))
				for j, expr := range a.key {
					key[j] = dim[expr]
				}
				deltas[i] = append(deltas[i], aggDelta{key: key, enc: groups[i].Key(g)})
			}
			d := &deltas[i][g]
			d.qty += sign * qty
			d.cnt += sign
			d.ext += float64(sign) * ext
			d.rev += float64(sign) * (ext * (1 - disc))
		}
	}

	nationOf := make(map[int64]int64)
	for _, key := range keys {
		// Subtract the order's old contributions and drop its fact rows.
		res, err := selOld.Query(val.Int(key))
		if err != nil {
			return nil, err
		}
		for _, row := range res.Rows {
			bump(factDims(row[3], row[4], row[5], row[6], row[7]),
				-1, row[0].AsInt(), row[1].AsFloat(), row[2].AsFloat())
		}
		if len(res.Rows) > 0 {
			if _, err := delFact.Query(val.Int(key)); err != nil {
				return nil, err
			}
			st.RowsDeleted += int64(len(res.Rows))
		}

		hdr, ok := headers[key]
		if !ok {
			continue // pure tombstone
		}
		ck := hdr[orderCols[1]].AsInt()
		nk, ok := nationOf[ck]
		if !ok {
			nres, err := selNation.Query(val.Int(ck))
			if err != nil {
				return nil, err
			}
			if len(nres.Rows) != 1 {
				return nil, fmt.Errorf("warehouse: delta customer %d not in CUSTOMER_D", ck)
			}
			nk = nres.Rows[0][0].AsInt()
			nationOf[ck] = nk
		}
		oi := orderInfo{custKey: ck, nationKey: nk, orderDate: hdr[orderCols[2]]}
		for _, li := range lines[key] {
			row := factRow(li, oi)
			w.m.Charge(cost.TupleCPU, 1)
			if err := w.sess.InsertRow("LINEITEM_F", row); err != nil {
				return nil, err
			}
			year, month := ymOf(row[12])
			bump(factDims(row[10], row[11], val.Int(year), val.Int(month), val.Int(nk)),
				1, row[6].AsInt(), row[7].AsFloat(), row[8].AsFloat())
			st.RowsInserted++
		}
	}
	w.sess.Commit()
	st.Orders = len(keys)

	// Patch the touched aggregate groups in place. Last spec first: the
	// order the refresh has always charged them in, which its simulated
	// page reads depend on.
	for i := len(aggSpecs) - 1; i >= 0; i-- {
		if err := w.patchAgg(&aggSpecs[i], deltas[i], st); err != nil {
			return nil, err
		}
	}
	st.Elapsed = w.m.Lap(start)
	return st, nil
}

// factDims names one fact row's dimension values by the canonical
// expressions an aggSpec's key lists.
func factDims(rf, ls, year, month, nation val.Value) map[string]val.Value {
	return map[string]val.Value{"col:L_RETURNFLAG": rf, "col:L_LINESTATUS": ls,
		"year:L_SHIPDATE": year, "month:L_SHIPDATE": month, "col:L_NATIONKEY": nation}
}

// ymOf splits a date value into calendar year and month the same way
// the engine's YEAR/MONTH functions do: off the rendered YYYY-MM-DD
// form, so group keys computed here and there always agree.
func ymOf(v val.Value) (year, month int64) {
	s := v.AsStr()
	if len(s) < 7 {
		return 0, 0
	}
	y, _ := strconv.ParseInt(s[:4], 10, 64)
	m, _ := strconv.ParseInt(s[5:7], 10, 64)
	return y, m
}

// aggMeasures are every aggregate table's measure columns, in table order.
const aggMeasures = "SUM_QTY, SUM_EXTPRICE, SUM_REVENUE, CNT"

// patchAgg folds the deltas of one aggregate's touched groups into its
// table: per group, update the row in place, insert a brand-new group, or
// delete a group whose row count reached zero (the count is exact, so
// "empty" is exact too). The four statements are generated from the
// aggregate's key columns, and the groups are visited in primary-key order
// (the encoded keys sort the way the index does), so refresh cost and
// results are deterministic.
func (w *Warehouse) patchAgg(a *aggSpec, deltas []aggDelta, st *Refresh) error {
	if len(deltas) == 0 {
		return nil
	}
	cols := make([]string, len(a.key))
	for i, expr := range a.key {
		cols[i] = a.dims[expr]
	}
	where := " WHERE " + strings.Join(cols, " = ? AND ") + " = ?"
	sel, err := w.sess.Prepare("SELECT " + aggMeasures + " FROM " + a.table + where)
	if err != nil {
		return err
	}
	upd, err := w.sess.Prepare("UPDATE " + a.table + " SET " + strings.ReplaceAll(aggMeasures, ",", " = ?,") + " = ?" + where)
	if err != nil {
		return err
	}
	ins, err := w.sess.Prepare("INSERT INTO " + a.table + " (" + strings.Join(cols, ", ") + ", " + aggMeasures +
		") VALUES (?" + strings.Repeat(", ?", len(cols)+3) + ")")
	if err != nil {
		return err
	}
	del, err := w.sess.Prepare("DELETE FROM " + a.table + where)
	if err != nil {
		return err
	}
	sort.Slice(deltas, func(i, j int) bool { return bytes.Compare(deltas[i].enc, deltas[j].enc) < 0 })
	for i := range deltas {
		d := &deltas[i]
		res, err := sel.Query(d.key...)
		if err != nil {
			return err
		}
		switch {
		case len(res.Rows) == 0 && d.cnt <= 0:
			return fmt.Errorf("warehouse: negative delta for missing aggregate group %v", d.key)
		case len(res.Rows) == 0:
			_, err = ins.Query(append(append([]val.Value{}, d.key...),
				val.Int(d.qty), val.Float(d.ext), val.Float(d.rev), val.Int(d.cnt))...)
		case res.Rows[0][3].AsInt()+d.cnt == 0:
			_, err = del.Query(d.key...)
		default:
			old := res.Rows[0]
			_, err = upd.Query(append([]val.Value{
				val.Int(old[0].AsInt() + d.qty),
				val.Float(old[1].AsFloat() + d.ext),
				val.Float(old[2].AsFloat() + d.rev),
				val.Int(old[3].AsInt() + d.cnt),
			}, d.key...)...)
		}
		if err != nil {
			return err
		}
		st.GroupsTouched++
	}
	return nil
}
