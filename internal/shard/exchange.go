// The exchange operator: every shard extracts its slice of a partitioned
// table, sends each row where the exchange's route says — every shard
// (broadcast), shard 0 (gather) or the row's owner under a different key
// (shuffle) — and the receiving shards materialize what they got as a
// temporary table. The coordinator rewrites the query text to read the temp
// instead of the base table; the engine plans it like any other table, and
// the CREATE/DROP DDL bumps the plan-cache epoch so no stale plan survives.
//
// Costing: every (row, receiver) pair whose receiver is not the sender
// crosses a shard boundary and charges cost.NetShip on the *sender's* lane
// meter (plus per-packet latency via cost.ChargeNetShip); rows a shard
// keeps for itself are free. The receivers pay the materialization on
// their own lanes. Lanes combine into the cluster meter under the
// exchange's span node, whose row count is the number of crossing rows.
package shard

import (
	"fmt"
	"slices"
	"strings"

	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/val"
)

// tempTable describes how to extract and re-materialize one relation
// through an exchange.
type tempTable struct {
	cols string // projection list, in base-table column order
	ddl  string // column definitions for CREATE TABLE
}

// exchTables maps each exchangeable relation to its temp definition.
// customer and supplier mirror the full tpcd schema (any query may read
// any column), so they are dbgen's descriptors; lineitem ships only the
// three columns Q17 touches, and revenue0 is Q15's view shape (its rows
// come from a partial merge, not an extraction).
var exchTables = map[string]tempTable{
	"customer": {cols: dbgen.CustomerTable.ColumnList(), ddl: dbgen.CustomerTable.Definition()},
	"supplier": {cols: dbgen.SupplierTable.ColumnList(), ddl: dbgen.SupplierTable.Definition()},
	"lineitem": {
		cols: "l_partkey, l_quantity, l_extendedprice",
		ddl:  `(l_partkey INTEGER, l_quantity DECIMAL(15,2), l_extendedprice DECIMAL(15,2))`,
	},
	"revenue0": {ddl: `(supplier_no INTEGER PRIMARY KEY, total_revenue DECIMAL(15,2))`},
}

// route says where an exchange sends a row.
type route int

const (
	broadcast route = iota // every shard
	gather                 // shard 0, where the coordinator runs
	shuffle                // shardOf(row[key]): repartition by another key
)

func (r route) String() string { return [...]string{"broadcast", "gather", "shuffle"}[r] }

// input is one relation a statement reads from a temp instead of in place:
// a partitioned table an exchange moves by route, or — merged — the
// query's view, whose body runs as shard partials merged at the coordinator
// and lands on shard 0.
type input struct {
	table  string
	route  route
	key    int  // shuffle: the routing column's index in the projection
	merged bool // the view's merged result; route is gather
}

// temp names the temp table the input lands in: the table plus a suffix
// saying how it got there (_bx, _gx, _sx; _dx for a merged view).
func (in input) temp() string {
	if in.merged {
		return in.table + "_dx"
	}
	return in.table + "_" + in.route.String()[:1] + "x"
}

// receivers returns how many shards an input lands on.
func (in input) receivers(n int) int {
	if in.route == gather {
		return 1
	}
	return n
}

// to returns the receivers of row as the shard range [lo, hi).
func (in input) to(row []val.Value, n int) (lo, hi int) {
	switch in.route {
	case broadcast:
		return 0, n
	case gather:
		return 0, 1
	}
	d := shardOf(row[in.key].AsInt(), n)
	return d, d + 1
}

// isIdentByte reports whether b can appear inside an SQL identifier.
func isIdentByte(b byte) bool {
	return b == '_' ||
		('a' <= b && b <= 'z') || ('A' <= b && b <= 'Z') || ('0' <= b && b <= '9')
}

// rewriteIdent replaces whole-identifier occurrences of from with to in
// sql, leaving substrings inside longer identifiers (ps_suppkey vs
// supplier) untouched. The TPC-D texts use lowercase identifiers, so a
// case-sensitive match suffices.
func rewriteIdent(sql, from, to string) string {
	var b strings.Builder
	for i := 0; i < len(sql); {
		j := strings.Index(sql[i:], from)
		if j < 0 {
			b.WriteString(sql[i:])
			break
		}
		j += i
		end := j + len(from)
		whole := (j == 0 || !isIdentByte(sql[j-1])) &&
			(end >= len(sql) || !isIdentByte(sql[end]))
		if whole {
			b.WriteString(sql[i:j])
			b.WriteString(to)
		} else {
			b.WriteString(sql[i:end])
		}
		i = end
	}
	return b.String()
}

// exchange moves input in into its temp: each shard extracts its slice
// through the engine's partial path — full execution charges (parse,
// optimize, scan) on its lane, but no client RowShip, because the rows
// leave through the exchange, not through the SQL interface — and sends
// every row to its receivers, charging the crossings once per sender. A row
// that goes to several receivers is copied for all but the first: insertRow
// coerces values in place, so each receiver loads its own, exactly as each
// would deserialize its own frames off the wire. A receiver's rows arrive in
// sender order, then sender pipeline order — deterministic.
func (c *Cluster) exchange(q int, parent *cost.Span, in input) error {
	info, tmp := exchTables[in.table], in.temp()
	sent := make([][][][]val.Value, c.n) // [sender][receiver] rows
	crossed := make([]int64, c.n)
	sp, err := c.parallelPhase(parent, fmt.Sprintf("%s(%s→%s)", in.route, in.table, tmp), func(i int, m *cost.Meter) error {
		pa, err := c.dbs[i].NewSessionWithMeter(m).QueryPartial("SELECT " + info.cols + " FROM " + in.table)
		if err != nil {
			return err
		}
		to := make([][][]val.Value, in.receivers(c.n))
		for _, row := range pa.Rows() {
			lo, hi := in.to(row, c.n)
			for d := lo; d < hi; d++ {
				r := row
				if d > lo {
					r = slices.Clone(row)
				}
				to[d] = append(to[d], r)
				if d != i {
					crossed[i]++
				}
			}
		}
		sent[i] = to
		cost.ChargeNetShip(m, crossed[i])
		return nil
	})
	if err != nil {
		return err
	}
	got := make([][][]val.Value, in.receivers(c.n))
	for d := range got {
		for _, to := range sent {
			got[d] = append(got[d], to[d]...)
		}
	}
	if err := c.land(parent, tmp, info.ddl, got); err != nil {
		return err
	}
	c.noteShipped(q, sp, crossed)
	return nil
}

// land creates temp table name on each receiving shard d and loads rows[d]
// into it, then refreshes its stats: on every shard as parallel lanes, or —
// one receiver — on shard 0 alone, folded with the serial rule. The
// receiving end of an exchange lands rows in memory-resident scratch space
// — no redo logging, no forced flush, no durable commit — so a lane is
// charged per-row insert CPU (plus the CREATE's dialog step), not the
// PageWrite/Commit costs a persistent bulk load would pay. Reads of the
// temp during the downstream plan still charge normally.
func (c *Cluster) land(parent *cost.Span, name, ddl string, rows [][][]val.Value) error {
	load := func(d int, m *cost.Meter) error {
		if _, err := c.dbs[d].NewSessionWithMeter(m).Exec("CREATE TABLE " + name + " " + ddl); err != nil {
			return err
		}
		if err := c.dbs[d].BulkLoad(name, rows[d], nil); err != nil {
			return err
		}
		m.Charge(cost.TupleCPU, int64(len(rows[d])))
		return c.dbs[d].Analyze(name)
	}
	phase := "materialize(" + name + ")"
	if len(rows) == 1 {
		_, err := c.serialPhase(parent, phase, func(m *cost.Meter) error { return load(0, m) })
		return err
	}
	_, err := c.parallelPhase(parent, phase, load)
	return err
}

// dropTemps drops temp tables under a cleanup span, in parallel lanes: from
// shard 0 alone when only it received them, else from every shard. Missing
// temps (a failed exchange) are ignored.
func (c *Cluster) dropTemps(parent *cost.Span, names []string, shard0 bool) {
	if len(names) == 0 {
		return
	}
	c.parallelPhase(parent, "cleanup", func(i int, m *cost.Meter) error {
		if shard0 && i != 0 {
			return nil
		}
		sess := c.dbs[i].NewSessionWithMeter(m)
		for _, name := range names {
			sess.Exec("DROP TABLE " + name) // best-effort
		}
		return nil
	})
}
