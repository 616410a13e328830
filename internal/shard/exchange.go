// Exchange operators: broadcast (all-gather a partitioned table onto
// every shard), gather (collect a partitioned table onto shard 0), and
// shuffle (repartition rows by a different key). All three materialize
// the shipped rows as a temporary table on the receiving shard(s) and
// the coordinator rewrites the query text to read the temp instead of
// the base table — the engine plans it like any other table, and the
// CREATE/DROP DDL bumps the plan-cache epoch so no stale plan survives.
//
// Costing: every row that crosses a shard boundary charges cost.NetShip
// on the *sender's* lane meter (plus per-packet latency via
// cost.ChargeNetShip); rows a shard keeps for itself are free. The
// receiver pays the materialization (BulkLoad page writes) on its own
// lane. Lanes combine into the cluster meter under the exchange's span
// node, whose row count is the number of crossing rows.
package shard

import (
	"strings"
	"sync"

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
// three columns Q17 touches, and revenue0 is Q15's view shape.
var exchTables = map[string]tempTable{
	"customer": {cols: dbgen.CustomerTable.ColumnList(), ddl: dbgen.CustomerTable.Definition()},
	"supplier": {cols: dbgen.SupplierTable.ColumnList(), ddl: dbgen.SupplierTable.Definition()},
	"lineitem": {
		cols: "l_partkey, l_quantity, l_extendedprice",
		ddl:  `(l_partkey INTEGER, l_quantity DECIMAL(15,2), l_extendedprice DECIMAL(15,2))`,
	},
	"revenue0": {
		cols: "supplier_no, total_revenue",
		ddl:  `(supplier_no INTEGER PRIMARY KEY, total_revenue DECIMAL(15,2))`,
	},
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

// extract pulls one shard's slice of a relation through the engine's
// partial path: full execution charges (parse, optimize, scan) on m, but
// no client RowShip — the rows leave through an exchange, not through
// the SQL interface.
func (c *Cluster) extract(shard int, m *cost.Meter, sql string) ([][]val.Value, error) {
	sess := c.dbs[shard].NewSessionWithMeter(m)
	pa, err := sess.QueryPartial(sql)
	if err != nil {
		return nil, err
	}
	return pa.Rows(), nil
}

// materialize creates temp table name on one shard and loads the
// exchanged rows into it, then refreshes its stats. The receiving end
// of an exchange lands rows in memory-resident scratch space — no redo
// logging, no forced flush, no durable commit — so the lane is charged
// per-row insert CPU (plus the CREATE's dialog step), not the
// PageWrite/Commit costs a persistent bulk load would pay. Reads of the
// temp during the downstream plan still charge normally.
func (c *Cluster) materialize(shard int, m *cost.Meter, name, ddl string, rows [][]val.Value) error {
	sess := c.dbs[shard].NewSessionWithMeter(m)
	if _, err := sess.Exec("CREATE TABLE " + name + " " + ddl); err != nil {
		return err
	}
	if err := c.dbs[shard].BulkLoad(name, rows, nil); err != nil {
		return err
	}
	m.Charge(cost.TupleCPU, int64(len(rows)))
	return c.dbs[shard].Analyze(name)
}

// dropTemps drops temp tables from the listed shards in parallel lanes
// under a cleanup span. Missing temps (a failed exchange) are ignored.
func (c *Cluster) dropTemps(parent *cost.Span, names []string, shards []int) {
	if len(names) == 0 || len(shards) == 0 {
		return
	}
	c.parallelPhase(parent, "cleanup", func(i int, m *cost.Meter) error {
		for _, on := range shards {
			if on != i {
				continue
			}
			sess := c.dbs[i].NewSessionWithMeter(m)
			for _, name := range names {
				sess.Exec("DROP TABLE " + name) // best-effort
			}
		}
		return nil
	})
}

func allShards(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// broadcast all-gathers partitioned table `table` onto every shard as
// temp `tmp`: each shard extracts its partition, ships it to the other
// n-1 shards (crossings charged on the sender), and every shard
// materializes the full relation. Returns the crossing-row count.
func (c *Cluster) broadcast(q int, parent *cost.Span, table, tmp string) (int64, error) {
	info := exchTables[table]
	parts := make([][][]val.Value, c.n)
	var crossed int64
	var mu sync.Mutex
	sp, err := c.parallelPhase(parent, "broadcast("+table+"→"+tmp+")", func(i int, m *cost.Meter) error {
		rows, err := c.extract(i, m, "SELECT "+info.cols+" FROM "+table)
		if err != nil {
			return err
		}
		parts[i] = rows
		n := int64(len(rows)) * int64(c.n-1)
		cost.ChargeNetShip(m, n)
		mu.Lock()
		crossed += n
		mu.Unlock()
		return nil
	})
	if err != nil {
		return 0, err
	}
	var full [][]val.Value
	for _, rows := range parts {
		full = append(full, rows...)
	}
	_, err = c.parallelPhase(parent, "materialize("+tmp+")", func(i int, m *cost.Meter) error {
		// Every shard loads the same logical rows, but insertRow coerces
		// values in place — each receiver needs its own copy, exactly as
		// each would deserialize its own frames off the wire.
		mine := make([][]val.Value, len(full))
		for r, row := range full {
			mine[r] = append([]val.Value(nil), row...)
		}
		return c.materialize(i, m, tmp, info.ddl, mine)
	})
	if err != nil {
		return 0, err
	}
	sp.AddRows(crossed)
	c.noteShipped(q, crossed)
	return crossed, nil
}

// gather collects partitioned table `table` onto shard 0 as temp `tmp`.
// Shard 0's own partition stays put (no crossing, no charge); every
// other shard ships its slice to the coordinator's shard.
func (c *Cluster) gather(q int, parent *cost.Span, table, tmp string) (int64, error) {
	info := exchTables[table]
	parts := make([][][]val.Value, c.n)
	var crossed int64
	var mu sync.Mutex
	sp, err := c.parallelPhase(parent, "gather("+table+"→"+tmp+")", func(i int, m *cost.Meter) error {
		rows, err := c.extract(i, m, "SELECT "+info.cols+" FROM "+table)
		if err != nil {
			return err
		}
		parts[i] = rows
		if i != 0 {
			cost.ChargeNetShip(m, int64(len(rows)))
			mu.Lock()
			crossed += int64(len(rows))
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	var full [][]val.Value
	for _, rows := range parts {
		full = append(full, rows...)
	}
	_, err = c.serialPhase(parent, "materialize("+tmp+")", func(m *cost.Meter) error {
		return c.materialize(0, m, tmp, info.ddl, full)
	})
	if err != nil {
		return 0, err
	}
	sp.AddRows(crossed)
	c.noteShipped(q, crossed)
	return crossed, nil
}

// shuffle repartitions `table` by the key in column keyIdx of the temp
// projection: each shard extracts its slice, routes every row to
// shardOf(key), ships the rows whose owner differs (charged on the
// sender), and each shard materializes exactly its new partition. Row
// order within a destination is sender-shard order, then sender
// pipeline order — deterministic.
func (c *Cluster) shuffle(q int, parent *cost.Span, table, tmp string, keyIdx int) (int64, error) {
	info := exchTables[table]
	buckets := make([][][][]val.Value, c.n) // [sender][dest][row]
	var crossed int64
	var mu sync.Mutex
	sp, err := c.parallelPhase(parent, "shuffle("+table+"→"+tmp+")", func(i int, m *cost.Meter) error {
		rows, err := c.extract(i, m, "SELECT "+info.cols+" FROM "+table)
		if err != nil {
			return err
		}
		dest := make([][][]val.Value, c.n)
		var moved int64
		for _, row := range rows {
			d := shardOf(row[keyIdx].AsInt(), c.n)
			dest[d] = append(dest[d], row)
			if d != i {
				moved++
			}
		}
		buckets[i] = dest
		cost.ChargeNetShip(m, moved)
		mu.Lock()
		crossed += moved
		mu.Unlock()
		return nil
	})
	if err != nil {
		return 0, err
	}
	_, err = c.parallelPhase(parent, "materialize("+tmp+")", func(i int, m *cost.Meter) error {
		var mine [][]val.Value
		for sender := 0; sender < c.n; sender++ {
			mine = append(mine, buckets[sender][i]...)
		}
		return c.materialize(i, m, tmp, info.ddl, mine)
	})
	if err != nil {
		return 0, err
	}
	sp.AddRows(crossed)
	c.noteShipped(q, crossed)
	return crossed, nil
}
