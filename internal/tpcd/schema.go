// Package tpcd implements the TPC-D benchmark (Standard Specification
// 1.0, May 1995) against this repository's engine: the original
// eight-table schema, a loader fed by internal/dbgen, the 17-query suite
// plus the two update functions, and a power-test runner that any
// implementation strategy (isolated RDBMS, SAP Native SQL, SAP Open SQL
// 2.2/3.0) plugs into.
//
// Queries are expressed in this engine's SQL dialect: no INTERVAL
// arithmetic (date literals are pre-computed) and YEAR() instead of
// EXTRACT, which flattens the spec's derived-table formulations of
// Q7–Q9. Q13's original 1.0 text is adapted (see queries.go).
package tpcd

import (
	"fmt"
	"strings"

	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/engine"
)

// SchemaDDL is the original TPC-D database: eight tables with 4-byte
// integer keys — the lean schema whose size Table 2 contrasts with the
// SAP database. The columns are dbgen's table descriptors'.
var SchemaDDL = func() []string {
	ddl := make([]string, len(dbgen.Tables))
	for i, t := range dbgen.Tables {
		ddl[i] = "CREATE TABLE " + strings.ToLower(t.Name) + " " + t.Definition()
	}
	return ddl
}()

// IndexDDL is the secondary-index set of the original database ("both
// databases have an equivalent set of indexes", paper Section 3.4.1).
var IndexDDL = []string{
	`CREATE INDEX l_part ON lineitem (l_partkey)`,
	`CREATE INDEX o_cust ON orders (o_custkey)`,
	`CREATE INDEX ps_supp ON partsupp (ps_suppkey)`,
	`CREATE INDEX c_nat ON customer (c_nationkey)`,
	`CREATE INDEX s_nat ON supplier (s_nationkey)`,
}

// CreateSchema creates tables and indexes on an empty database.
func CreateSchema(db *engine.DB, m *cost.Meter) error {
	s := db.NewSessionWithMeter(m)
	for _, ddl := range SchemaDDL {
		if _, err := s.Exec(ddl); err != nil {
			return fmt.Errorf("tpcd: %w", err)
		}
	}
	for _, ddl := range IndexDDL {
		if _, err := s.Exec(ddl); err != nil {
			return fmt.Errorf("tpcd: %w", err)
		}
	}
	return nil
}
