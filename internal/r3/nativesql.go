package r3

import (
	"fmt"
	"strings"

	"r3bench/internal/cost"
	"r3bench/internal/engine"
	"r3bench/internal/sqlparse"
	"r3bench/internal/val"
)

// NativeSQL is the EXEC SQL interface of paper Section 2.3: statements go
// straight to the RDBMS, bypassing the data dictionary. That buys the
// full power of the back end (vendor functions, arbitrary SQL) at three
// costs the paper lists: statements may be vendor-specific, encapsulated
// (pool/cluster) tables are unreachable, and nothing injects the MANDT
// client predicate for you — the report author must remember it
// (Section 4.1's cautionary example).
type NativeSQL struct {
	sys  *System
	sess *engine.Session
	ph   *Phases
}

// NativeSQL opens an EXEC SQL connection charging the given meter.
func (sys *System) NativeSQL(m *cost.Meter) *NativeSQL {
	return &NativeSQL{sys: sys, sess: sys.DB.NewSessionWithMeter(m)}
}

// SetPhases directs the connection's phase attribution (nil detaches).
// Statements run through Exec attribute to the DB phase.
func (n *NativeSQL) SetPhases(p *Phases) { n.ph = p }

// Exec runs one SQL statement directly on the RDBMS. Statements that
// reference encapsulated tables fail: "EXEC SQL commands cannot access
// encapsulated relations".
func (n *NativeSQL) Exec(sql string, params ...val.Value) (*engine.Result, error) {
	if err := n.checkEncapsulation(sql); err != nil {
		return nil, err
	}
	defer n.ph.enterDB(n.sess.Meter)()
	return n.sess.Exec(sql, params...)
}

// checkEncapsulation parses through the DB's fingerprint cache: the
// immediately following Exec of the same text is then a cache
// hit, so the encapsulation gate does not double the real parse cost.
func (n *NativeSQL) checkEncapsulation(sql string) error {
	stmt, err := n.sys.DB.Parse(sql)
	if err != nil {
		return err
	}
	for _, tbl := range referencedTables(stmt) {
		if n.sys.Encapsulated(tbl) {
			return fmt.Errorf("r3: Native SQL cannot access encapsulated table %s (%s)",
				tbl, n.sys.Table(tbl).Kind)
		}
	}
	return nil
}

// referencedTables collects every table name a statement touches,
// including subqueries.
func referencedTables(stmt sqlparse.Statement) []string {
	var out []string
	switch st := stmt.(type) {
	case *sqlparse.InsertStmt:
		out = append(out, strings.ToUpper(st.Table))
	case *sqlparse.UpdateStmt:
		out = append(out, strings.ToUpper(st.Table))
	case *sqlparse.DeleteStmt:
		out = append(out, strings.ToUpper(st.Table))
	}
	sqlparse.Inspect(stmt, func(n sqlparse.Node) bool {
		if bt, ok := n.(*sqlparse.BaseTable); ok {
			out = append(out, strings.ToUpper(bt.Name))
		}
		return true
	})
	return out
}
