package r3

import (
	"fmt"
	"strings"

	"r3bench/internal/val"
)

// Release 3.0 extensions to Open SQL: the JOIN ... ON syntax and simple
// grouping/aggregation inside the SELECT, both delegated to the RDBMS
// (paper Section 2.3, "Extended Query Facilities of R/3 Release 3.0").
//
// The limits the paper measures are enforced here:
//   - only Release 3.0 systems accept joins at all;
//   - only transparent tables can participate;
//   - aggregates apply to a single bare column — "an aggregation cannot
//     contain an arithmetic expression which is needed, for example, to
//     total the discounted price of orders".

// JT is one table of a join, with its alias.
type JT struct {
	Table string
	Alias string
}

// On is one join condition: L.LC = R.RC.
type On struct {
	LA, LC, RA, RC string
}

// WhereA is one WHERE condition scoped to a table alias.
type WhereA struct {
	Alias string
	Cond  Cond
}

// ColRef names an output or grouping column. As renames the output
// field (needed when two aliases of the same table ship the same column).
type ColRef struct {
	Alias, Col string
	As         string
}

// AggRef is a simple aggregate over one bare column. As names the output
// field.
type AggRef struct {
	Fn  string // SUM, AVG, COUNT, MIN, MAX
	Ref ColRef // ignored for COUNT(*) (empty Col)
	As  string
}

// OrderRef is one ORDER BY key.
type OrderRef struct {
	Field string // an output field name (column name or aggregate alias)
	Desc  bool
}

// JoinQuery is a Release 3.0 Open SQL SELECT with joins.
type JoinQuery struct {
	Tables  []JT
	On      []On
	Where   []WhereA
	Select  []ColRef // non-aggregate outputs; must be grouped if Aggs set
	GroupBy []ColRef
	Aggs    []AggRef
	OrderBy []OrderRef
	Limit   int // UP TO n ROWS; 0 = no limit
}

// SelectJoin translates the join query to (parameterized) SQL and pushes
// it down to the RDBMS, streaming result rows to fn, each valid until fn
// returns (see Select). Output fields are named by column name (or
// AggRef.As for aggregates).
func (o *OpenSQL) SelectJoin(q JoinQuery, fn func(Row) error) error {
	if o.sys.Version() != Release30 {
		return fmt.Errorf("r3: Open SQL joins require Release 3.0 (installed: %s)", o.sys.Version())
	}
	aliasSeen := map[string]*LogicalTable{}
	for _, jt := range q.Tables {
		t := o.sys.Table(jt.Table)
		if t == nil {
			return fmt.Errorf("r3: unknown table %s", jt.Table)
		}
		if t.Kind != Transparent {
			return fmt.Errorf("r3: %s is a %s table and cannot participate in a join", t.Name, t.Kind)
		}
		a := jt.Alias
		if a == "" {
			a = jt.Table
		}
		aliasSeen[a] = t
	}

	for _, on := range q.On {
		if aliasSeen[on.LA] == nil || aliasSeen[on.RA] == nil {
			return fmt.Errorf("r3: join condition references unknown alias (%s/%s)", on.LA, on.RA)
		}
	}
	var sel []string
	var outNames []string
	for _, cr := range q.Select {
		sel = append(sel, cr.Alias+"."+cr.Col)
		name := cr.As
		if name == "" {
			name = cr.Col
		}
		outNames = append(outNames, name)
	}
	for _, ag := range q.Aggs {
		if ag.Ref.Col == "" {
			if ag.Fn != "COUNT" {
				return fmt.Errorf("r3: %s requires a column", ag.Fn)
			}
			sel = append(sel, "COUNT(*)")
		} else {
			sel = append(sel, fmt.Sprintf("%s(%s.%s)", ag.Fn, ag.Ref.Alias, ag.Ref.Col))
		}
		name := ag.As
		if name == "" {
			name = ag.Fn + "_" + ag.Ref.Col
		}
		outNames = append(outNames, name)
	}
	if len(sel) == 0 {
		return fmt.Errorf("r3: empty select list")
	}

	var from []string
	var where []string
	var params []val.Value
	for _, jt := range q.Tables {
		a := jt.Alias
		if a == "" {
			a = jt.Table
		}
		from = append(from, jt.Table+" "+a)
		where = append(where, a+".MANDT = ?")
		params = append(params, val.Str(DefaultClient))
	}
	for _, on := range q.On {
		where = append(where, fmt.Sprintf("%s.%s = %s.%s", on.LA, on.LC, on.RA, on.RC))
	}
	var cond []byte
	for _, w := range q.Where {
		var err error
		if cond, params, err = appendCond(cond[:0], params, w.Alias, w.Cond); err != nil {
			return err
		}
		where = append(where, string(cond))
	}

	text := "SELECT " + strings.Join(sel, ", ") + " FROM " + strings.Join(from, ", ") +
		" WHERE " + strings.Join(where, " AND ")
	if len(q.GroupBy) > 0 {
		var gb []string
		for _, cr := range q.GroupBy {
			gb = append(gb, cr.Alias+"."+cr.Col)
		}
		text += " GROUP BY " + strings.Join(gb, ", ")
	}
	if len(q.OrderBy) > 0 {
		var ob []string
		for _, or := range q.OrderBy {
			pos := -1
			for i, n := range outNames {
				if n == or.Field {
					pos = i
					break
				}
			}
			if pos < 0 {
				return fmt.Errorf("r3: ORDER BY field %s not in select list", or.Field)
			}
			item := sel[pos]
			if or.Desc {
				item += " DESC"
			}
			ob = append(ob, item)
		}
		text += " ORDER BY " + strings.Join(ob, ", ")
	}
	if q.Limit > 0 {
		text += fmt.Sprintf(" LIMIT %d", q.Limit)
	}

	st, err := o.cursor([]byte(text), "")
	if err != nil {
		return err
	}
	cols := make(map[string]int, len(outNames))
	for i, n := range outNames {
		cols[n] = i
	}
	err = o.sc.each(o.ph, st, params, func(vals []val.Value) error { return fn(Row{cols: cols, vals: vals}) })
	if err == errStopSelect {
		return nil
	}
	return err
}

// CreateJoinView defines an SAP join view: Release 2.2's only vehicle for
// pushing joins to the RDBMS. Views can only be defined over transparent
// tables and only along key relationships (paper Section 2.3); the name
// then behaves like a logical table for Open SQL Select.
func (sys *System) CreateJoinView(name string, q JoinQuery) error {
	name = strings.ToUpper(name)
	var outCols []Col
	var sel []string
	var from []string
	var where []string
	tables := map[string]*LogicalTable{}
	for _, jt := range q.Tables {
		t := sys.Table(jt.Table)
		if t == nil {
			return fmt.Errorf("r3: unknown table %s", jt.Table)
		}
		if t.Kind != Transparent {
			return fmt.Errorf("r3: join views allow only transparent tables; %s is a %s table", t.Name, t.Kind)
		}
		a := jt.Alias
		if a == "" {
			a = jt.Table
		}
		tables[a] = t
		from = append(from, jt.Table+" "+a)
		where = append(where, a+".MANDT = '"+DefaultClient+"'")
	}
	for _, on := range q.On {
		// Key relationship check: the right column must belong to the
		// right table's primary key (or vice versa).
		lt, rt := tables[on.LA], tables[on.RA]
		if lt == nil || rt == nil {
			return fmt.Errorf("r3: join view: unknown alias in ON")
		}
		if !isKeyCol(rt, on.RC) && !isKeyCol(lt, on.LC) {
			return fmt.Errorf("r3: join views only along key relationships (%s.%s = %s.%s)",
				on.LA, on.LC, on.RA, on.RC)
		}
		where = append(where, fmt.Sprintf("%s.%s = %s.%s", on.LA, on.LC, on.RA, on.RC))
	}
	// Expose MANDT so Open SQL's automatic client predicate resolves.
	firstAlias := q.Tables[0].Alias
	if firstAlias == "" {
		firstAlias = q.Tables[0].Table
	}
	sel = append(sel, firstAlias+".MANDT AS MANDT")
	seen := map[string]bool{}
	for _, cr := range q.Select {
		t := tables[cr.Alias]
		if t == nil {
			return fmt.Errorf("r3: join view: unknown alias %s", cr.Alias)
		}
		ci := t.ColIndex(cr.Col)
		if ci < 0 {
			return fmt.Errorf("r3: join view: no column %s.%s", cr.Alias, cr.Col)
		}
		if seen[cr.Col] {
			return fmt.Errorf("r3: join view: duplicate output column %s", cr.Col)
		}
		seen[cr.Col] = true
		sel = append(sel, fmt.Sprintf("%s.%s AS %s", cr.Alias, cr.Col, cr.Col))
		outCols = append(outCols, Col{Name: cr.Col, Type: t.Cols[ci].Type})
	}
	ddl := "CREATE VIEW " + name + " AS SELECT " + strings.Join(sel, ", ") +
		" FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND ")
	s := sys.DB.NewSessionWithMeter(nil)
	if _, err := s.Exec(ddl); err != nil {
		return err
	}
	// Register the view as a transparent read-only dictionary entry so
	// Open SQL Select works against it. MANDT is part of the view's
	// definition, not its columns, so add a pseudo key.
	lt := (&LogicalTable{
		Name: name,
		Kind: Transparent,
		Cols: append([]Col{{Name: "MANDT", Type: val.Char(3)}}, outCols...),
	}).init()
	sys.mu.Lock()
	sys.ddic[name] = lt
	sys.mu.Unlock()
	return nil
}

func isKeyCol(t *LogicalTable, col string) bool {
	for _, kc := range t.KeyCols {
		if kc == col {
			return true
		}
	}
	return false
}
