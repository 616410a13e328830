package r3

import (
	"slices"
	"strings"
	"testing"

	"r3bench/internal/dbgen"
	"r3bench/internal/val"
)

// renderRows renders rows exactly, one string a row, sorted: two tables
// hold the same multiset of tuples iff their renderings are equal.
func renderRows(rows [][]val.Value) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		var b strings.Builder
		for _, v := range row {
			b.WriteString(v.String())
			b.WriteByte('|')
		}
		out[i] = b.String()
	}
	slices.Sort(out)
	return out
}

// TestWritersAgree enters the same population through the three write
// interfaces — batch input (OpenSQL.Insert / InsertGroup), the setup loader
// (System.LoadDirect) and the direct path (DirectPath.Load) — and checks,
// for each of the 17 logical tables, that its physical table holds the same
// multiset of physical tuples whichever way they came, and that the
// dictionary reads the same logical rows back: the three writers are three
// emitters of one logical-to-physical mapping.
func TestWritersAgree(t *testing.T) {
	g := dbgen.New(0.001)
	loaders := []struct {
		name string
		load func(sys *System) error
	}{
		{"batch input", func(sys *System) error {
			b := sys.NewBatchInput(1)
			for _, n := range g.NationRows() {
				if err := b.EnterNation(n); err != nil {
					return err
				}
			}
			for _, r := range g.Regions() {
				if err := b.EnterRegion(r); err != nil {
					return err
				}
			}
			if err := g.Suppliers(b.EnterSupplier); err != nil {
				return err
			}
			if err := g.Parts(b.EnterPart); err != nil {
				return err
			}
			j := 0
			if err := g.PartSupps(func(ps dbgen.PartSupp) error {
				j++
				return b.EnterPartSupp(ps, (j-1)%4)
			}); err != nil {
				return err
			}
			if err := g.Customers(b.EnterCustomer); err != nil {
				return err
			}
			return g.Orders(b.EnterOrder)
		}},
		{"LoadDirect", func(sys *System) error { return sys.LoadDirect(g) }},
		{"DirectPath", func(sys *System) error { return sys.NewDirectPath(2).Load(g) }},
	}

	// physical[w][table] and logical[w][table] are writer w's renderings.
	type rendering map[string][]string
	var physical, logical []rendering
	var names []string
	for _, l := range loaders {
		sys, err := Install(Config{Release: Release22})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.load(sys); err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		phys, logi := rendering{}, rendering{}
		sess := sys.DB.NewSessionWithMeter(nil)
		sc := newStmtCache(sys, sess)
		names = names[:0]
		for _, lt := range sys.Tables() {
			names = append(names, lt.Name)
			sql, params := "SELECT * FROM "+lt.Name, []val.Value(nil)
			switch lt.Kind {
			case Pooled:
				sql, params = "SELECT * FROM "+poolTableName+" WHERE TABNAME = ?", []val.Value{val.Str(lt.Name)}
			case Clustered:
				sql += clusterSuffix
			}
			res, err := sess.Query(sql, params...)
			if err != nil {
				t.Fatalf("%s: %s: %v", l.name, lt.Name, err)
			}
			phys[lt.Name] = renderRows(res.Rows)
			var rows [][]val.Value
			err = sys.scanLogical(sc, lt, nil, func(row []val.Value) error {
				rows = append(rows, slices.Clone(row))
				return nil
			})
			if err != nil {
				t.Fatalf("%s: scan %s: %v", l.name, lt.Name, err)
			}
			logi[lt.Name] = renderRows(rows)
		}
		physical, logical = append(physical, phys), append(logical, logi)
	}
	if len(names) != 17 {
		t.Fatalf("dictionary has %d logical tables, want 17", len(names))
	}
	for _, name := range names {
		if len(physical[0][name]) == 0 || len(logical[0][name]) == 0 {
			t.Errorf("%s: batch input left no rows", name)
		}
		for w := 1; w < len(loaders); w++ {
			if !slices.Equal(physical[0][name], physical[w][name]) {
				t.Errorf("%s: physical tuples differ between %s (%d) and %s (%d)", name,
					loaders[0].name, len(physical[0][name]), loaders[w].name, len(physical[w][name]))
			}
			if !slices.Equal(logical[0][name], logical[w][name]) {
				t.Errorf("%s: logical rows differ between %s (%d) and %s (%d)", name,
					loaders[0].name, len(logical[0][name]), loaders[w].name, len(logical[w][name]))
			}
		}
	}
}
