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

// renderPhysical renders the physical tuples that hold logical table lt.
func renderPhysical(t *testing.T, sys *System, lt *LogicalTable) []string {
	t.Helper()
	sql, params := "SELECT * FROM "+lt.Name, []val.Value(nil)
	switch lt.Kind {
	case Pooled:
		sql, params = "SELECT * FROM "+poolTableName+" WHERE TABNAME = ?", []val.Value{val.Str(lt.Name)}
	case Clustered:
		sql += clusterSuffix
	}
	res, err := sys.DB.NewSessionWithMeter(nil).Query(sql, params...)
	if err != nil {
		t.Fatalf("%s: %v", lt.Name, err)
	}
	return renderRows(res.Rows)
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
		{"batch input", func(sys *System) error { return sys.NewBatchInput(1).Load(g, nil) }},
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
		sc := newStmtCache(sys, sys.DB.NewSessionWithMeter(nil))
		names = names[:0]
		for _, lt := range sys.Tables() {
			names = append(names, lt.Name)
			phys[lt.Name] = renderPhysical(t, sys, lt)
			if lt.Kind == Transparent {
				// Its logical rows are its physical tuples.
				logi[lt.Name] = phys[lt.Name]
				continue
			}
			var rows [][]val.Value
			err := sys.scanLogical(sc, lt, nil, func(row []val.Value) error {
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
