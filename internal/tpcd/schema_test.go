package tpcd

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"r3bench/internal/engine"
)

// TestSchemaFromDescriptors pins the catalog CreateSchema leaves behind —
// every table's columns with kind, width and NOT NULL, its primary key and
// its indexes — against testdata/schema_golden.txt, recorded while the DDL
// was eight hand-written CREATE TABLE texts (-update re-records).
func TestSchemaFromDescriptors(t *testing.T) {
	db := engine.Open(engine.Config{})
	if err := CreateSchema(db, nil); err != nil {
		t.Fatal(err)
	}
	names := db.TableNames()
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		tab := db.Table(name)
		colNames := func(idxs []int) string {
			out := make([]string, len(idxs))
			for i, ci := range idxs {
				out[i] = tab.Cols[ci].Name
			}
			return strings.Join(out, ", ")
		}
		fmt.Fprintf(&b, "%s  primary key (%s)\n", tab.Name, colNames(tab.PrimaryKey))
		for _, c := range tab.Cols {
			fmt.Fprintf(&b, "  %-16s %s(%d) notnull=%v\n", c.Name, c.Type.Kind, c.Type.Width, c.NotNull)
		}
		for _, ix := range tab.Indexes {
			fmt.Fprintf(&b, "  index %s (%s) unique=%v clustered=%v\n", ix.Name, colNames(ix.ColIdxs), ix.Unique, ix.Clustered)
		}
	}
	checkTextGolden(t, "testdata/schema_golden.txt", b.String())
}
