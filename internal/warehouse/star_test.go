package warehouse

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
)

// buildFromTbl stands up a warehouse over a generator population
// written as .tbl files.
func buildFromTbl(t *testing.T, dir string, parallel int) *Warehouse {
	t.Helper()
	wh, err := NewWarehouse(cost.Model{}, parallel)
	if err != nil {
		t.Fatal(err)
	}
	st, err := wh.Build(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.FactRows == 0 || st.DimRows == 0 || st.AggRows == 0 {
		t.Fatalf("empty build: %+v", st)
	}
	return wh
}

func writeTblDir(t *testing.T, g *dbgen.Generator) string {
	t.Helper()
	dir := t.TempDir()
	if _, err := g.WriteTbl(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// runWorkload runs every query and returns per-query fingerprints.
func runWorkload(t *testing.T, wh *Warehouse, qs []WorkloadQuery) []string {
	t.Helper()
	out := make([]string, len(qs))
	for i, q := range qs {
		res, err := wh.Session().Query(q.SQL)
		if err != nil {
			t.Fatalf("query %d: %v\n%s", i, err, q.SQL)
		}
		out[i] = Fingerprint(res)
	}
	return out
}

// TestWorkloadRewriteByteIdentical is the rewrite-correctness contract:
// every generated workload query answers byte-identically with the
// aggregate rewrite off and on, the hook hits exactly the queries the
// generator marked rewritable, and this holds at parallel degrees 1
// and 2 (run under -race by make race).
func TestWorkloadRewriteByteIdentical(t *testing.T) {
	g := dbgen.New(0.002)
	dir := writeTblDir(t, g)
	qs := GenerateWorkload(DefaultWorkload(42, 30))
	var wantHits, wantMisses int64
	for _, q := range qs {
		if q.Rewritable {
			wantHits++
		} else {
			wantMisses++
		}
	}
	if wantHits == 0 || wantMisses == 0 {
		t.Fatalf("degenerate workload: %d rewritable, %d not", wantHits, wantMisses)
	}
	for _, deg := range []int{1, 2} {
		t.Run(fmt.Sprintf("degree%d", deg), func(t *testing.T) {
			wh := buildFromTbl(t, dir, deg)
			off := runWorkload(t, wh, qs)
			if h := wh.DB.Stats().RewriteHits; h != 0 {
				t.Fatalf("rewrite hook fired %d times while uninstalled", h)
			}
			wh.EnableRewrite(true)
			on := runWorkload(t, wh, qs)
			st := wh.DB.Stats()
			if st.RewriteHits != wantHits || st.RewriteMisses != wantMisses {
				t.Errorf("rewrite hits/misses = %d/%d, want %d/%d",
					st.RewriteHits, st.RewriteMisses, wantHits, wantMisses)
			}
			nonEmpty := 0
			for i := range qs {
				if off[i] != on[i] {
					t.Fatalf("query %d differs with rewrite on:\n%s\noff:\n%s\non:\n%s",
						i, qs[i].SQL, off[i], on[i])
				}
				if off[i] != "" {
					nonEmpty++
				}
			}
			// Some member combinations are legitimately empty (line
			// status correlates with ship date), but the bulk of the
			// workload must return data or the identity check is vacuous.
			if nonEmpty*2 < len(qs) {
				t.Fatalf("only %d of %d queries returned rows", nonEmpty, len(qs))
			}
		})
	}
}

// deltaFromOrders renders dbgen orders in the ExtractDelta stream
// format (the same payload bytes the .tbl writers emit).
func deltaFromOrders(t *testing.T, g *dbgen.Generator) (*bytes.Buffer, []int64) {
	t.Helper()
	var buf bytes.Buffer
	var keys []int64
	if err := g.UF1Orders(func(o *dbgen.Order) error {
		keys = append(keys, o.Key)
		fmt.Fprintf(&buf, "O|%d|%d|%s|%.2f|%s|%s|%s|%d|%s|\n",
			o.Key, o.CustKey, o.Status, o.TotalPrice, o.Date.AsStr(),
			o.Priority, o.Clerk, o.ShipPriority, o.Comment)
		for _, li := range o.Lines {
			fmt.Fprintf(&buf, "L|%d|%d|%d|%d|%d|%.2f|%.2f|%.2f|%s|%s|%s|%s|%s|%s|%s|%s|\n",
				li.OrderKey, li.PartKey, li.SuppKey, li.LineNumber, li.Quantity,
				li.ExtendedPrice, li.Discount, li.Tax, li.ReturnFlag, li.LineStatus,
				li.ShipDate.AsStr(), li.CommitDate.AsStr(), li.ReceiptDate.AsStr(),
				li.ShipInstruct, li.ShipMode, li.Comment)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return &buf, keys
}

// appendUF1 appends the UF1 orders to dir's orders.tbl/lineitem.tbl so
// a from-scratch build sees the post-batch population.
func appendUF1(t *testing.T, g *dbgen.Generator, dir string) {
	t.Helper()
	of, err := os.OpenFile(filepath.Join(dir, dbgen.OrdersTable.File), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer of.Close()
	lf, err := os.OpenFile(filepath.Join(dir, dbgen.LineitemTable.File), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	if err := g.UF1Orders(func(o *dbgen.Order) error {
		fmt.Fprintf(of, "%d|%d|%s|%.2f|%s|%s|%s|%d|%s|\n",
			o.Key, o.CustKey, o.Status, o.TotalPrice, o.Date.AsStr(),
			o.Priority, o.Clerk, o.ShipPriority, o.Comment)
		for _, li := range o.Lines {
			fmt.Fprintf(lf, "%d|%d|%d|%d|%d|%.2f|%.2f|%.2f|%s|%s|%s|%s|%s|%s|%s|%s|\n",
				li.OrderKey, li.PartKey, li.SuppKey, li.LineNumber, li.Quantity,
				li.ExtendedPrice, li.Discount, li.Tax, li.ReturnFlag, li.LineStatus,
				li.ShipDate.AsStr(), li.CommitDate.AsStr(), li.ReceiptDate.AsStr(),
				li.ShipInstruct, li.ShipMode, li.Comment)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRefreshMatchesRebuild checks the refresh algebra end to end:
// applying a UF1 delta incrementally answers every workload query
// byte-identically to rebuilding the warehouse from a re-extract, with
// rewrite off and on; and applying the matching tombstones restores the
// original answers, at parallel degrees 1 and 2.
func TestRefreshMatchesRebuild(t *testing.T) {
	g := dbgen.New(0.002)
	baseDir := writeTblDir(t, g)
	postDir := writeTblDir(t, g)
	appendUF1(t, g, postDir)
	delta, keys := deltaFromOrders(t, g)
	qs := GenerateWorkload(DefaultWorkload(7, 20))

	for _, deg := range []int{1, 2} {
		t.Run(fmt.Sprintf("degree%d", deg), func(t *testing.T) {
			refreshed := buildFromTbl(t, baseDir, deg)
			baseline := runWorkload(t, refreshed, qs)

			st, err := refreshed.ApplyDelta(bytes.NewReader(delta.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if st.RowsInserted == 0 || st.GroupsTouched == 0 || st.Orders != len(keys) {
				t.Fatalf("refresh did nothing: %+v", st)
			}
			if st.Elapsed <= 0 {
				t.Fatal("refresh charged no simulated time")
			}

			rebuilt := buildFromTbl(t, postDir, deg)
			refOff := runWorkload(t, refreshed, qs)
			rebOff := runWorkload(t, rebuilt, qs)
			refreshed.EnableRewrite(true)
			rebuilt.EnableRewrite(true)
			refOn := runWorkload(t, refreshed, qs)
			rebOn := runWorkload(t, rebuilt, qs)
			refreshed.EnableRewrite(false)
			for i := range qs {
				if refOff[i] != rebOff[i] || refOff[i] != refOn[i] || refOff[i] != rebOn[i] {
					t.Fatalf("refresh/rebuild mismatch at query %d:\n%s\nrefresh off:\n%s\nrebuild off:\n%s\nrefresh on:\n%s\nrebuild on:\n%s",
						i, qs[i].SQL, refOff[i], rebOff[i], refOn[i], rebOn[i])
				}
			}

			// Tombstoning the same orders must restore the base answers.
			var tombs bytes.Buffer
			for _, k := range keys {
				fmt.Fprintf(&tombs, "D|%d|\n", k)
			}
			st2, err := refreshed.ApplyDelta(&tombs)
			if err != nil {
				t.Fatal(err)
			}
			if st2.RowsDeleted != st.RowsInserted {
				t.Fatalf("tombstones removed %d rows, refresh inserted %d", st2.RowsDeleted, st.RowsInserted)
			}
			restored := runWorkload(t, refreshed, qs)
			for i := range qs {
				if restored[i] != baseline[i] {
					t.Fatalf("tombstone refresh did not restore query %d:\n%s", i, qs[i].SQL)
				}
			}
		})
	}
}

// TestWorkloadGeneratorDeterministic pins the generator contract: same
// spec, same SQL; different seeds, different mixes.
func TestWorkloadGeneratorDeterministic(t *testing.T) {
	a := GenerateWorkload(DefaultWorkload(3, 25))
	b := GenerateWorkload(DefaultWorkload(3, 25))
	if len(a) != 25 || len(b) != 25 {
		t.Fatalf("got %d/%d queries, want 25", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at query %d:\n%s\n%s", i, a[i].SQL, b[i].SQL)
		}
	}
	c := GenerateWorkload(DefaultWorkload(4, 25))
	same := 0
	for i := range c {
		if c[i].SQL == a[i].SQL {
			same++
		}
	}
	if same == len(c) {
		t.Fatal("different seeds produced identical workloads")
	}
}

// truncateLastLine cuts the file's last line after its second field.
func truncateLastLine(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	last := strings.SplitAfter(lines[len(lines)-1], "|")
	lines[len(lines)-1] = last[0] + last[1] + "\n"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestBuildRejectsShortLine: an extracted file is outside input; a line cut
// short in any of the seven files Build reads is an error naming the file,
// the line and the table, not an index-out-of-range panic.
func TestBuildRejectsShortLine(t *testing.T) {
	g := dbgen.New(0.001)
	for _, src := range []*dbgen.Table{dbgen.RegionTable, dbgen.NationTable, dbgen.CustomerTable,
		dbgen.SupplierTable, dbgen.PartTable, dbgen.OrdersTable, dbgen.LineitemTable} {
		dir := writeTblDir(t, g)
		truncateLastLine(t, filepath.Join(dir, src.File))
		wh, err := NewWarehouse(cost.Model{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, err = wh.Build(dir)
		if err == nil {
			t.Fatalf("%s: Build accepted a truncated line", src.File)
		}
		for _, want := range []string{src.File + ":", src.Name, "2 fields"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", src.File, err, want)
			}
		}
	}
}

// TestApplyDeltaRejectsShortLine is the same for a delta stream: a short
// header, payload or tombstone line is an error with its line number.
func TestApplyDeltaRejectsShortLine(t *testing.T) {
	g := dbgen.New(0.001)
	wh := buildFromTbl(t, writeTblDir(t, g), 1)
	delta, _ := deltaFromOrders(t, g)
	first, _, _ := strings.Cut(delta.String(), "\n") // an O| header
	for _, bad := range []string{
		strings.Join(strings.SplitAfter(first, "|")[:4], "") + "\n", // O|key|cust|status|
		"L|1|2|3|\n",
		"D|\n",
		"D\n",
	} {
		_, err := wh.ApplyDelta(strings.NewReader(first + "\n" + bad))
		if err == nil || !strings.Contains(err.Error(), "delta line 2") {
			t.Errorf("delta line %q: got error %v, want one naming line 2", bad, err)
		}
	}
}
