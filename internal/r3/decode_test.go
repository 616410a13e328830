package r3

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/engine"
	"r3bench/internal/race"
	"r3bench/internal/val"
)

// The pool and cluster decode as it was before it walked VARDATA in place —
// strings.Split twice, a skip set per scan, a key map per physical row —
// kept as the reference the in-place decode is held to.

func refSkipSet(t *LogicalTable) map[string]bool {
	skip := map[string]bool{"FILLER": true}
	keyCols := t.ClusterPrefix
	if t.Kind == Pooled {
		keyCols = t.KeyCols
	}
	for _, kc := range keyCols {
		skip[kc] = true
	}
	return skip
}

func refUnpackRow(t *LogicalTable, packed string, skip map[string]bool, keyVals map[string]val.Value) ([]val.Value, error) {
	parts := strings.Split(packed, fieldSep)
	out := make([]val.Value, len(t.Cols))
	j := 0
	for i, col := range t.Cols {
		if skip[col.Name] {
			out[i] = keyVals[col.Name]
			continue
		}
		if j >= len(parts) {
			return nil, fmt.Errorf("r3: short packed row for %s", t.Name)
		}
		out[i] = parseAs(parts[j], col.Type)
		j++
	}
	return out, nil
}

func refDecodeKeyString(t *LogicalTable, vk string) (map[string]val.Value, error) {
	out := make(map[string]val.Value, len(t.KeyCols))
	off := 0
	for _, kc := range t.KeyCols {
		ci := t.ColIndex(kc)
		w := t.Cols[ci].Type.Width
		if off+w > len(vk) {
			return nil, fmt.Errorf("r3: short VARKEY for %s", t.Name)
		}
		out[kc] = parseAs(strings.TrimRight(vk[off:off+w], " "), t.Cols[ci].Type)
		off += w
	}
	return out, nil
}

func refScanPool(sc *stmtCache, t *LogicalTable, keyPrefix []val.Value, fn func([]val.Value) error) error {
	prefix := t.keyPrefixString(keyPrefix)
	c, err := sc.get(fmt.Sprintf(
		`SELECT VARKEY, VARDATA FROM %s WHERE TABNAME = ? AND VARKEY >= ? AND VARKEY <= ?`,
		poolTableName))
	if err != nil {
		return err
	}
	res, err := c.Query(val.Str(t.Name), val.Str(prefix), val.Str(prefix+"ÿ"))
	if err != nil {
		return err
	}
	skip := refSkipSet(t)
	for _, phys := range res.Rows {
		sc.sess.Meter.Charge(cost.Decode, 1)
		keyVals, err := refDecodeKeyString(t, phys[0].AsStr())
		if err != nil {
			return err
		}
		row, err := refUnpackRow(t, phys[1].AsStr(), skip, keyVals)
		if err != nil {
			return err
		}
		if err := fn(row); err != nil {
			return err
		}
	}
	return nil
}

func refScanCluster(sc *stmtCache, t *LogicalTable, keyPrefix []val.Value, fn func([]val.Value) error) error {
	var where []string
	var params []val.Value
	for i := range keyPrefix {
		if i >= len(t.ClusterPrefix) {
			break
		}
		where = append(where, t.ClusterPrefix[i]+" = ?")
		params = append(params, keyPrefix[i])
	}
	sql := "SELECT * FROM " + t.Name + clusterSuffix
	if len(where) > 0 {
		sql += " WHERE " + strings.Join(where, " AND ")
	}
	c, err := sc.get(sql)
	if err != nil {
		return err
	}
	res, err := c.Query(params...)
	if err != nil {
		return err
	}
	skip := refSkipSet(t)
	nPrefix := len(t.ClusterPrefix)
	for _, prow := range res.Rows {
		keyVals := make(map[string]val.Value, nPrefix)
		for i, kc := range t.ClusterPrefix {
			keyVals[kc] = prow[i]
		}
		blob := prow[nPrefix+1].AsStr()
		if blob == "" {
			continue
		}
		for _, packed := range strings.Split(blob, rowSep) {
			sc.sess.Meter.Charge(cost.Decode, 1)
			row, err := refUnpackRow(t, packed, skip, keyVals)
			if err != nil {
				return err
			}
			match := true
			for i := nPrefix; i < len(keyPrefix); i++ {
				if val.Compare(row[t.ColIndex(t.KeyCols[i])], keyPrefix[i]) != 0 {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			if err := fn(row); err != nil {
				return err
			}
		}
	}
	return nil
}

// scanned is the outcome of one logical scan: the rows delivered, the error
// that ended it, and the decodes charged.
type scanned struct {
	rows    [][]val.Value
	err     string
	decodes int64
}

func runScan(sys *System, scan func(*stmtCache, func([]val.Value) error) error) scanned {
	m := cost.NewMeter(sys.DB.Model())
	sc := newStmtCache(sys, sys.DB.NewSessionWithMeter(m))
	var out scanned
	err := scan(sc, func(row []val.Value) error {
		out.rows = append(out.rows, slices.Clone(row))
		return nil
	})
	if err != nil {
		out.err = err.Error()
	}
	out.decodes = m.Count(cost.Decode)
	return out
}

// TestClusterDecodeMatchesReference: over every pool and cluster table of a
// loaded system the in-place decode delivers the rows of the reference, in
// its order, for the same Decode charges — whole-table scans, scans by the
// physical key and by a deeper key prefix — and over hand-made physical rows
// (empty VARDATA, empty, short and over-long packed rows, a dangling row
// separator, a short VARKEY) it delivers the same rows before the same error.
func TestClusterDecodeMatchesReference(t *testing.T) {
	sys, err := Install(Config{Release: Release22})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadDirect(dbgen.New(0.001)); err != nil {
		t.Fatal(err)
	}
	compare := func(t *testing.T, lt *LogicalTable, what string, keyPrefix []val.Value) scanned {
		t.Helper()
		ref := refScanCluster
		if lt.Kind == Pooled {
			ref = refScanPool
		}
		want := runScan(sys, func(sc *stmtCache, fn func([]val.Value) error) error { return ref(sc, lt, keyPrefix, fn) })
		got := runScan(sys, func(sc *stmtCache, fn func([]val.Value) error) error {
			return sys.scanLogical(sc, lt, keyPrefix, fn)
		})
		if got.err != want.err || got.decodes != want.decodes || len(got.rows) != len(want.rows) {
			t.Fatalf("%s %s: %d rows, %d decodes, error %q; reference %d rows, %d decodes, error %q",
				lt.Name, what, len(got.rows), got.decodes, got.err, len(want.rows), want.decodes, want.err)
		}
		for i := range want.rows {
			if !reflect.DeepEqual(got.rows[i], want.rows[i]) {
				t.Fatalf("%s %s: row %d is %v, reference %v", lt.Name, what, i, got.rows[i], want.rows[i])
			}
		}
		return got
	}
	s := sys.DB.NewSessionWithMeter(nil)
	insert := func(t *testing.T, table string, row ...val.Value) {
		t.Helper()
		if err := s.InsertRow(table, row); err != nil {
			t.Fatal(err)
		}
		s.Commit()
	}
	encapsulated := 0
	for _, lt := range sys.Tables() {
		if lt.Kind == Transparent {
			continue
		}
		encapsulated++
		t.Run(lt.Name, func(t *testing.T) {
			all := compare(t, lt, "whole table", nil)
			if len(all.rows) == 0 || all.err != "" {
				t.Fatalf("%s: %d rows, error %q from the loaded table", lt.Name, len(all.rows), all.err)
			}
			// By every length of key prefix, taken from a row in the middle.
			mid := all.rows[len(all.rows)/2]
			var key []val.Value
			for _, kc := range lt.KeyCols {
				key = append(key, mid[lt.ColIndex(kc)])
				if got := compare(t, lt, fmt.Sprintf("by %d key columns", len(key)), key); len(got.rows) == 0 {
					t.Fatalf("%s: no row under the key prefix %v of one of its rows", lt.Name, key)
				}
			}

			full := strings.Repeat("f"+fieldSep, len(lt.packed)-1) + "f"
			short := strings.Repeat("s"+fieldSep, max(len(lt.packed)-2, 0)) + "s"
			long := full + fieldSep + "extra" + fieldSep
			if lt.Kind == Pooled {
				odd := func(n int) string {
					row := append([]val.Value(nil), mid...)
					row[lt.ColIndex(lt.KeyCols[len(lt.KeyCols)-1])] = val.Str(fmt.Sprintf("odd%d", n))
					return lt.keyString(row)
				}
				for i, vardata := range []string{full, long, "", short} {
					insert(t, poolTableName, val.Str(lt.Name), val.Str(odd(i)), val.Str(vardata))
				}
				if got := compare(t, lt, "with odd rows", nil); got.err == "" && len(lt.packed) > 1 {
					t.Errorf("%s: a short packed row went through", lt.Name)
				}
				insert(t, poolTableName, val.Str(lt.Name), val.Str(odd(9)[:3]), val.Str(full))
				if got := compare(t, lt, "with a short VARKEY", key[:1]); !strings.Contains(got.err, "short VARKEY") {
					t.Errorf("%s: error %q for a short VARKEY", lt.Name, got.err)
				}
				return
			}
			// What a scan of each odd VARDATA delivers before it ends, when a
			// packed row has more than one field (an empty packed row is then
			// a short one).
			for i, c := range []struct {
				vardata string
				rows    int
				fails   bool
			}{
				{"", 0, false},                                   // holds no row
				{full + rowSep + long, 2, false},                 // more fields than columns
				{full + rowSep, 1, true},                         // dangling separator: an empty packed row
				{rowSep + full, 0, true},                         // the same at the front
				{full + rowSep + short + rowSep + full, 1, true}, // ends at the short row
				{full + rowSep + full + rowSep + full, 3, false}, // and a healthy one
			} {
				prefix := make([]val.Value, len(lt.ClusterPrefix))
				for j, kc := range lt.ClusterPrefix {
					prefix[j] = mid[lt.ColIndex(kc)]
				}
				prefix[len(prefix)-1] = val.Str(fmt.Sprintf("odd%d", i))
				phys := append(append([]val.Value(nil), prefix...), val.Int(0), val.Str(c.vardata))
				insert(t, lt.Name+clusterSuffix, phys...)
				got := compare(t, lt, fmt.Sprintf("odd VARDATA %d", i), prefix)
				if len(lt.packed) > 1 && (len(got.rows) != c.rows || strings.Contains(got.err, "short packed row") != c.fails) {
					t.Errorf("%s: odd VARDATA %d gave %d rows, error %q; want %d rows, short-row error %v",
						lt.Name, i, len(got.rows), got.err, c.rows, c.fails)
				}
			}
		})
	}
	if encapsulated < 2 {
		t.Fatalf("only %d pool and cluster tables in the dictionary", encapsulated)
	}
}

// TestClusterRowAllocationBudget: on top of the cursor's fetch of the
// physical tuples, the R/3 layer allocates nothing per logical row it decodes:
// the rows are decoded into the session's decode row of the scan's nesting
// depth, their fields cut out of VARDATA where they lie (one []val.Value per
// logical row before; 2.1 per cluster row and 4.0 per pool row while the
// decode split strings). Budget: 0.05.
func TestClusterRowAllocationBudget(t *testing.T) {
	sys, err := Install(Config{Release: Release22})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadDirect(dbgen.New(0.001)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"KONV", "A004"} {
		lt := sys.Table(name)
		sc := newStmtCache(sys, sys.DB.NewSessionWithMeter(nil))
		var rows int
		layer := testing.AllocsPerRun(5, func() {
			rows = 0
			if err := sys.scanLogical(sc, lt, nil, func([]val.Value) error { rows++; return nil }); err != nil {
				t.Fatal(err)
			}
		})
		// The fetch's share: the same cursor and parameters, the physical
		// rows handed to nobody.
		var st *engine.Stmt
		for _, st = range sc.stmts {
		}
		params := slices.Clone(sc.params)
		fetch := testing.AllocsPerRun(5, func() {
			if err := sc.each(nil, st, params, func([]val.Value) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
		if rows < 100 {
			t.Fatalf("%s: fixture has %d logical rows", name, rows)
		}
		if perRow := (layer - fetch) / float64(rows); !race.Enabled && perRow > 0.05 {
			t.Errorf("%s: the R/3 layer allocates %.3f times per logical row, budget 0.05", name, perRow)
		} else {
			t.Logf("%s: %.4f allocations per logical row (%d rows)", name, perRow, rows)
		}
	}
}
