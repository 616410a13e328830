package r3

import (
	"fmt"
	"reflect"
	stdruntime "runtime"
	"strings"
	"testing"
	"unsafe"

	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/race"
	"r3bench/internal/val"
)

// cursorSys is an installed 2.2G system at the scale r3_reports runs,
// optionally on a pool of the given bytes (0: the default).
func cursorSys(t *testing.T, poolBytes int) *System {
	t.Helper()
	sys, err := Install(Config{Release: Release22, BufferBytes: poolBytes})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadDirect(dbgen.New(0.001)); err != nil {
		t.Fatal(err)
	}
	return sys
}

// selectRows runs one Open SQL SELECT loop and returns copies of its rows.
func selectRows(t *testing.T, o *OpenSQL, table string, conds []Cond) [][]val.Value {
	t.Helper()
	var rows [][]val.Value
	if err := o.Select(table, conds, func(r Row) error {
		rows = append(rows, deepCopy(r.Vals()))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

// deepCopy copies a row and the bytes of its strings.
func deepCopy(row []val.Value) []val.Value {
	out := append([]val.Value(nil), row...)
	for i := range out {
		out[i].S = strings.Clone(out[i].S)
	}
	return out
}

// The statements the tests below run once per document: a transparent
// table's loop and a cluster probe, each keeping its condition shape — and so
// its cursor — from document to document.
var perDocument = []struct {
	table string
	conds func(doc int64) []Cond
}{
	{"VBAP", func(doc int64) []Cond { return []Cond{Eq("VBELN", val.Str(Key16(doc)))} }},
	{"KONV", func(doc int64) []Cond {
		return []Cond{Eq("KNUMV", val.Str(Key16(doc))), Eq("KSCHL", val.Str("DISC"))}
	}},
}

// TestCursorReentry: a cursor executed again from inside its own row
// callback — same table, same condition shape — delivers the same rows to
// both executions as two sequential calls do.
func TestCursorReentry(t *testing.T) {
	sys := cursorSys(t, 0)
	o := sys.OpenSQL(cost.NewMeter(sys.DB.Model()))
	for _, c := range perDocument {
		wantOuter, wantInner := selectRows(t, o, c.table, c.conds(1)), selectRows(t, o, c.table, c.conds(2))
		if len(wantOuter) < 2 || len(wantInner) == 0 {
			t.Fatalf("%s: fixture has %d and %d rows", c.table, len(wantOuter), len(wantInner))
		}
		var outer, inner [][]val.Value
		err := o.Select(c.table, c.conds(1), func(r Row) error {
			outer = append(outer, deepCopy(r.Vals()))
			if len(outer) == 1 {
				inner = selectRows(t, o, c.table, c.conds(2))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(outer, wantOuter) || !reflect.DeepEqual(inner, wantInner) {
			t.Errorf("%s: re-entered, the executions delivered %d and %d rows; sequentially %d and %d",
				c.table, len(outer), len(inner), len(wantOuter), len(wantInner))
		}
	}
}

// fullKey is the SELECT SINGLE condition list that pins row's primary key.
func fullKey(lt *LogicalTable, row []val.Value) []Cond {
	var key []Cond
	for _, kc := range lt.KeyCols[1:] {
		key = append(key, Eq(kc, row[lt.ColIndex(kc)]))
	}
	return key
}

// TestOpenSQLRowsOwnTheirBytes: a row an Open SQL SELECT hands out is valid
// until its callback returns — the session's fetch stack, or its decode row,
// is written again by the next execution — while what leaves a callback
// stays as it was: the row SELECT SINGLE returns, which the session copies,
// and strings cut from a SELECT's rows, which are views of immutable page
// images. Both read the same after 1 000 later executions, each with a SELECT
// SINGLE nested in it, on a 16-page pool, which evicts and re-reads every
// page image the first execution decoded from.
func TestOpenSQLRowsOwnTheirBytes(t *testing.T) {
	sys := cursorSys(t, 16*8192)
	o := sys.OpenSQL(cost.NewMeter(sys.DB.Model()))
	for _, c := range perDocument {
		lt := sys.Table(c.table)
		var handed, want, single, wantSingle [][]val.Value
		var trimmed, wantTrimmed []string
		err := o.Select(c.table, c.conds(1), func(r Row) error {
			handed = append(handed, r.Vals())
			want = append(want, deepCopy(r.Vals()))
			s := strings.TrimSpace(r.Get("VBELN").AsStr() + r.Get("KNUMV").AsStr())
			trimmed, wantTrimmed = append(trimmed, s), append(wantTrimmed, strings.Clone(s))
			return nil
		})
		if err != nil || len(want) == 0 {
			t.Fatalf("%s: %d rows, %v", c.table, len(want), err)
		}
		for i, row := range want {
			r, ok, err := o.SelectSingle(c.table, fullKey(lt, row))
			if err != nil || !ok || !reflect.DeepEqual(r.Vals(), row) {
				t.Fatalf("%s: SELECT SINGLE of row %d: %v, %v, %v", c.table, i, r.Vals(), ok, err)
			}
			single, wantSingle = append(single, r.Vals()), append(wantSingle, deepCopy(r.Vals()))
		}
		for i := 0; i < 1000; i++ {
			err := o.Select(c.table, c.conds(int64(2+i%500)), func(r Row) error {
				_, _, err := o.SelectSingle(c.table, fullKey(lt, r.Vals()))
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		reused := 0
		for i := range want {
			if !reflect.DeepEqual(single[i], wantSingle[i]) || trimmed[i] != wantTrimmed[i] {
				t.Fatalf("%s: SELECT SINGLE row %d reads %v (string %q), was %v (%q)",
					c.table, i, single[i], trimmed[i], wantSingle[i], wantTrimmed[i])
			}
			if !reflect.DeepEqual(handed[i], want[i]) {
				reused++
			}
		}
		if reused == 0 {
			t.Errorf("%s: no row the SELECT handed out was written again: its storage is not reused", c.table)
		}
	}
}

// TestOpenSQLCallAllocationBudget: a nested SELECT costs its rows, not its
// call. In the steady state — cursor cached, statement planned — a SELECT
// SINGLE on KNA1, a KONV probe (document, item and condition type: the
// discount lookup of the 2.2G reports) and a document's VBAP items allocate
// nothing per call: no SQL text, parameter list, condition list or result
// is built per call (17 and 14 allocations while they were), the index
// probe's B-tree iterator stays on the stack and the cluster rows are
// decoded into the session's decode row of their nesting depth (1 and 2
// while the iterator and a decode row per scan were heap-allocated). Budget:
// half an allocation, so that one per statement execution fails — a closure
// of the scan path escaping to the heap cost exactly that.
//
// In bytes, the rows go onto the session's fetch stack and come off it when
// the loop ends, so the KONV probe and the VBAP loop allocate 0 B per call
// (1 045 and 2 281 while every row, and its CHAR bytes, were copied into an
// append-only arena); SELECT SINGLE copies the one row it returns into the
// session and allocates about that row's values: 381 B for KNA1's nine,
// against a budget of 396 (479 B while its CHAR bytes were copied too).
func TestOpenSQLCallAllocationBudget(t *testing.T) {
	sys := cursorSys(t, 0)
	o := sys.OpenSQL(cost.NewMeter(sys.DB.Model()))
	// The keys are made beforehand: Key16 is a fmt.Sprintf.
	keys := make([]val.Value, 64)
	for i := range keys {
		keys[i] = val.Str(Key16(int64(1 + i)))
	}
	posnr := val.Str(Posnr(1))
	// A KNA1 row's values, and a tenth for the chunk tails rows do not fill.
	kna1Row := 1.1 * float64(len(sys.Table("KNA1").Cols)) * float64(unsafe.Sizeof(val.Value{}))
	var doc int
	for _, c := range []struct {
		what   string
		budget float64
		bytes  float64
		call   func() error
	}{
		{"SELECT SINGLE KNA1", 0.5, kna1Row, func() error {
			_, ok, err := o.SelectSingle("KNA1", []Cond{Eq("KUNNR", keys[doc%len(keys)])})
			if err == nil && !ok {
				err = fmt.Errorf("no customer %v", keys[doc%len(keys)])
			}
			return err
		}},
		{"KONV probe", 0.5, 0, func() error {
			found := false
			err := o.Select("KONV", []Cond{
				Eq("KNUMV", keys[doc%len(keys)]), Eq("KPOSN", posnr), Eq("KSCHL", val.Str("DISC")),
			}, func(Row) error {
				found = true
				return StopSelect
			})
			if err == StopSelect && found {
				err = nil
			} else if err == nil {
				err = fmt.Errorf("no discount for document %v", keys[doc%len(keys)])
			}
			return err
		}},
		{"VBAP per document", 0.5, 0, func() error {
			n := 0
			err := o.Select("VBAP", []Cond{Eq("VBELN", keys[doc%len(keys)])}, func(Row) error {
				n++
				return nil
			})
			if err == nil && n == 0 {
				err = fmt.Errorf("no items for document %v", keys[doc%len(keys)])
			}
			return err
		}},
	} {
		for doc = 0; doc < len(keys); doc++ { // warm: cursor cached, plan made, pages resident
			if err := c.call(); err != nil {
				t.Fatal(err)
			}
		}
		call := func() {
			doc++
			if err := c.call(); err != nil {
				t.Fatal(err)
			}
		}
		n := testing.AllocsPerRun(1000, call)
		var before, after stdruntime.MemStats
		stdruntime.ReadMemStats(&before)
		for i := 0; i < 1000; i++ {
			call()
		}
		stdruntime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / 1000
		if !race.Enabled && (n > c.budget || bytes > c.bytes) {
			t.Errorf("%s allocates %.2f times and %.0f B per call, budget %.1f and %.0f B", c.what, n, bytes, c.budget, c.bytes)
		} else {
			t.Logf("%s: %.2f allocations and %.0f B per call", c.what, n, bytes)
		}
	}
}

// TestNestedScanKeepsOuterRow: scanLogical decodes pool and cluster rows into
// a row each scan cuts from the fetch stack, so a pool scan run from a
// cluster scan's callback, run from a pool scan's callback, all on one
// session, leaves each outer row as it was — also when the innermost scan
// stops early — and pops every decode row.
func TestNestedScanKeepsOuterRow(t *testing.T) {
	sys := cursorSys(t, 0)
	sc := newStmtCache(sys, sys.DB.NewSessionWithMeter(nil))
	a004, konv := sys.Table("A004"), sys.Table("KONV")
	matnr := a004.ColIndex("MATNR")
	intact := func(what string, row []val.Value, inner func() error) error {
		snap := deepCopy(row)
		err := inner()
		if !reflect.DeepEqual(row, snap) {
			t.Errorf("%s row changed under its callback's inner scan:\n%v\nwas\n%v", what, row, snap)
		}
		return err
	}
	var outer, mid, innermost int
	err := sys.scanLogical(sc, a004, nil, func(row []val.Value) error {
		if outer++; outer > 20 {
			return nil
		}
		return intact("A004", row, func() error {
			prefix := []val.Value{val.Str(DefaultClient), val.Str(Key16(int64(outer)))}
			return sys.scanLogical(sc, konv, prefix, func(krow []val.Value) error {
				mid++
				return intact("KONV", krow, func() error {
					prefix := []val.Value{val.Str(DefaultClient), val.Str("V"), val.Str("PR00"), row[matnr]}
					err := sys.scanLogical(sc, a004, prefix, func([]val.Value) error {
						innermost++
						return StopSelect
					})
					if err == StopSelect {
						err = nil
					}
					return err
				})
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if mid < 20 || innermost != mid {
		t.Fatalf("fixture: %d outer rows, %d KONV rows, %d inner A004 rows", outer, mid, innermost)
	}
	if m := sc.mark(); m != (fetchMark{}) {
		t.Errorf("after the scans the fetch stack is at %+v, not empty", m)
	}
}
