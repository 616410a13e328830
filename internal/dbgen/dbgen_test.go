package dbgen

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"r3bench/internal/val"
)

const testSF = 0.01

func TestCardinalities(t *testing.T) {
	g := New(testSF)
	if g.NumSuppliers() != 100 || g.NumParts() != 2000 ||
		g.NumCustomers() != 1500 || g.NumOrders() != 15000 {
		t.Fatalf("cardinalities: %d %d %d %d",
			g.NumSuppliers(), g.NumParts(), g.NumCustomers(), g.NumOrders())
	}
	if len(g.Regions()) != 5 || len(g.NationRows()) != 25 {
		t.Fatal("region/nation cardinalities wrong")
	}
}

func TestDeterminism(t *testing.T) {
	a, b := New(testSF), New(testSF)
	var rowsA, rowsB []Order
	a.Orders(func(o *Order) error {
		if len(rowsA) < 100 {
			rowsA = append(rowsA, *o)
		}
		return nil
	})
	b.Orders(func(o *Order) error {
		if len(rowsB) < 100 {
			rowsB = append(rowsB, *o)
		}
		return nil
	})
	for i := range rowsA {
		if rowsA[i].Key != rowsB[i].Key || rowsA[i].TotalPrice != rowsB[i].TotalPrice ||
			len(rowsA[i].Lines) != len(rowsB[i].Lines) {
			t.Fatalf("order %d differs between runs", i)
		}
	}
}

func TestNationRegionReferences(t *testing.T) {
	g := New(testSF)
	for _, n := range g.NationRows() {
		if n.RegionKey < 0 || n.RegionKey > 4 {
			t.Fatalf("nation %s has bad region %d", n.Name, n.RegionKey)
		}
	}
}

func TestForeignKeysAndDomains(t *testing.T) {
	g := New(testSF)
	nSupp, nParts, nCust := int64(g.NumSuppliers()), int64(g.NumParts()), int64(g.NumCustomers())
	err := g.Suppliers(func(s Supplier) error {
		if s.NationKey < 0 || s.NationKey >= 25 {
			t.Fatalf("supplier nation %d", s.NationKey)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seenPS := map[[2]int64]bool{}
	g.PartSupps(func(ps PartSupp) error {
		if ps.SuppKey < 1 || ps.SuppKey > nSupp || ps.PartKey < 1 || ps.PartKey > nParts {
			t.Fatalf("partsupp keys out of range: %+v", ps)
		}
		k := [2]int64{ps.PartKey, ps.SuppKey}
		if seenPS[k] {
			t.Fatalf("duplicate partsupp %v", k)
		}
		seenPS[k] = true
		return nil
	})
	if len(seenPS) != int(nParts)*4 {
		t.Fatalf("partsupp count = %d, want %d", len(seenPS), nParts*4)
	}

	var nLines, nOrders int
	cd := currentDate
	g.Orders(func(o *Order) error {
		nOrders++
		if o.CustKey < 1 || o.CustKey > nCust {
			t.Fatalf("order custkey %d", o.CustKey)
		}
		if len(o.Lines) < 1 || len(o.Lines) > 7 {
			t.Fatalf("order has %d lines", len(o.Lines))
		}
		for _, li := range o.Lines {
			nLines++
			if li.PartKey < 1 || li.PartKey > nParts || li.SuppKey < 1 || li.SuppKey > nSupp {
				t.Fatalf("lineitem keys: %+v", li)
			}
			if li.Quantity < 1 || li.Quantity > 50 {
				t.Fatalf("quantity %d", li.Quantity)
			}
			if li.Discount < 0 || li.Discount > 0.10 || li.Tax < 0 || li.Tax > 0.08 {
				t.Fatalf("discount/tax: %+v", li)
			}
			if val.Compare(li.ShipDate, o.Date) <= 0 {
				t.Fatal("shipdate must follow orderdate")
			}
			if val.Compare(li.ReceiptDate, li.ShipDate) <= 0 {
				t.Fatal("receiptdate must follow shipdate")
			}
			// Return flag rule.
			if li.ReceiptDate.I <= cd.I && li.ReturnFlag == "N" {
				t.Fatal("received lineitems must be R or A")
			}
			if li.ReceiptDate.I > cd.I && li.ReturnFlag != "N" {
				t.Fatal("future receipts must be N")
			}
			if (li.ShipDate.I > cd.I) != (li.LineStatus == "O") {
				t.Fatal("linestatus rule violated")
			}
		}
		// Order status consistency.
		allF, allO := true, true
		for _, li := range o.Lines {
			if li.LineStatus != "F" {
				allF = false
			}
			if li.LineStatus != "O" {
				allO = false
			}
		}
		want := "P"
		if allF {
			want = "F"
		} else if allO {
			want = "O"
		}
		if o.Status != want {
			t.Fatalf("order status %s, want %s", o.Status, want)
		}
		return nil
	})
	if nOrders != g.NumOrders() {
		t.Fatalf("orders = %d", nOrders)
	}
	// Average ~4 lines per order.
	avg := float64(nLines) / float64(nOrders)
	if avg < 3.5 || avg > 4.5 {
		t.Fatalf("avg lines per order = %f", avg)
	}
}

func TestPartDomains(t *testing.T) {
	g := New(testSF)
	sawBrass, sawGreen := false, false
	g.Parts(func(p Part) error {
		if p.Size < 1 || p.Size > 50 {
			t.Fatalf("part size %d", p.Size)
		}
		if !strings.HasPrefix(p.Brand, "Brand#") {
			t.Fatalf("brand %q", p.Brand)
		}
		if strings.HasSuffix(p.Type, "BRASS") {
			sawBrass = true
		}
		if strings.Contains(p.Name, "green") {
			sawGreen = true
		}
		if p.RetailPrice != RetailPrice(p.Key) {
			t.Fatal("retail price formula mismatch")
		}
		return nil
	})
	if !sawBrass {
		t.Error("no BRASS parts (Q2 filter would be empty)")
	}
	if !sawGreen {
		t.Error("no green parts (Q9 filter would be empty)")
	}
}

func TestSupplierComplaints(t *testing.T) {
	g := New(0.1)
	n := 0
	g.Suppliers(func(s Supplier) error {
		if strings.Contains(s.Comment, "Customer") && strings.Contains(s.Comment, "Complaints") {
			n++
		}
		return nil
	})
	if n == 0 {
		t.Fatal("no complaint suppliers (Q16 filter would be trivial)")
	}
}

func TestUpdateFunctionSets(t *testing.T) {
	g := New(testSF)
	var uf1 []int64
	g.UF1Orders(func(o *Order) error {
		uf1 = append(uf1, o.Key)
		return nil
	})
	if len(uf1) != 15 {
		t.Fatalf("UF1 count = %d", len(uf1))
	}
	for _, k := range uf1 {
		if k <= int64(g.NumOrders()) {
			t.Fatalf("UF1 key %d collides with base population", k)
		}
	}
	uf2 := g.UF2OrderKeys()
	if len(uf2) != 15 {
		t.Fatalf("UF2 count = %d", len(uf2))
	}
	// UF2 deletes exactly the UF1 segment, keeping the database state
	// invariant across power-test pairs.
	uf1Set := map[int64]bool{}
	for _, k := range uf1 {
		uf1Set[k] = true
	}
	for _, k := range uf2 {
		if !uf1Set[k] {
			t.Fatalf("UF2 key %d is not in the UF1 insert segment", k)
		}
	}
}

func TestWriteTbl(t *testing.T) {
	g := New(0.001)
	dir := t.TempDir()
	total, err := g.WriteTbl(dir)
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Fatal("no bytes written")
	}
	for _, f := range []string{"region.tbl", "nation.tbl", "supplier.tbl",
		"part.tbl", "partsupp.tbl", "customer.tbl", "orders.tbl", "lineitem.tbl"} {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Fatalf("%s is empty", f)
		}
		line := strings.SplitN(string(data), "\n", 2)[0]
		if !strings.HasSuffix(line, "|") {
			t.Fatalf("%s not pipe-terminated: %q", f, line)
		}
	}
}
