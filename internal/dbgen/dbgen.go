// Package dbgen generates TPC-D benchmark populations — the stand-in for
// the TPC-supplied DBGEN tool. It produces the eight benchmark tables at
// any scale factor with the specification's cardinalities, value domains
// and distributions (simplified text grammar), deterministically for a
// fixed seed: two generators at the same scale factor produce identical
// databases, so the isolated-RDBMS and SAP-shaped loads are exactly
// comparable.
//
// Cardinalities at scale factor SF:
//
//	REGION    5            NATION    25
//	SUPPLIER  SF × 10,000  PART      SF × 200,000
//	PARTSUPP  4 per part   CUSTOMER  SF × 150,000
//	ORDER     SF × 150,000 per 0.1   LINEITEM  1–7 per order (≈4 avg)
//
// The paper runs SF = 0.2: 300,000 orders, ~1.2 million lineitems.
package dbgen

import (
	"fmt"
	"math/rand"

	"r3bench/internal/val"
)

// Generator produces one deterministic TPC-D population.
type Generator struct {
	SF   float64
	seed int64
}

// New returns a generator for the given scale factor.
func New(sf float64) *Generator {
	return &Generator{SF: sf, seed: 19970504} // SIGMOD'97 week
}

// Cardinalities.

// NumSuppliers returns the SUPPLIER cardinality.
func (g *Generator) NumSuppliers() int { return scaled(g.SF, 10000) }

// NumParts returns the PART cardinality.
func (g *Generator) NumParts() int { return scaled(g.SF, 200000) }

// NumCustomers returns the CUSTOMER cardinality.
func (g *Generator) NumCustomers() int { return scaled(g.SF, 150000) }

// NumOrders returns the ORDER cardinality.
func (g *Generator) NumOrders() int { return scaled(g.SF, 1500000) }

func scaled(sf float64, base int) int {
	n := int(sf * float64(base))
	if n < 1 {
		n = 1
	}
	return n
}

// Value domains (abridged from the specification).

// RegionNames are the five TPC-D regions.
var RegionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

// Nations pairs each TPC-D nation with its region key.
var Nations = []struct {
	Name   string
	Region int
}{
	{"ALGERIA", 0}, {"ARGENTINA", 1}, {"BRAZIL", 1}, {"CANADA", 1},
	{"EGYPT", 4}, {"ETHIOPIA", 0}, {"FRANCE", 3}, {"GERMANY", 3},
	{"INDIA", 2}, {"INDONESIA", 2}, {"IRAN", 4}, {"IRAQ", 4},
	{"JAPAN", 2}, {"JORDAN", 4}, {"KENYA", 0}, {"MOROCCO", 0},
	{"MOZAMBIQUE", 0}, {"PERU", 1}, {"CHINA", 2}, {"ROMANIA", 3},
	{"SAUDI ARABIA", 4}, {"VIETNAM", 2}, {"RUSSIA", 3},
	{"UNITED KINGDOM", 3}, {"UNITED STATES", 1},
}

var (
	partColors = []string{"almond", "antique", "aquamarine", "azure", "beige",
		"bisque", "black", "blanched", "blue", "blush", "brown", "burlywood",
		"burnished", "chartreuse", "chiffon", "chocolate", "coral", "cornflower",
		"cornsilk", "cream", "cyan", "dark", "deep", "dim", "dodger", "drab",
		"firebrick", "floral", "forest", "frosted", "gainsboro", "ghost",
		"goldenrod", "green", "grey", "honeydew", "hot", "hotpink", "indian",
		"ivory", "khaki", "lace", "lavender", "lawn", "lemon", "light", "lime",
		"linen", "magenta", "maroon", "medium", "metallic", "midnight", "mint",
		"misty", "moccasin", "navajo", "navy", "olive", "orange", "orchid",
		"pale", "papaya", "peach", "peru", "pink", "plum", "powder", "puff",
		"purple", "red", "rose", "rosy", "royal", "saddle", "salmon", "sandy",
		"seashell", "sienna", "sky", "slate", "smoke", "snow", "spring",
		"steel", "tan", "thistle", "tomato", "turquoise", "violet", "wheat",
		"white", "yellow"}
	typeSyllable1 = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	typeSyllable2 = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	typeSyllable3 = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	containers1   = []string{"SM", "LG", "MED", "JUMBO", "WRAP"}
	containers2   = []string{"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"}
	segments      = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities    = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipInstructs = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	shipModes     = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	commentWords  = []string{"furiously", "quickly", "carefully", "blithely", "slyly",
		"ironic", "final", "bold", "regular", "express", "special", "pending",
		"requests", "deposits", "packages", "accounts", "instructions", "theodolites",
		"platelets", "foxes", "ideas", "dependencies", "excuses", "pinto", "beans",
		"sleep", "wake", "nag", "haggle", "cajole", "integrate", "detect", "engage"}
)

// Key dates of the specification.
var (
	startDate   = val.DateFromYMD(1992, 1, 1)
	endDate     = val.DateFromYMD(1998, 12, 1)
	currentDate = val.DateFromYMD(1995, 6, 17)
)

func words(r *rand.Rand, n int) string {
	s := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			s += " "
		}
		s += commentWords[r.Intn(len(commentWords))]
	}
	return s
}

func phone(r *rand.Rand, nationKey int64) string {
	return fmt.Sprintf("%02d-%03d-%03d-%04d", 10+nationKey, 100+r.Intn(900), 100+r.Intn(900), 1000+r.Intn(9000))
}

// money returns a value with two decimals in [lo, hi).
func money(r *rand.Rand, lo, hi float64) float64 {
	cents := int64(lo*100) + r.Int63n(int64((hi-lo)*100))
	return float64(cents) / 100
}

// Region is one REGION row.
type Region struct {
	Key     int64
	Name    string
	Comment string
}

// Regions returns all five regions.
func (g *Generator) Regions() []Region {
	r := rand.New(rand.NewSource(g.seed + 1))
	out := make([]Region, len(RegionNames))
	for i, n := range RegionNames {
		out[i] = Region{Key: int64(i), Name: n, Comment: words(r, 5)}
	}
	return out
}

// Nation is one NATION row.
type Nation struct {
	Key       int64
	Name      string
	RegionKey int64
	Comment   string
}

// NationRows returns all 25 nations.
func (g *Generator) NationRows() []Nation {
	r := rand.New(rand.NewSource(g.seed + 2))
	out := make([]Nation, len(Nations))
	for i, n := range Nations {
		out[i] = Nation{Key: int64(i), Name: n.Name, RegionKey: int64(n.Region), Comment: words(r, 6)}
	}
	return out
}

// Supplier is one SUPPLIER row.
type Supplier struct {
	Key       int64
	Name      string
	Address   string
	NationKey int64
	Phone     string
	AcctBal   float64
	Comment   string
}

// Suppliers streams every supplier.
func (g *Generator) Suppliers(fn func(Supplier) error) error {
	r := rand.New(rand.NewSource(g.seed + 3))
	n := g.NumSuppliers()
	for i := 1; i <= n; i++ {
		s := Supplier{
			Key:       int64(i),
			Name:      fmt.Sprintf("Supplier#%09d", i),
			Address:   words(r, 3),
			NationKey: int64(r.Intn(len(Nations))),
			AcctBal:   money(r, -999.99, 9999.99),
			Comment:   words(r, 8),
		}
		s.Phone = phone(r, s.NationKey)
		// The spec plants "Customer ... Complaints" in ~1/2000 supplier
		// comments (Q16 filters on it) and "Customer ... Recommends" in
		// another fraction.
		switch {
		case i%1000 == 7:
			s.Comment = "take Customer heed Complaints " + words(r, 4)
		case i%1000 == 13:
			s.Comment = "about Customer warm Recommends " + words(r, 4)
		}
		if err := fn(s); err != nil {
			return err
		}
	}
	return nil
}

// Part is one PART row.
type Part struct {
	Key         int64
	Name        string
	Mfgr        string
	Brand       string
	Type        string
	Size        int64
	Container   string
	RetailPrice float64
	Comment     string
}

// RetailPrice is the specification's deterministic price formula; the SAP
// pricing-condition tables (A004/KONP) reuse it so both databases price
// identically.
func RetailPrice(partKey int64) float64 {
	return float64(90000+((partKey/10)%20001)+100*(partKey%1000)) / 100
}

// Parts streams every part.
func (g *Generator) Parts(fn func(Part) error) error {
	r := rand.New(rand.NewSource(g.seed + 4))
	n := g.NumParts()
	for i := 1; i <= n; i++ {
		m := 1 + r.Intn(5)
		p := Part{
			Key:  int64(i),
			Mfgr: fmt.Sprintf("Manufacturer#%d", m),
			Name: partColors[r.Intn(len(partColors))] + " " + partColors[r.Intn(len(partColors))] + " " +
				partColors[r.Intn(len(partColors))] + " " + partColors[r.Intn(len(partColors))] + " " +
				partColors[r.Intn(len(partColors))],
			Brand: fmt.Sprintf("Brand#%d%d", m, 1+r.Intn(5)),
			Type: typeSyllable1[r.Intn(len(typeSyllable1))] + " " +
				typeSyllable2[r.Intn(len(typeSyllable2))] + " " +
				typeSyllable3[r.Intn(len(typeSyllable3))],
			Size:        int64(1 + r.Intn(50)),
			Container:   containers1[r.Intn(len(containers1))] + " " + containers2[r.Intn(len(containers2))],
			RetailPrice: RetailPrice(int64(i)),
			Comment:     words(r, 3),
		}
		if err := fn(p); err != nil {
			return err
		}
	}
	return nil
}

// PartSupp is one PARTSUPP row.
type PartSupp struct {
	PartKey    int64
	SuppKey    int64
	AvailQty   int64
	SupplyCost float64
	Comment    string
}

// SuppKeyFor returns the j-th (0–3) supplier of a part, spreading
// suppliers over parts like the specification's formula but degenerating
// safely at tiny scale factors: the four values are distinct whenever at
// least four suppliers exist.
func SuppKeyFor(partKey int64, j, nSupp int) int64 {
	step := nSupp / 4
	if step < 1 {
		step = 1
	}
	return (partKey+(partKey-1)/int64(nSupp)+int64(j*step))%int64(nSupp) + 1
}

// PartSupps streams the four suppliers of every part.
func (g *Generator) PartSupps(fn func(PartSupp) error) error {
	r := rand.New(rand.NewSource(g.seed + 5))
	nParts, nSupp := g.NumParts(), g.NumSuppliers()
	for i := 1; i <= nParts; i++ {
		for j := 0; j < 4; j++ {
			ps := PartSupp{
				PartKey:    int64(i),
				SuppKey:    SuppKeyFor(int64(i), j, nSupp),
				AvailQty:   int64(1 + r.Intn(9999)),
				SupplyCost: money(r, 1.00, 1000.00),
				Comment:    words(r, 6),
			}
			if err := fn(ps); err != nil {
				return err
			}
		}
	}
	return nil
}

// Customer is one CUSTOMER row.
type Customer struct {
	Key        int64
	Name       string
	Address    string
	NationKey  int64
	Phone      string
	AcctBal    float64
	MktSegment string
	Comment    string
}

// Customers streams every customer.
func (g *Generator) Customers(fn func(Customer) error) error {
	r := rand.New(rand.NewSource(g.seed + 6))
	n := g.NumCustomers()
	for i := 1; i <= n; i++ {
		c := Customer{
			Key:        int64(i),
			Name:       fmt.Sprintf("Customer#%09d", i),
			Address:    words(r, 3),
			NationKey:  int64(r.Intn(len(Nations))),
			AcctBal:    money(r, -999.99, 9999.99),
			MktSegment: segments[r.Intn(len(segments))],
			Comment:    words(r, 9),
		}
		c.Phone = phone(r, c.NationKey)
		if err := fn(c); err != nil {
			return err
		}
	}
	return nil
}

// Lineitem is one LINEITEM row, generated jointly with its order.
type Lineitem struct {
	OrderKey      int64
	PartKey       int64
	SuppKey       int64
	LineNumber    int64
	Quantity      int64
	ExtendedPrice float64
	Discount      float64
	Tax           float64
	ReturnFlag    string
	LineStatus    string
	ShipDate      val.Value
	CommitDate    val.Value
	ReceiptDate   val.Value
	ShipInstruct  string
	ShipMode      string
	Comment       string
}

// Order is one ORDER row with its lineitems.
type Order struct {
	Key          int64
	CustKey      int64
	Status       string
	TotalPrice   float64
	Date         val.Value
	Priority     string
	Clerk        string
	ShipPriority int64
	Comment      string
	Lines        []Lineitem
}

// Orders streams every order together with its lineitems (the way SAP's
// batch input must load them: "ORDERs and their LINEITEMs can only be
// loaded jointly").
func (g *Generator) Orders(fn func(*Order) error) error {
	return g.ordersFrom(g.seed+7, 1, g.NumOrders(), fn)
}

// ordersFrom generates orders keyed firstKey..firstKey+n-1.
func (g *Generator) ordersFrom(seed int64, firstKey, n int, fn func(*Order) error) error {
	r := rand.New(rand.NewSource(seed))
	nCust, nParts, nSupp := g.NumCustomers(), g.NumParts(), g.NumSuppliers()
	span := endDate.I - startDate.I - 151
	for i := 0; i < n; i++ {
		o := &Order{
			Key:          int64(firstKey + i),
			CustKey:      int64(1 + r.Intn(nCust)),
			Date:         val.Date(startDate.I + r.Int63n(span)),
			Priority:     priorities[r.Intn(len(priorities))],
			Clerk:        fmt.Sprintf("Clerk#%09d", 1+r.Intn(1000)),
			ShipPriority: 0,
			Comment:      words(r, 6),
		}
		nLines := 1 + r.Intn(7)
		allF, allO := true, true
		var total float64
		for ln := 1; ln <= nLines; ln++ {
			partKey := int64(1 + r.Intn(nParts))
			li := Lineitem{
				OrderKey: o.Key,
				PartKey:  partKey,
				// One of the part's four PARTSUPP suppliers, so the
				// (l_partkey, l_suppkey) → PARTSUPP join never dangles.
				SuppKey:      SuppKeyFor(partKey, (ln-1)%4, nSupp),
				LineNumber:   int64(ln),
				Quantity:     int64(1 + r.Intn(50)),
				Discount:     float64(r.Intn(11)) / 100,
				Tax:          float64(r.Intn(9)) / 100,
				ShipInstruct: shipInstructs[r.Intn(len(shipInstructs))],
				ShipMode:     shipModes[r.Intn(len(shipModes))],
				Comment:      words(r, 4),
			}
			li.ExtendedPrice = float64(li.Quantity) * RetailPrice(partKey)
			li.ShipDate = val.Date(o.Date.I + 1 + r.Int63n(121))
			li.CommitDate = val.Date(o.Date.I + 30 + r.Int63n(61))
			li.ReceiptDate = val.Date(li.ShipDate.I + 1 + r.Int63n(30))
			if li.ReceiptDate.I <= currentDate.I {
				if r.Intn(2) == 0 {
					li.ReturnFlag = "R"
				} else {
					li.ReturnFlag = "A"
				}
			} else {
				li.ReturnFlag = "N"
			}
			if li.ShipDate.I > currentDate.I {
				li.LineStatus = "O"
				allF = false
			} else {
				li.LineStatus = "F"
				allO = false
			}
			total += li.ExtendedPrice * (1 + li.Tax) * (1 - li.Discount)
			o.Lines = append(o.Lines, li)
		}
		switch {
		case allF:
			o.Status = "F"
		case allO:
			o.Status = "O"
		default:
			o.Status = "P"
		}
		o.TotalPrice = float64(int64(total*100)) / 100
		if err := fn(o); err != nil {
			return err
		}
	}
	return nil
}

// UF1Orders streams the update-function-1 insert set: SF×1500 brand-new
// orders keyed above the base population.
func (g *Generator) UF1Orders(fn func(*Order) error) error {
	n := scaled(g.SF, 1500)
	return g.ordersFrom(g.seed+8, g.NumOrders()+1, n, fn)
}

// UF2OrderKeys returns the update-function-2 delete set: SF×1500 order
// keys. We delete the segment UF1 inserted, so a UF1+UF2 pair leaves the
// database in its initial state — the specification keeps the database
// size constant across pairs, and the paper's methodology (running the
// power test once per implementation strategy against one loaded
// database) requires exactly re-runnable state.
func (g *Generator) UF2OrderKeys() []int64 {
	n := scaled(g.SF, 1500)
	keys := make([]int64, 0, n)
	for i := 1; i <= n; i++ {
		keys = append(keys, int64(g.NumOrders()+i))
	}
	return keys
}
