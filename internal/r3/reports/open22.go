package reports

import (
	"sort"
	"strings"

	"r3bench/internal/r3"
	"r3bench/internal/val"
)

// Open SQL, Release 2.2G: no join syntax, no aggregation push-down. Joins
// reach the RDBMS only through join views over transparent tables along
// key relationships; everything else is nested SELECT ... ENDSELECT
// loops crossing the application-server/RDBMS interface per tuple, with
// grouping and aggregation in internal tables (paper Sections 2.3,
// 3.4.3). This is the strategy whose Q3/Q6/Q9/Q12 the paper singles out
// as "particularly poor".

// liView is the document-level join view the 2.2 reports lean on
// ("we made extensive use of this feature").
const liView = "ZV22LI"

// ensureLiView creates the shared join view on first use.
func (s *SAPImpl) ensureLiView() error {
	if s.sys.Table(liView) != nil {
		return nil
	}
	return s.sys.CreateJoinView(liView, r3.JoinQuery{
		Tables: []r3.JT{{Table: "VBAP", Alias: "P"}, {Table: "VBEP", Alias: "E"}, {Table: "VBAK", Alias: "K"}},
		On: []r3.On{{LA: "P", LC: "VBELN", RA: "E", RC: "VBELN"},
			{LA: "P", LC: "POSNR", RA: "E", RC: "POSNR"},
			{LA: "P", LC: "VBELN", RA: "K", RC: "VBELN"}},
		Select: []r3.ColRef{
			{Alias: "P", Col: "VBELN"}, {Alias: "P", Col: "POSNR"}, {Alias: "P", Col: "MATNR"},
			{Alias: "P", Col: "LIFNR"}, {Alias: "P", Col: "KWMENG"}, {Alias: "P", Col: "NETWR"},
			{Alias: "P", Col: "ABGRU"}, {Alias: "P", Col: "VSBED"},
			{Alias: "E", Col: "EDATU"}, {Alias: "E", Col: "WADAT"}, {Alias: "E", Col: "MBDAT"},
			{Alias: "E", Col: "LFSTA"},
			{Alias: "K", Col: "AUDAT"}, {Alias: "K", Col: "KUNNR"}, {Alias: "K", Col: "SUBMI"},
			{Alias: "K", Col: "LPRIO"},
		},
	})
}

// liSelect loops over the join view.
func (s *SAPImpl) liSelect(conds []r3.Cond, fn func(r3.Row) error) error {
	if err := s.ensureLiView(); err != nil {
		return err
	}
	return s.o.Select(liView, conds, fn)
}

// singles caches SELECT SINGLE lookups the way a 2.2 report would hold
// the last-read work area (not the table buffer — just the report's own
// variables).
func trim(v val.Value) string { return strings.TrimSpace(v.AsStr()) }

func (s *SAPImpl) open22Queries() map[int]func() ([][]val.Value, error) {
	q := map[int]func() ([][]val.Value, error){}

	// nationName resolves LAND1 -> T005T.LANDX with SELECT SINGLE.
	nationName := func(land1 val.Value) (string, error) {
		row, ok, err := s.o.SelectSingle("T005T", []r3.Cond{
			r3.Eq("SPRAS", val.Str("EN")), r3.Eq("LAND1", land1)})
		if err != nil || !ok {
			return "", err
		}
		return trim(row.Get("LANDX")), nil
	}
	// regionOf resolves LAND1 -> region name via T005 and T005U.
	regionOf := func(land1 val.Value) (string, error) {
		n, ok, err := s.o.SelectSingle("T005", []r3.Cond{r3.Eq("LAND1", land1)})
		if err != nil || !ok {
			return "", err
		}
		r, ok, err := s.o.SelectSingle("T005U", []r3.Cond{
			r3.Eq("SPRAS", val.Str("EN")), r3.Eq("BLAND", n.Get("LANDK"))})
		if err != nil || !ok {
			return "", err
		}
		return trim(r.Get("BEZEI")), nil
	}

	q[1] = func() ([][]val.Value, error) {
		work := s.sys.NewITab(s.m, "RF", "LS", "QTY", "BASE", "DISCP", "CHARGE", "DISC")
		err := s.liSelect([]r3.Cond{r3.Le("EDATU", val.DateFromYMD(1998, 9, 2))}, func(r r3.Row) error {
			vbeln, posnr := r.Get("VBELN").AsStr(), r.Get("POSNR").AsStr()
			d, err := s.discountRate(vbeln, posnr)
			if err != nil {
				return err
			}
			t, err := s.taxRate(vbeln, posnr)
			if err != nil {
				return err
			}
			base := r.Get("NETWR").AsFloat()
			work.Append(r.Get("ABGRU"), r.Get("LFSTA"), r.Get("KWMENG"), val.Float(base),
				val.Float(base*(1-d)), val.Float(base*(1-d)*(1+t)), val.Float(d))
			return nil
		})
		if err != nil {
			return nil, err
		}
		var out [][]val.Value
		err = work.GroupBy([]string{"RF", "LS"}, []r3.Agg{
			{Fn: "SUM", Of: func(r []val.Value) val.Value { return r[2] }},
			{Fn: "SUM", Of: func(r []val.Value) val.Value { return r[3] }},
			{Fn: "SUM", Of: func(r []val.Value) val.Value { return r[4] }},
			{Fn: "SUM", Of: func(r []val.Value) val.Value { return r[5] }},
			{Fn: "AVG", Of: func(r []val.Value) val.Value { return r[2] }},
			{Fn: "AVG", Of: func(r []val.Value) val.Value { return r[3] }},
			{Fn: "AVG", Of: func(r []val.Value) val.Value { return r[6] }},
			{Fn: "COUNT", Of: func(r []val.Value) val.Value { return r[0] }},
		}, func(kv, av []val.Value) error {
			out = append(out, append(append([]val.Value(nil), kv...), av...))
			return nil
		})
		return out, err
	}

	q[2] = func() ([][]val.Value, error) {
		var out [][]val.Value
		// Drive from the SIZE characteristic, nesting everything else.
		err := s.o.Select("AUSP", []r3.Cond{
			r3.Eq("ATINN", val.Str("SIZE")), r3.Eq("ATFLV", val.Float(15)),
		}, func(zr r3.Row) error {
			matnr := val.Str(trim(zr.Get("OBJEK")))
			mara, ok, err := s.o.SelectSingle("MARA", []r3.Cond{r3.Eq("MATNR", matnr)})
			if err != nil || !ok {
				return err
			}
			if !strings.HasSuffix(trim(mara.Get("MTART")), "BRASS") {
				return nil
			}
			// All European offers of this part, tracking the minimum.
			type offer struct {
				lifnr val.Value
				cost  float64
			}
			var offers []offer
			minCost := -1.0
			err = s.o.Select("EINA", []r3.Cond{r3.Eq("MATNR", matnr)}, func(ia r3.Row) error {
				ie, ok, err := s.o.SelectSingle("EINE", []r3.Cond{
					r3.Eq("INFNR", ia.Get("INFNR")), r3.Eq("EKORG", val.Str("0001"))})
				if err != nil || !ok {
					return err
				}
				sup, ok, err := s.o.SelectSingle("LFA1", []r3.Cond{r3.Eq("LIFNR", ia.Get("LIFNR"))})
				if err != nil || !ok {
					return err
				}
				region, err := regionOf(sup.Get("LAND1"))
				if err != nil {
					return err
				}
				if region != "EUROPE" {
					return nil
				}
				c := ie.Get("NETPR").AsFloat()
				offers = append(offers, offer{ia.Get("LIFNR"), c})
				if minCost < 0 || c < minCost {
					minCost = c
				}
				return nil
			})
			if err != nil {
				return err
			}
			for _, of := range offers {
				if of.cost != minCost {
					continue
				}
				sup, ok, err := s.o.SelectSingle("LFA1", []r3.Cond{r3.Eq("LIFNR", of.lifnr)})
				if err != nil || !ok {
					return err
				}
				landx, err := nationName(sup.Get("LAND1"))
				if err != nil {
					return err
				}
				cmt, _, err := s.o.SelectSingle("STXL", []r3.Cond{
					r3.Eq("TDOBJECT", val.Str("LFA1")), r3.Eq("TDNAME", of.lifnr),
					r3.Eq("TDID", val.Str("0001")), r3.Eq("TDSPRAS", val.Str("EN"))})
				if err != nil {
					return err
				}
				out = append(out, []val.Value{sup.Get("ACCBL"), sup.Get("NAME1"), val.Str(landx),
					matnr, mara.Get("MFRNR"), sup.Get("STRAS"), sup.Get("TELF1"), cmt.Get("CLUSTD")})
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		sortRows(out, []int{0, 2, 1, 3}, []bool{true, false, false, false})
		if len(out) > 100 {
			out = out[:100]
		}
		return out, nil
	}

	q[3] = func() ([][]val.Value, error) {
		work := s.sys.NewITab(s.m, "VBELN", "AUDAT", "LPRIO", "REV")
		err := s.liSelect([]r3.Cond{
			r3.Lt("AUDAT", val.DateFromYMD(1995, 3, 15)),
			r3.Gt("EDATU", val.DateFromYMD(1995, 3, 15)),
		}, func(r r3.Row) error {
			cust, ok, err := s.o.SelectSingle("KNA1", []r3.Cond{r3.Eq("KUNNR", r.Get("KUNNR"))})
			if err != nil || !ok {
				return err
			}
			if trim(cust.Get("BRSCH")) != "BUILDING" {
				return nil
			}
			d, err := s.discountRate(r.Get("VBELN").AsStr(), r.Get("POSNR").AsStr())
			if err != nil {
				return err
			}
			work.Append(r.Get("VBELN"), r.Get("AUDAT"), r.Get("LPRIO"),
				val.Float(r.Get("NETWR").AsFloat()*(1-d)))
			return nil
		})
		if err != nil {
			return nil, err
		}
		var out [][]val.Value
		err = work.GroupBy([]string{"VBELN", "AUDAT", "LPRIO"}, []r3.Agg{
			{Fn: "SUM", Of: func(r []val.Value) val.Value { return r[3] }},
		}, func(kv, av []val.Value) error {
			out = append(out, []val.Value{kv[0], av[0], kv[1], kv[2]})
			return nil
		})
		if err != nil {
			return nil, err
		}
		sortRows(out, []int{1, 2}, []bool{true, false})
		if len(out) > 10 {
			out = out[:10]
		}
		return out, nil
	}

	q[4] = func() ([][]val.Value, error) {
		counts := map[string]int64{}
		seen := map[string]bool{}
		err := s.liSelect([]r3.Cond{
			r3.Ge("AUDAT", val.DateFromYMD(1993, 7, 1)),
			r3.Lt("AUDAT", val.DateFromYMD(1993, 10, 1)),
		}, func(r r3.Row) error {
			if val.Compare(r.Get("WADAT"), r.Get("MBDAT")) >= 0 {
				return nil
			}
			k := r.Get("VBELN").AsStr()
			if seen[k] {
				return nil
			}
			seen[k] = true
			counts[trim(r.Get("SUBMI"))]++
			return nil
		})
		if err != nil {
			return nil, err
		}
		var keys []string
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var out [][]val.Value
		for _, k := range keys {
			out = append(out, []val.Value{val.Str(k), val.Int(counts[k])})
		}
		return out, nil
	}

	q[5] = func() ([][]val.Value, error) {
		work := s.sys.NewITab(s.m, "LANDX", "REV")
		err := s.liSelect([]r3.Cond{
			r3.Ge("AUDAT", val.DateFromYMD(1994, 1, 1)),
			r3.Lt("AUDAT", val.DateFromYMD(1995, 1, 1)),
		}, func(r r3.Row) error {
			sup, ok, err := s.o.SelectSingle("LFA1", []r3.Cond{r3.Eq("LIFNR", r.Get("LIFNR"))})
			if err != nil || !ok {
				return err
			}
			cust, ok, err := s.o.SelectSingle("KNA1", []r3.Cond{r3.Eq("KUNNR", r.Get("KUNNR"))})
			if err != nil || !ok {
				return err
			}
			if trim(sup.Get("LAND1")) != trim(cust.Get("LAND1")) {
				return nil
			}
			region, err := regionOf(sup.Get("LAND1"))
			if err != nil {
				return err
			}
			if region != "ASIA" {
				return nil
			}
			landx, err := nationName(sup.Get("LAND1"))
			if err != nil {
				return err
			}
			d, err := s.discountRate(r.Get("VBELN").AsStr(), r.Get("POSNR").AsStr())
			if err != nil {
				return err
			}
			work.Append(val.Str(landx), val.Float(r.Get("NETWR").AsFloat()*(1-d)))
			return nil
		})
		if err != nil {
			return nil, err
		}
		var out [][]val.Value
		err = work.GroupBy([]string{"LANDX"}, []r3.Agg{
			{Fn: "SUM", Of: func(r []val.Value) val.Value { return r[1] }},
		}, func(kv, av []val.Value) error {
			out = append(out, []val.Value{kv[0], av[0]})
			return nil
		})
		if err != nil {
			return nil, err
		}
		sortRows(out, []int{1}, []bool{true})
		return out, nil
	}

	q[6] = func() ([][]val.Value, error) {
		var sum float64
		err := s.liSelect([]r3.Cond{
			r3.Ge("EDATU", val.DateFromYMD(1994, 1, 1)),
			r3.Lt("EDATU", val.DateFromYMD(1995, 1, 1)),
			r3.Lt("KWMENG", val.Float(24)),
		}, func(r r3.Row) error {
			d, err := s.discountRate(r.Get("VBELN").AsStr(), r.Get("POSNR").AsStr())
			if err != nil {
				return err
			}
			if d >= 0.05 && d <= 0.07 {
				sum += r.Get("NETWR").AsFloat() * d
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return [][]val.Value{{val.Float(sum)}}, nil
	}

	q[7] = func() ([][]val.Value, error) {
		work := s.sys.NewITab(s.m, "SUPP", "CUST", "YR", "REV")
		err := s.liSelect([]r3.Cond{
			r3.Between("EDATU", val.DateFromYMD(1995, 1, 1), val.DateFromYMD(1996, 12, 31)),
		}, func(r r3.Row) error {
			sup, ok, err := s.o.SelectSingle("LFA1", []r3.Cond{r3.Eq("LIFNR", r.Get("LIFNR"))})
			if err != nil || !ok {
				return err
			}
			n1, err := nationName(sup.Get("LAND1"))
			if err != nil {
				return err
			}
			if n1 != "FRANCE" && n1 != "GERMANY" {
				return nil
			}
			cust, ok, err := s.o.SelectSingle("KNA1", []r3.Cond{r3.Eq("KUNNR", r.Get("KUNNR"))})
			if err != nil || !ok {
				return err
			}
			n2, err := nationName(cust.Get("LAND1"))
			if err != nil {
				return err
			}
			if n2 == n1 || (n2 != "FRANCE" && n2 != "GERMANY") {
				return nil
			}
			d, err := s.discountRate(r.Get("VBELN").AsStr(), r.Get("POSNR").AsStr())
			if err != nil {
				return err
			}
			work.Append(val.Str(n1), val.Str(n2), yearOf(r.Get("EDATU")),
				val.Float(r.Get("NETWR").AsFloat()*(1-d)))
			return nil
		})
		if err != nil {
			return nil, err
		}
		var out [][]val.Value
		err = work.GroupBy([]string{"SUPP", "CUST", "YR"}, []r3.Agg{
			{Fn: "SUM", Of: func(r []val.Value) val.Value { return r[3] }},
		}, func(kv, av []val.Value) error {
			out = append(out, []val.Value{kv[0], kv[1], kv[2], av[0]})
			return nil
		})
		return out, err
	}

	q[8] = func() ([][]val.Value, error) {
		type share struct{ num, den float64 }
		byYear := map[int64]*share{}
		err := s.liSelect([]r3.Cond{
			r3.Between("AUDAT", val.DateFromYMD(1995, 1, 1), val.DateFromYMD(1996, 12, 31)),
		}, func(r r3.Row) error {
			mara, ok, err := s.o.SelectSingle("MARA", []r3.Cond{r3.Eq("MATNR", r.Get("MATNR"))})
			if err != nil || !ok {
				return err
			}
			if trim(mara.Get("MTART")) != "ECONOMY ANODIZED STEEL" {
				return nil
			}
			cust, ok, err := s.o.SelectSingle("KNA1", []r3.Cond{r3.Eq("KUNNR", r.Get("KUNNR"))})
			if err != nil || !ok {
				return err
			}
			region, err := regionOf(cust.Get("LAND1"))
			if err != nil {
				return err
			}
			if region != "AMERICA" {
				return nil
			}
			sup, ok, err := s.o.SelectSingle("LFA1", []r3.Cond{r3.Eq("LIFNR", r.Get("LIFNR"))})
			if err != nil || !ok {
				return err
			}
			n2, err := nationName(sup.Get("LAND1"))
			if err != nil {
				return err
			}
			d, err := s.discountRate(r.Get("VBELN").AsStr(), r.Get("POSNR").AsStr())
			if err != nil {
				return err
			}
			y := yearOf(r.Get("AUDAT")).AsInt()
			sh := byYear[y]
			if sh == nil {
				sh = &share{}
				byYear[y] = sh
			}
			vol := r.Get("NETWR").AsFloat() * (1 - d)
			sh.den += vol
			if n2 == "BRAZIL" {
				sh.num += vol
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		var years []int64
		for y := range byYear {
			years = append(years, y)
		}
		sort.Slice(years, func(a, b int) bool { return years[a] < years[b] })
		var out [][]val.Value
		for _, y := range years {
			out = append(out, []val.Value{val.Int(y), val.Float(byYear[y].num / byYear[y].den)})
		}
		return out, nil
	}

	q[9] = func() ([][]val.Value, error) {
		work := s.sys.NewITab(s.m, "NATION", "YR", "PROFIT")
		err := s.liSelect(nil, func(r r3.Row) error {
			mk, ok, err := s.o.SelectSingle("MAKT", []r3.Cond{
				r3.Eq("MATNR", r.Get("MATNR")), r3.Eq("SPRAS", val.Str("EN"))})
			if err != nil || !ok {
				return err
			}
			if !strings.Contains(mk.Get("MAKTX").AsStr(), "green") {
				return nil
			}
			// Find this part/supplier's info record for the supply cost.
			var netpr float64
			found := false
			err = s.o.Select("EINA", []r3.Cond{r3.Eq("MATNR", r.Get("MATNR"))}, func(ia r3.Row) error {
				if trim(ia.Get("LIFNR")) != trim(r.Get("LIFNR")) {
					return nil
				}
				ie, ok, err := s.o.SelectSingle("EINE", []r3.Cond{
					r3.Eq("INFNR", ia.Get("INFNR")), r3.Eq("EKORG", val.Str("0001"))})
				if err != nil || !ok {
					return err
				}
				netpr = ie.Get("NETPR").AsFloat()
				found = true
				return r3.StopSelect
			})
			if err != nil && err != r3.StopSelect {
				return err
			}
			if !found {
				return nil
			}
			sup, ok, err := s.o.SelectSingle("LFA1", []r3.Cond{r3.Eq("LIFNR", r.Get("LIFNR"))})
			if err != nil || !ok {
				return err
			}
			landx, err := nationName(sup.Get("LAND1"))
			if err != nil {
				return err
			}
			d, err := s.discountRate(r.Get("VBELN").AsStr(), r.Get("POSNR").AsStr())
			if err != nil {
				return err
			}
			profit := r.Get("NETWR").AsFloat()*(1-d) - netpr*r.Get("KWMENG").AsFloat()
			work.Append(val.Str(landx), yearOf(r.Get("AUDAT")), val.Float(profit))
			return nil
		})
		if err != nil {
			return nil, err
		}
		var out [][]val.Value
		err = work.GroupBy([]string{"NATION", "YR"}, []r3.Agg{
			{Fn: "SUM", Of: func(r []val.Value) val.Value { return r[2] }},
		}, func(kv, av []val.Value) error {
			out = append(out, []val.Value{kv[0], kv[1], av[0]})
			return nil
		})
		if err != nil {
			return nil, err
		}
		sortRows(out, []int{0, 1}, []bool{false, true})
		return out, nil
	}

	q[10] = func() ([][]val.Value, error) {
		work := s.sys.NewITab(s.m, "KUNNR", "NAME1", "ACCBL", "TELF1", "LANDX", "STRAS", "CLUSTD", "REV")
		err := s.liSelect([]r3.Cond{
			r3.Ge("AUDAT", val.DateFromYMD(1993, 10, 1)),
			r3.Lt("AUDAT", val.DateFromYMD(1994, 1, 1)),
			r3.Eq("ABGRU", val.Str("R")),
		}, func(r r3.Row) error {
			cust, ok, err := s.o.SelectSingle("KNA1", []r3.Cond{r3.Eq("KUNNR", r.Get("KUNNR"))})
			if err != nil || !ok {
				return err
			}
			landx, err := nationName(cust.Get("LAND1"))
			if err != nil {
				return err
			}
			cmt, _, err := s.o.SelectSingle("STXL", []r3.Cond{
				r3.Eq("TDOBJECT", val.Str("KNA1")), r3.Eq("TDNAME", r.Get("KUNNR")),
				r3.Eq("TDID", val.Str("0001")), r3.Eq("TDSPRAS", val.Str("EN"))})
			if err != nil {
				return err
			}
			d, err := s.discountRate(r.Get("VBELN").AsStr(), r.Get("POSNR").AsStr())
			if err != nil {
				return err
			}
			work.Append(cust.Get("KUNNR"), cust.Get("NAME1"), cust.Get("ACCBL"), cust.Get("TELF1"),
				val.Str(landx), cust.Get("STRAS"), cmt.Get("CLUSTD"),
				val.Float(r.Get("NETWR").AsFloat()*(1-d)))
			return nil
		})
		if err != nil {
			return nil, err
		}
		var out [][]val.Value
		err = work.GroupBy([]string{"KUNNR", "NAME1", "ACCBL", "TELF1", "LANDX", "STRAS", "CLUSTD"},
			[]r3.Agg{{Fn: "SUM", Of: func(r []val.Value) val.Value { return r[7] }}},
			func(kv, av []val.Value) error {
				out = append(out, []val.Value{kv[0], kv[1], av[0], kv[2], kv[4], kv[5], kv[3], kv[6]})
				return nil
			})
		if err != nil {
			return nil, err
		}
		sortRows(out, []int{2}, []bool{true})
		if len(out) > 20 {
			out = out[:20]
		}
		return out, nil
	}

	q[11] = func() ([][]val.Value, error) {
		// German suppliers first, then their info records.
		var germanLands []val.Value
		err := s.o.Select("T005T", []r3.Cond{r3.Eq("LANDX", val.Str("GERMANY"))}, func(r r3.Row) error {
			germanLands = append(germanLands, r.Get("LAND1"))
			return nil
		})
		if err != nil {
			return nil, err
		}
		work := s.sys.NewITab(s.m, "MATNR", "VAL")
		var total float64
		for _, land := range germanLands {
			err = s.o.Select("LFA1", []r3.Cond{r3.Eq("LAND1", land)}, func(sup r3.Row) error {
				return s.o.Select("EINA", []r3.Cond{r3.Eq("LIFNR", sup.Get("LIFNR"))}, func(ia r3.Row) error {
					ie, ok, err := s.o.SelectSingle("EINE", []r3.Cond{
						r3.Eq("INFNR", ia.Get("INFNR")), r3.Eq("EKORG", val.Str("0001"))})
					if err != nil || !ok {
						return err
					}
					v := ie.Get("NETPR").AsFloat() * ie.Get("NORBM").AsFloat()
					total += v
					work.Append(ia.Get("MATNR"), val.Float(v))
					return nil
				})
			})
			if err != nil {
				return nil, err
			}
		}
		threshold := total * (0.0001 / s.sf())
		var out [][]val.Value
		err = work.GroupBy([]string{"MATNR"}, []r3.Agg{
			{Fn: "SUM", Of: func(r []val.Value) val.Value { return r[1] }},
		}, func(kv, av []val.Value) error {
			if av[0].AsFloat() > threshold {
				out = append(out, []val.Value{kv[0], av[0]})
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		sortRows(out, []int{1}, []bool{true})
		return out, nil
	}

	q[12] = func() ([][]val.Value, error) {
		type cnt struct{ high, low int64 }
		byMode := map[string]*cnt{}
		err := s.liSelect([]r3.Cond{
			r3.In("VSBED", val.Str("MAIL"), val.Str("SHIP")),
			r3.Ge("MBDAT", val.DateFromYMD(1994, 1, 1)),
			r3.Lt("MBDAT", val.DateFromYMD(1995, 1, 1)),
		}, func(r r3.Row) error {
			if val.Compare(r.Get("WADAT"), r.Get("MBDAT")) >= 0 ||
				val.Compare(r.Get("EDATU"), r.Get("WADAT")) >= 0 {
				return nil
			}
			c := byMode[trim(r.Get("VSBED"))]
			if c == nil {
				c = &cnt{}
				byMode[trim(r.Get("VSBED"))] = c
			}
			p := trim(r.Get("SUBMI"))
			if p == "1-URGENT" || p == "2-HIGH" {
				c.high++
			} else {
				c.low++
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		var modes []string
		for m := range byMode {
			modes = append(modes, m)
		}
		sort.Strings(modes)
		var out [][]val.Value
		for _, m := range modes {
			out = append(out, []val.Value{val.Str(m), val.Int(byMode[m].high), val.Int(byMode[m].low)})
		}
		return out, nil
	}

	q[13] = func() ([][]val.Value, error) {
		counts := map[string]int64{}
		err := s.o.Select("VBAK", []r3.Cond{r3.Ge("AUDAT", val.DateFromYMD(1998, 6, 1))}, func(r r3.Row) error {
			counts[trim(r.Get("SUBMI"))]++
			return nil
		})
		if err != nil {
			return nil, err
		}
		var keys []string
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var out [][]val.Value
		for _, k := range keys {
			out = append(out, []val.Value{val.Str(k), val.Int(counts[k])})
		}
		return out, nil
	}

	q[14] = func() ([][]val.Value, error) {
		var num, den float64
		err := s.liSelect([]r3.Cond{
			r3.Ge("EDATU", val.DateFromYMD(1995, 9, 1)),
			r3.Lt("EDATU", val.DateFromYMD(1995, 10, 1)),
		}, func(r r3.Row) error {
			mara, ok, err := s.o.SelectSingle("MARA", []r3.Cond{r3.Eq("MATNR", r.Get("MATNR"))})
			if err != nil || !ok {
				return err
			}
			d, err := s.discountRate(r.Get("VBELN").AsStr(), r.Get("POSNR").AsStr())
			if err != nil {
				return err
			}
			vol := r.Get("NETWR").AsFloat() * (1 - d)
			den += vol
			if strings.HasPrefix(trim(mara.Get("MTART")), "PROMO") {
				num += vol
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if den == 0 {
			return [][]val.Value{{val.Null}}, nil
		}
		return [][]val.Value{{val.Float(100 * num / den)}}, nil
	}

	q[15] = func() ([][]val.Value, error) {
		work := s.sys.NewITab(s.m, "LIFNR", "REV")
		err := s.liSelect([]r3.Cond{
			r3.Ge("EDATU", val.DateFromYMD(1996, 1, 1)),
			r3.Lt("EDATU", val.DateFromYMD(1996, 4, 1)),
		}, func(r r3.Row) error {
			d, err := s.discountRate(r.Get("VBELN").AsStr(), r.Get("POSNR").AsStr())
			if err != nil {
				return err
			}
			work.Append(r.Get("LIFNR"), val.Float(r.Get("NETWR").AsFloat()*(1-d)))
			return nil
		})
		if err != nil {
			return nil, err
		}
		type rev struct {
			lifnr string
			total float64
		}
		var tops []rev
		err = work.GroupBy([]string{"LIFNR"}, []r3.Agg{
			{Fn: "SUM", Of: func(r []val.Value) val.Value { return r[1] }},
		}, func(kv, av []val.Value) error {
			tops = append(tops, rev{kv[0].AsStr(), av[0].AsFloat()})
			return nil
		})
		if err != nil {
			return nil, err
		}
		best := -1.0
		for _, t := range tops {
			if t.total > best {
				best = t.total
			}
		}
		var out [][]val.Value
		for _, t := range tops {
			if t.total != best {
				continue
			}
			row, ok, err := s.o.SelectSingle("LFA1", []r3.Cond{r3.Eq("LIFNR", val.Str(t.lifnr))})
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			out = append(out, []val.Value{row.Get("LIFNR"), row.Get("NAME1"),
				row.Get("STRAS"), row.Get("TELF1"), val.Float(t.total)})
		}
		sortRows(out, []int{0}, []bool{false})
		return out, nil
	}

	q[16] = func() ([][]val.Value, error) {
		complaints := map[string]bool{}
		err := s.o.Select("STXL", []r3.Cond{
			r3.Eq("TDOBJECT", val.Str("LFA1")),
			r3.Like("CLUSTD", "%Customer%Complaints%"),
		}, func(r r3.Row) error {
			complaints[trim(r.Get("TDNAME"))] = true
			return nil
		})
		if err != nil {
			return nil, err
		}
		type groupKey struct {
			brand, ptype string
			size         int64
		}
		supp := map[groupKey]map[string]bool{}
		err = s.o.Select("AUSP", []r3.Cond{
			r3.Eq("ATINN", val.Str("SIZE")),
			r3.In("ATFLV", val.Float(49), val.Float(14), val.Float(23), val.Float(45),
				val.Float(19), val.Float(3), val.Float(36), val.Float(9)),
		}, func(zs r3.Row) error {
			matnr := val.Str(trim(zs.Get("OBJEK")))
			mara, ok, err := s.o.SelectSingle("MARA", []r3.Cond{r3.Eq("MATNR", matnr)})
			if err != nil || !ok {
				return err
			}
			ptype := trim(mara.Get("MTART"))
			if strings.HasPrefix(ptype, "MEDIUM POLISHED") {
				return nil
			}
			zb, ok, err := s.o.SelectSingle("AUSP", []r3.Cond{
				r3.Eq("OBJEK", matnr), r3.Eq("ATINN", val.Str("BRAND")), r3.Eq("KLART", val.Str("001"))})
			if err != nil || !ok {
				return err
			}
			brand := trim(zb.Get("ATWRT"))
			if brand == "Brand#45" {
				return nil
			}
			k := groupKey{brand, ptype, zs.Get("ATFLV").AsInt()}
			return s.o.Select("EINA", []r3.Cond{r3.Eq("MATNR", matnr)}, func(ia r3.Row) error {
				lifnr := trim(ia.Get("LIFNR"))
				if complaints[lifnr] {
					return nil
				}
				if supp[k] == nil {
					supp[k] = map[string]bool{}
				}
				supp[k][lifnr] = true
				return nil
			})
		})
		if err != nil {
			return nil, err
		}
		var out [][]val.Value
		for k, set := range supp {
			out = append(out, []val.Value{val.Str(k.brand), val.Str(k.ptype),
				val.Float(float64(k.size)), val.Int(int64(len(set)))})
		}
		sortRows(out, []int{3, 0, 1, 2}, []bool{true, false, false, false})
		return out, nil
	}

	q[17] = func() ([][]val.Value, error) {
		var total float64
		contributed := false
		err := s.o.Select("AUSP", []r3.Cond{
			r3.Eq("ATINN", val.Str("BRAND")), r3.Eq("ATWRT", val.Str("Brand#23")),
		}, func(zb r3.Row) error {
			matnr := val.Str(trim(zb.Get("OBJEK")))
			zc, ok, err := s.o.SelectSingle("AUSP", []r3.Cond{
				r3.Eq("OBJEK", matnr), r3.Eq("ATINN", val.Str("CONTAINER")), r3.Eq("KLART", val.Str("001"))})
			if err != nil || !ok {
				return err
			}
			if trim(zc.Get("ATWRT")) != "MED BOX" {
				return nil
			}
			lines := s.sys.NewITab(s.m, "KWMENG", "NETWR")
			err = s.o.Select("VBAP", []r3.Cond{r3.Eq("MATNR", matnr)}, func(r r3.Row) error {
				lines.Append(r.Get("KWMENG"), r.Get("NETWR"))
				return nil
			})
			if err != nil {
				return err
			}
			if lines.Len() == 0 {
				return nil
			}
			var qsum float64
			for i := range lines.Rows() {
				qsum += lines.Get(i, "KWMENG").AsFloat()
			}
			limit := 0.2 * qsum / float64(lines.Len())
			for i := range lines.Rows() {
				if lines.Get(i, "KWMENG").AsFloat() < limit {
					total += lines.Get(i, "NETWR").AsFloat()
					contributed = true
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if !contributed {
			// SUM over no rows is NULL, as in the SQL formulations.
			return [][]val.Value{{val.Null}}, nil
		}
		return [][]val.Value{{val.Float(total / 7.0)}}, nil
	}

	return q
}
