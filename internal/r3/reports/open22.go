package reports

import (
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

// liViewDef joins each document item to its schedule line and header.
var liViewDef = r3.JoinQuery{
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
}

// liSelect loops over the join view, creating it on first use.
func (s *SAPImpl) liSelect(conds []r3.Cond, fn func(r3.Row) error) error {
	if s.sys.Table(liView) == nil {
		if err := s.sys.CreateJoinView(liView, liViewDef); err != nil {
			return err
		}
	}
	return s.o.Select(liView, conds, fn)
}

func trim(v val.Value) string { return strings.TrimSpace(v.AsStr()) }

// nationName resolves LAND1 -> T005T.LANDX with SELECT SINGLE.
func (s *SAPImpl) nationName(land1 val.Value) (string, error) {
	row, ok, err := s.o.SelectSingle("T005T", []r3.Cond{
		r3.Eq("SPRAS", val.Str("EN")), r3.Eq("LAND1", land1)})
	if err != nil || !ok {
		return "", err
	}
	return trim(row.Get("LANDX")), nil
}

// regionOf resolves LAND1 -> region name via T005 and T005U.
func (s *SAPImpl) regionOf(land1 val.Value) (string, error) {
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

// The three single-table reads below are the same ABAP in Release 3.0,
// whose reports use them too.

// complaintSuppliers reads the suppliers whose comment text mentions
// customer complaints (Q16's NOT IN, unnested by hand).
func (s *SAPImpl) complaintSuppliers() (map[string]bool, error) {
	complaints := map[string]bool{}
	err := s.o.Select("STXL", []r3.Cond{
		r3.Eq("TDOBJECT", val.Str("LFA1")),
		r3.Like("CLUSTD", "%Customer%Complaints%"),
	}, func(r r3.Row) error {
		complaints[trim(r.Get("TDNAME"))] = true
		return nil
	})
	return complaints, err
}

// partLines reads one part's lineitems into an internal table of KWMENG,
// NETWR (Q17 passes over them twice).
func (s *SAPImpl) partLines(matnr val.Value) (*r3.ITab, error) {
	lines := s.sys.NewITab(s.m, "KWMENG", "NETWR")
	err := s.o.Select("VBAP", []r3.Cond{r3.Eq("MATNR", matnr)}, func(r r3.Row) error {
		lines.Append(r.Get("KWMENG"), r.Get("NETWR"))
		return nil
	})
	return lines, err
}

// supplierAddress is Q15's lookup of a top supplier: LIFNR, NAME1, STRAS,
// TELF1.
func (s *SAPImpl) supplierAddress(lifnr string) ([][]val.Value, error) {
	row, ok, err := s.o.SelectSingle("LFA1", []r3.Cond{r3.Eq("LIFNR", val.Str(lifnr))})
	if err != nil || !ok {
		return nil, err
	}
	return [][]val.Value{{row.Get("LIFNR"), row.Get("NAME1"), row.Get("STRAS"), row.Get("TELF1")}}, nil
}

func (s *SAPImpl) open22Fetches() (q fetchTable) {
	q[1] = func() (tail, error) {
		work := q1Work{s.sys.NewITab(s.m, "RF", "LS", "QTY", "BASE", "DISCP", "CHARGE", "DISC")}
		return work, s.liSelect([]r3.Cond{r3.Le("EDATU", val.DateFromYMD(1998, 9, 2))}, func(r r3.Row) error {
			vbeln, posnr := r.Get("VBELN").AsStr(), r.Get("POSNR").AsStr()
			d, err := s.discountRate(vbeln, posnr)
			if err != nil {
				return err
			}
			t, err := s.taxRate(vbeln, posnr)
			if err != nil {
				return err
			}
			work.add(r.Get("ABGRU"), r.Get("LFSTA"), r.Get("KWMENG"), r.Get("NETWR").AsFloat(), d, t)
			return nil
		})
	}

	q[2] = func() (tail, error) {
		var out q2Offers
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
				region, err := s.regionOf(sup.Get("LAND1"))
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
				landx, err := s.nationName(sup.Get("LAND1"))
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
		return out, err
	}

	q[3] = func() (tail, error) {
		work := q3Work{s.sys.NewITab(s.m, "VBELN", "AUDAT", "LPRIO", "REV"), revCol}
		return work, s.liSelect([]r3.Cond{
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
	}

	q[4] = func() (tail, error) {
		late := newOrderTally()
		return late, s.liSelect([]r3.Cond{
			r3.Ge("AUDAT", val.DateFromYMD(1993, 7, 1)),
			r3.Lt("AUDAT", val.DateFromYMD(1993, 10, 1)),
		}, func(r r3.Row) error {
			if val.Compare(r.Get("WADAT"), r.Get("MBDAT")) >= 0 {
				return nil
			}
			late.add(r.Get("VBELN").AsStr(), trim(r.Get("SUBMI")))
			return nil
		})
	}

	q[5] = func() (tail, error) {
		work := q5Work{s.sys.NewITab(s.m, "LANDX", "REV"), revCol}
		return work, s.liSelect([]r3.Cond{
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
			region, err := s.regionOf(sup.Get("LAND1"))
			if err != nil {
				return err
			}
			if region != "ASIA" {
				return nil
			}
			landx, err := s.nationName(sup.Get("LAND1"))
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
	}

	q[6] = func() (tail, error) {
		rev := &discountRevenue{}
		return rev, s.liSelect([]r3.Cond{
			r3.Ge("EDATU", val.DateFromYMD(1994, 1, 1)),
			r3.Lt("EDATU", val.DateFromYMD(1995, 1, 1)),
			r3.Lt("KWMENG", val.Float(24)),
		}, func(r r3.Row) error {
			d, err := s.discountRate(r.Get("VBELN").AsStr(), r.Get("POSNR").AsStr())
			if err != nil {
				return err
			}
			if inQ6Range(d) {
				rev.add(r.Get("NETWR").AsFloat(), d)
			}
			return nil
		})
	}

	q[7] = func() (tail, error) {
		work := q7Work{s.sys.NewITab(s.m, "SUPP", "CUST", "YR", "REV")}
		return work, s.liSelect([]r3.Cond{
			r3.Between("EDATU", val.DateFromYMD(1995, 1, 1), val.DateFromYMD(1996, 12, 31)),
		}, func(r r3.Row) error {
			sup, ok, err := s.o.SelectSingle("LFA1", []r3.Cond{r3.Eq("LIFNR", r.Get("LIFNR"))})
			if err != nil || !ok {
				return err
			}
			n1, err := s.nationName(sup.Get("LAND1"))
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
			n2, err := s.nationName(cust.Get("LAND1"))
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
	}

	q[8] = func() (tail, error) {
		byYear := marketShare{}
		return byYear, s.liSelect([]r3.Cond{
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
			region, err := s.regionOf(cust.Get("LAND1"))
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
			n2, err := s.nationName(sup.Get("LAND1"))
			if err != nil {
				return err
			}
			d, err := s.discountRate(r.Get("VBELN").AsStr(), r.Get("POSNR").AsStr())
			if err != nil {
				return err
			}
			byYear.add(yearOf(r.Get("AUDAT")).AsInt(), n2, r.Get("NETWR").AsFloat()*(1-d))
			return nil
		})
	}

	q[9] = func() (tail, error) {
		work := q9Work{s.sys.NewITab(s.m, "NATION", "YR", "PROFIT")}
		return work, s.liSelect(nil, func(r r3.Row) error {
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
			landx, err := s.nationName(sup.Get("LAND1"))
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
	}

	q[10] = func() (tail, error) {
		work := q10Work{s.sys.NewITab(s.m, "KUNNR", "NAME1", "ACCBL", "TELF1", "LANDX", "STRAS", "CLUSTD", "REV"), revCol}
		return work, s.liSelect([]r3.Cond{
			r3.Ge("AUDAT", val.DateFromYMD(1993, 10, 1)),
			r3.Lt("AUDAT", val.DateFromYMD(1994, 1, 1)),
			r3.Eq("ABGRU", val.Str("R")),
		}, func(r r3.Row) error {
			cust, ok, err := s.o.SelectSingle("KNA1", []r3.Cond{r3.Eq("KUNNR", r.Get("KUNNR"))})
			if err != nil || !ok {
				return err
			}
			landx, err := s.nationName(cust.Get("LAND1"))
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
	}

	q[11] = func() (tail, error) {
		// German suppliers first, then their info records.
		var germanLands []val.Value
		err := s.o.Select("T005T", []r3.Cond{r3.Eq("LANDX", val.Str("GERMANY"))}, func(r r3.Row) error {
			germanLands = append(germanLands, r.Get("LAND1"))
			return nil
		})
		if err != nil {
			return nil, err
		}
		work := s.q11Work()
		for _, land := range germanLands {
			err = s.o.Select("LFA1", []r3.Cond{r3.Eq("LAND1", land)}, func(sup r3.Row) error {
				return s.o.Select("EINA", []r3.Cond{r3.Eq("LIFNR", sup.Get("LIFNR"))}, func(ia r3.Row) error {
					ie, ok, err := s.o.SelectSingle("EINE", []r3.Cond{
						r3.Eq("INFNR", ia.Get("INFNR")), r3.Eq("EKORG", val.Str("0001"))})
					if err != nil || !ok {
						return err
					}
					work.add(ia.Get("MATNR"), ie.Get("NETPR").AsFloat()*ie.Get("NORBM").AsFloat())
					return nil
				})
			})
			if err != nil {
				return nil, err
			}
		}
		return work, nil
	}

	q[12] = func() (tail, error) {
		byMode := lineCounts{}
		return byMode, s.liSelect([]r3.Cond{
			r3.In("VSBED", val.Str("MAIL"), val.Str("SHIP")),
			r3.Ge("MBDAT", val.DateFromYMD(1994, 1, 1)),
			r3.Lt("MBDAT", val.DateFromYMD(1995, 1, 1)),
		}, func(r r3.Row) error {
			if val.Compare(r.Get("WADAT"), r.Get("MBDAT")) >= 0 ||
				val.Compare(r.Get("EDATU"), r.Get("WADAT")) >= 0 {
				return nil
			}
			byMode.add(trim(r.Get("VSBED")), trim(r.Get("SUBMI")))
			return nil
		})
	}

	q[13] = func() (tail, error) {
		counts := tally{}
		return counts, s.o.Select("VBAK", []r3.Cond{r3.Ge("AUDAT", val.DateFromYMD(1998, 6, 1))}, func(r r3.Row) error {
			counts[trim(r.Get("SUBMI"))]++
			return nil
		})
	}

	q[14] = func() (tail, error) {
		promo := &promoShare{}
		return promo, s.liSelect([]r3.Cond{
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
			promo.add(trim(mara.Get("MTART")), r.Get("NETWR").AsFloat()*(1-d))
			return nil
		})
	}

	q[15] = func() (tail, error) {
		work := q15Work{s.sys.NewITab(s.m, "LIFNR", "REV"), revCol, s.supplierAddress}
		return work, s.liSelect([]r3.Cond{
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
	}

	q[16] = func() (tail, error) {
		complaints, err := s.complaintSuppliers()
		if err != nil {
			return nil, err
		}
		supp := supplierSets{}
		return supp, s.o.Select("AUSP", []r3.Cond{
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
			k := partGroup{brand, ptype, zs.Get("ATFLV").AsInt()}
			return s.o.Select("EINA", []r3.Cond{r3.Eq("MATNR", matnr)}, func(ia r3.Row) error {
				if lifnr := trim(ia.Get("LIFNR")); !complaints[lifnr] {
					supp.add(k, lifnr)
				}
				return nil
			})
		})
	}

	q[17] = func() (tail, error) {
		small := &smallOrders{}
		return small, s.o.Select("AUSP", []r3.Cond{
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
			lines, err := s.partLines(matnr)
			if err != nil {
				return err
			}
			small.add(lines)
			return nil
		})
	}

	return q
}
