package reports

import (
	"slices"

	"r3bench/internal/r3"
	"r3bench/internal/val"
)

// Open SQL, Release 3.0E: the new JOIN construct delegates all join
// processing to the RDBMS, and simple aggregations push down too. What
// still cannot push down — the paper's three reasons Native SQL keeps
// winning — runs in the application server here:
//
//  1. vendor functions (INSTR) are unavailable, so Q16's comment filter
//     ships raw rows;
//  2. the generic parameterized translation can mislead the optimizer;
//  3. complex aggregations (discounted prices) are inexpressible, so the
//     qualifying rows ship and aggregate in internal tables.
//
// Q2, Q11 and Q16 are explicitly unnested by hand, because "Open SQL's
// SELECT statement does not allow the coding of nested queries" — the
// rewriting that made these queries *faster* than Native SQL.

// disc converts a shipped DISC-row KBETR back to the discount rate.
func disc(kbetr val.Value) float64 { return -kbetr.AsFloat() / 1000 }

// konvOn joins a KONV alias to the document tables.
func konvOn(alias string) []r3.On {
	return []r3.On{
		{LA: "K", LC: "KNUMV", RA: alias, RC: "KNUMV"},
		{LA: "P", LC: "POSNR", RA: alias, RC: "KPOSN"},
	}
}

// liJoin is the lineitem-level join VBAP ⋈ VBEP ⋈ VBAK ⋈ KONV(DISC).
func liJoin() ([]r3.JT, []r3.On, []r3.WhereA) {
	tables := []r3.JT{{Table: "VBAP", Alias: "P"}, {Table: "VBEP", Alias: "E"}, {Table: "VBAK", Alias: "K"}, {Table: "KONV", Alias: "KD"}}
	on := []r3.On{
		{LA: "P", LC: "VBELN", RA: "E", RC: "VBELN"}, {LA: "P", LC: "POSNR", RA: "E", RC: "POSNR"},
		{LA: "P", LC: "VBELN", RA: "K", RC: "VBELN"},
	}
	on = append(on, konvOn("KD")...)
	where := []r3.WhereA{{Alias: "KD", Cond: r3.Eq("KSCHL", val.Str("DISC"))}}
	return tables, on, where
}

func (s *SAPImpl) open30Fetches() (q fetchTable) {
	q[1] = func() (tail, error) {
		tables, on, where := liJoin()
		tables = append(tables, r3.JT{Table: "KONV", Alias: "KT"})
		on = append(on, konvOn("KT")...)
		where = append(where,
			r3.WhereA{Alias: "KT", Cond: r3.Eq("KSCHL", val.Str("TAX"))},
			r3.WhereA{Alias: "E", Cond: r3.Le("EDATU", val.DateFromYMD(1998, 9, 2))})
		work := q1Work{s.sys.NewITab(s.m, "RF", "LS", "QTY", "BASE", "DISCP", "CHARGE", "DISC")}
		return work, s.o.SelectJoin(r3.JoinQuery{
			Tables: tables, On: on, Where: where,
			Select: []r3.ColRef{{Alias: "P", Col: "ABGRU"}, {Alias: "E", Col: "LFSTA"},
				{Alias: "P", Col: "KWMENG"}, {Alias: "P", Col: "NETWR"},
				{Alias: "KD", Col: "KBETR", As: "KB_D"}, {Alias: "KT", Col: "KBETR", As: "KB_T"}},
		}, func(r r3.Row) error {
			work.add(r.Get("ABGRU"), r.Get("LFSTA"), r.Get("KWMENG"), r.Get("NETWR").AsFloat(),
				disc(r.Get("KB_D")), r.Get("KB_T").AsFloat()/1000)
			return nil
		})
	}

	q[2] = func() (tail, error) {
		// Phase 1 (the manual unnesting): minimum European supply cost
		// per material — MIN is a simple aggregate and pushes down.
		mins := s.sys.NewITab(s.m, "MATNR", "MINC")
		err := s.o.SelectJoin(r3.JoinQuery{
			Tables: []r3.JT{{Table: "EINA", Alias: "IA"}, {Table: "EINE", Alias: "IE"}, {Table: "LFA1", Alias: "S"}, {Table: "T005", Alias: "N"}, {Table: "T005U", Alias: "R"}},
			On: []r3.On{{LA: "IA", LC: "INFNR", RA: "IE", RC: "INFNR"}, {LA: "IA", LC: "LIFNR", RA: "S", RC: "LIFNR"},
				{LA: "S", LC: "LAND1", RA: "N", RC: "LAND1"}, {LA: "N", LC: "LANDK", RA: "R", RC: "BLAND"}},
			Where:   []r3.WhereA{{Alias: "R", Cond: r3.Eq("BEZEI", val.Str("EUROPE"))}},
			GroupBy: []r3.ColRef{{Alias: "IA", Col: "MATNR"}},
			Select:  []r3.ColRef{{Alias: "IA", Col: "MATNR"}},
			Aggs:    []r3.AggRef{{Fn: "MIN", Ref: r3.ColRef{Alias: "IE", Col: "NETPR"}, As: "MINC"}},
		}, func(r r3.Row) error {
			mins.Append(r.Get("MATNR"), r.Get("MINC"))
			return nil
		})
		if err != nil {
			return nil, err
		}
		mins.Sort("MATNR")
		// Phase 2: the main join, filtered against phase 1 client-side.
		var out q2Offers
		err = s.o.SelectJoin(r3.JoinQuery{
			Tables: []r3.JT{{Table: "MARA", Alias: "A"}, {Table: "AUSP", Alias: "Z"}, {Table: "EINA", Alias: "IA"}, {Table: "EINE", Alias: "IE"},
				{Table: "LFA1", Alias: "S"}, {Table: "T005", Alias: "N"}, {Table: "T005U", Alias: "R"}, {Table: "T005T", Alias: "T"}, {Table: "STXL", Alias: "X"}},
			On: []r3.On{{LA: "A", LC: "MATNR", RA: "Z", RC: "OBJEK"}, {LA: "IA", LC: "MATNR", RA: "A", RC: "MATNR"},
				{LA: "IE", LC: "INFNR", RA: "IA", RC: "INFNR"}, {LA: "S", LC: "LIFNR", RA: "IA", RC: "LIFNR"},
				{LA: "N", LC: "LAND1", RA: "S", RC: "LAND1"}, {LA: "R", LC: "BLAND", RA: "N", RC: "LANDK"},
				{LA: "T", LC: "LAND1", RA: "N", RC: "LAND1"}, {LA: "X", LC: "TDNAME", RA: "S", RC: "LIFNR"}},
			Where: []r3.WhereA{
				{Alias: "Z", Cond: r3.Eq("ATINN", val.Str("SIZE"))},
				{Alias: "Z", Cond: r3.Eq("ATFLV", val.Float(15))},
				{Alias: "A", Cond: r3.Like("MTART", "%BRASS")},
				{Alias: "R", Cond: r3.Eq("BEZEI", val.Str("EUROPE"))},
				{Alias: "X", Cond: r3.Eq("TDOBJECT", val.Str("LFA1"))},
			},
			Select: []r3.ColRef{{Alias: "S", Col: "ACCBL"}, {Alias: "S", Col: "NAME1"},
				{Alias: "T", Col: "LANDX"}, {Alias: "A", Col: "MATNR"}, {Alias: "A", Col: "MFRNR"},
				{Alias: "S", Col: "STRAS"}, {Alias: "S", Col: "TELF1"}, {Alias: "X", Col: "CLUSTD"},
				{Alias: "IE", Col: "NETPR"}},
		}, func(r r3.Row) error {
			if m, ok := mins.LookupSorted("MATNR", r.Get("MATNR")); !ok ||
				val.Compare(m[1], r.Get("NETPR")) != 0 {
				return nil
			}
			out = append(out, slices.Clone(r.Vals()[:8]))
			return nil
		})
		return out, err
	}

	q[3] = func() (tail, error) {
		tables, on, where := liJoin()
		tables = append(tables, r3.JT{Table: "KNA1", Alias: "C"})
		on = append(on, r3.On{LA: "K", LC: "KUNNR", RA: "C", RC: "KUNNR"})
		where = append(where,
			r3.WhereA{Alias: "C", Cond: r3.Eq("BRSCH", val.Str("BUILDING"))},
			r3.WhereA{Alias: "K", Cond: r3.Lt("AUDAT", val.DateFromYMD(1995, 3, 15))},
			r3.WhereA{Alias: "E", Cond: r3.Gt("EDATU", val.DateFromYMD(1995, 3, 15))})
		work := q3Work{s.sys.NewITab(s.m, "VBELN", "AUDAT", "LPRIO", "REV"), revCol}
		return work, s.o.SelectJoin(r3.JoinQuery{
			Tables: tables, On: on, Where: where,
			Select: []r3.ColRef{{Alias: "P", Col: "VBELN"}, {Alias: "K", Col: "AUDAT"},
				{Alias: "K", Col: "LPRIO"}, {Alias: "P", Col: "NETWR"}, {Alias: "KD", Col: "KBETR"}},
		}, func(r r3.Row) error {
			work.Append(r.Get("VBELN"), r.Get("AUDAT"), r.Get("LPRIO"),
				val.Float(r.Get("NETWR").AsFloat()*(1-disc(r.Get("KBETR")))))
			return nil
		})
	}

	q[4] = func() (tail, error) {
		// EXISTS is inexpressible: ship candidate rows and deduplicate
		// client-side.
		work := s.sys.NewITab(s.m, "VBELN", "SUBMI")
		err := s.o.SelectJoin(r3.JoinQuery{
			Tables: []r3.JT{{Table: "VBAK", Alias: "K"}, {Table: "VBAP", Alias: "P"}, {Table: "VBEP", Alias: "E"}},
			On: []r3.On{{LA: "K", LC: "VBELN", RA: "P", RC: "VBELN"},
				{LA: "P", LC: "VBELN", RA: "E", RC: "VBELN"}, {LA: "P", LC: "POSNR", RA: "E", RC: "POSNR"}},
			Where: []r3.WhereA{
				{Alias: "K", Cond: r3.Ge("AUDAT", val.DateFromYMD(1993, 7, 1))},
				{Alias: "K", Cond: r3.Lt("AUDAT", val.DateFromYMD(1993, 10, 1))}},
			Select: []r3.ColRef{{Alias: "K", Col: "VBELN"}, {Alias: "K", Col: "SUBMI"},
				{Alias: "E", Col: "WADAT"}, {Alias: "E", Col: "MBDAT"}},
		}, func(r r3.Row) error {
			if val.Compare(r.Get("WADAT"), r.Get("MBDAT")) < 0 {
				work.Append(r.Get("VBELN"), r.Get("SUBMI"))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		late := newOrderTally()
		for i := range work.Rows() {
			late.add(work.Get(i, "VBELN").AsStr(), work.Get(i, "SUBMI").AsStr())
		}
		return late, nil
	}

	q[5] = func() (tail, error) {
		work := q5Work{s.sys.NewITab(s.m, "LANDX", "REV"), revCol}
		return work, s.o.SelectJoin(r3.JoinQuery{
			Tables: []r3.JT{{Table: "KNA1", Alias: "C"}, {Table: "VBAK", Alias: "K"}, {Table: "VBAP", Alias: "P"}, {Table: "LFA1", Alias: "S"},
				{Table: "T005", Alias: "N"}, {Table: "T005U", Alias: "R"}, {Table: "T005T", Alias: "T"}, {Table: "KONV", Alias: "KD"}},
			On: append([]r3.On{{LA: "C", LC: "KUNNR", RA: "K", RC: "KUNNR"}, {LA: "P", LC: "VBELN", RA: "K", RC: "VBELN"},
				{LA: "P", LC: "LIFNR", RA: "S", RC: "LIFNR"}, {LA: "C", LC: "LAND1", RA: "S", RC: "LAND1"},
				{LA: "S", LC: "LAND1", RA: "N", RC: "LAND1"}, {LA: "N", LC: "LANDK", RA: "R", RC: "BLAND"},
				{LA: "T", LC: "LAND1", RA: "N", RC: "LAND1"}}, konvOn("KD")...),
			Where: []r3.WhereA{
				{Alias: "R", Cond: r3.Eq("BEZEI", val.Str("ASIA"))},
				{Alias: "K", Cond: r3.Ge("AUDAT", val.DateFromYMD(1994, 1, 1))},
				{Alias: "K", Cond: r3.Lt("AUDAT", val.DateFromYMD(1995, 1, 1))},
				{Alias: "KD", Cond: r3.Eq("KSCHL", val.Str("DISC"))}},
			Select: []r3.ColRef{{Alias: "T", Col: "LANDX"}, {Alias: "P", Col: "NETWR"},
				{Alias: "KD", Col: "KBETR"}},
		}, func(r r3.Row) error {
			work.Append(r.Get("LANDX"), val.Float(r.Get("NETWR").AsFloat()*(1-disc(r.Get("KBETR")))))
			return nil
		})
	}

	q[6] = func() (tail, error) {
		tables, on, where := liJoin()
		where = append(where,
			r3.WhereA{Alias: "E", Cond: r3.Ge("EDATU", val.DateFromYMD(1994, 1, 1))},
			r3.WhereA{Alias: "E", Cond: r3.Lt("EDATU", val.DateFromYMD(1995, 1, 1))},
			r3.WhereA{Alias: "KD", Cond: r3.Between("KBETR", val.Float(-70), val.Float(-50))},
			r3.WhereA{Alias: "P", Cond: r3.Lt("KWMENG", val.Float(24))})
		rev := &discountRevenue{}
		return rev, s.o.SelectJoin(r3.JoinQuery{
			Tables: tables, On: on, Where: where,
			Select: []r3.ColRef{{Alias: "P", Col: "NETWR"}, {Alias: "KD", Col: "KBETR"}},
		}, func(r r3.Row) error {
			rev.add(r.Get("NETWR").AsFloat(), disc(r.Get("KBETR")))
			return nil
		})
	}

	q[7] = func() (tail, error) {
		// The OR of nation pairs is inexpressible in Open SQL's conjunct
		// list: push IN filters and finish client-side.
		tables, on, where := liJoin()
		tables = append(tables, r3.JT{Table: "KNA1", Alias: "C"},
			r3.JT{Table: "LFA1", Alias: "S"}, r3.JT{Table: "T005T", Alias: "T1"},
			r3.JT{Table: "T005T", Alias: "T2"})
		on = append(on, r3.On{LA: "K", LC: "KUNNR", RA: "C", RC: "KUNNR"},
			r3.On{LA: "P", LC: "LIFNR", RA: "S", RC: "LIFNR"},
			r3.On{LA: "S", LC: "LAND1", RA: "T1", RC: "LAND1"},
			r3.On{LA: "C", LC: "LAND1", RA: "T2", RC: "LAND1"})
		where = append(where,
			r3.WhereA{Alias: "T1", Cond: r3.In("LANDX", val.Str("FRANCE"), val.Str("GERMANY"))},
			r3.WhereA{Alias: "T2", Cond: r3.In("LANDX", val.Str("FRANCE"), val.Str("GERMANY"))},
			r3.WhereA{Alias: "E", Cond: r3.Between("EDATU",
				val.DateFromYMD(1995, 1, 1), val.DateFromYMD(1996, 12, 31))})
		work := q7Work{s.sys.NewITab(s.m, "SUPP", "CUST", "YR", "REV")}
		return work, s.o.SelectJoin(r3.JoinQuery{
			Tables: tables, On: on, Where: where,
			Select: []r3.ColRef{{Alias: "T1", Col: "LANDX", As: "SUPP"},
				{Alias: "T2", Col: "LANDX", As: "CUST"}, {Alias: "E", Col: "EDATU"},
				{Alias: "P", Col: "NETWR"}, {Alias: "KD", Col: "KBETR"}},
		}, func(r r3.Row) error {
			if r.Get("SUPP").AsStr() == r.Get("CUST").AsStr() {
				return nil
			}
			work.Append(r.Get("SUPP"), r.Get("CUST"), yearOf(r.Get("EDATU")),
				val.Float(r.Get("NETWR").AsFloat()*(1-disc(r.Get("KBETR")))))
			return nil
		})
	}

	q[8] = func() (tail, error) {
		tables, on, where := liJoin()
		tables = append(tables, r3.JT{Table: "MARA", Alias: "A"}, r3.JT{Table: "LFA1", Alias: "S"},
			r3.JT{Table: "KNA1", Alias: "C"}, r3.JT{Table: "T005", Alias: "N1"},
			r3.JT{Table: "T005U", Alias: "R"}, r3.JT{Table: "T005T", Alias: "T2"})
		on = append(on, r3.On{LA: "P", LC: "MATNR", RA: "A", RC: "MATNR"},
			r3.On{LA: "P", LC: "LIFNR", RA: "S", RC: "LIFNR"},
			r3.On{LA: "K", LC: "KUNNR", RA: "C", RC: "KUNNR"},
			r3.On{LA: "C", LC: "LAND1", RA: "N1", RC: "LAND1"},
			r3.On{LA: "N1", LC: "LANDK", RA: "R", RC: "BLAND"},
			r3.On{LA: "S", LC: "LAND1", RA: "T2", RC: "LAND1"})
		where = append(where,
			r3.WhereA{Alias: "R", Cond: r3.Eq("BEZEI", val.Str("AMERICA"))},
			r3.WhereA{Alias: "K", Cond: r3.Between("AUDAT",
				val.DateFromYMD(1995, 1, 1), val.DateFromYMD(1996, 12, 31))},
			r3.WhereA{Alias: "A", Cond: r3.Eq("MTART", val.Str("ECONOMY ANODIZED STEEL"))})
		byYear := marketShare{}
		return byYear, s.o.SelectJoin(r3.JoinQuery{
			Tables: tables, On: on, Where: where,
			Select: []r3.ColRef{{Alias: "K", Col: "AUDAT"}, {Alias: "T2", Col: "LANDX"},
				{Alias: "P", Col: "NETWR"}, {Alias: "KD", Col: "KBETR"}},
		}, func(r r3.Row) error {
			byYear.add(yearOf(r.Get("AUDAT")).AsInt(), r.Get("LANDX").AsStr(),
				r.Get("NETWR").AsFloat()*(1-disc(r.Get("KBETR"))))
			return nil
		})
	}

	q[9] = func() (tail, error) {
		tables, on, where := liJoin()
		tables = append(tables, r3.JT{Table: "MAKT", Alias: "MK"}, r3.JT{Table: "EINA", Alias: "IA"},
			r3.JT{Table: "EINE", Alias: "IE"}, r3.JT{Table: "LFA1", Alias: "S"},
			r3.JT{Table: "T005T", Alias: "T"})
		on = append(on, r3.On{LA: "P", LC: "MATNR", RA: "MK", RC: "MATNR"},
			r3.On{LA: "IA", LC: "MATNR", RA: "P", RC: "MATNR"},
			r3.On{LA: "IA", LC: "LIFNR", RA: "P", RC: "LIFNR"},
			r3.On{LA: "IE", LC: "INFNR", RA: "IA", RC: "INFNR"},
			r3.On{LA: "S", LC: "LIFNR", RA: "P", RC: "LIFNR"},
			r3.On{LA: "T", LC: "LAND1", RA: "S", RC: "LAND1"})
		where = append(where, r3.WhereA{Alias: "MK", Cond: r3.Like("MAKTX", "%green%")})
		work := q9Work{s.sys.NewITab(s.m, "NATION", "YR", "PROFIT")}
		return work, s.o.SelectJoin(r3.JoinQuery{
			Tables: tables, On: on, Where: where,
			Select: []r3.ColRef{{Alias: "T", Col: "LANDX"}, {Alias: "K", Col: "AUDAT"},
				{Alias: "P", Col: "NETWR"}, {Alias: "P", Col: "KWMENG"},
				{Alias: "IE", Col: "NETPR"}, {Alias: "KD", Col: "KBETR"}},
		}, func(r r3.Row) error {
			profit := r.Get("NETWR").AsFloat()*(1-disc(r.Get("KBETR"))) -
				r.Get("NETPR").AsFloat()*r.Get("KWMENG").AsFloat()
			work.Append(r.Get("LANDX"), yearOf(r.Get("AUDAT")), val.Float(profit))
			return nil
		})
	}

	q[10] = func() (tail, error) {
		tables, on, where := liJoin()
		tables = append(tables, r3.JT{Table: "KNA1", Alias: "C"},
			r3.JT{Table: "T005T", Alias: "T"}, r3.JT{Table: "STXL", Alias: "X"})
		on = append(on, r3.On{LA: "K", LC: "KUNNR", RA: "C", RC: "KUNNR"},
			r3.On{LA: "T", LC: "LAND1", RA: "C", RC: "LAND1"},
			r3.On{LA: "X", LC: "TDNAME", RA: "C", RC: "KUNNR"})
		where = append(where,
			r3.WhereA{Alias: "K", Cond: r3.Ge("AUDAT", val.DateFromYMD(1993, 10, 1))},
			r3.WhereA{Alias: "K", Cond: r3.Lt("AUDAT", val.DateFromYMD(1994, 1, 1))},
			r3.WhereA{Alias: "P", Cond: r3.Eq("ABGRU", val.Str("R"))},
			r3.WhereA{Alias: "X", Cond: r3.Eq("TDOBJECT", val.Str("KNA1"))})
		work := q10Work{s.sys.NewITab(s.m, "KUNNR", "NAME1", "ACCBL", "TELF1", "LANDX", "STRAS", "CLUSTD", "REV"), revCol}
		return work, s.o.SelectJoin(r3.JoinQuery{
			Tables: tables, On: on, Where: where,
			Select: []r3.ColRef{{Alias: "C", Col: "KUNNR"}, {Alias: "C", Col: "NAME1"},
				{Alias: "C", Col: "ACCBL"}, {Alias: "C", Col: "TELF1"}, {Alias: "T", Col: "LANDX"},
				{Alias: "C", Col: "STRAS"}, {Alias: "X", Col: "CLUSTD"},
				{Alias: "P", Col: "NETWR"}, {Alias: "KD", Col: "KBETR"}},
		}, func(r r3.Row) error {
			work.Append(r.Get("KUNNR"), r.Get("NAME1"), r.Get("ACCBL"), r.Get("TELF1"),
				r.Get("LANDX"), r.Get("STRAS"), r.Get("CLUSTD"),
				val.Float(r.Get("NETWR").AsFloat()*(1-disc(r.Get("KBETR")))))
			return nil
		})
	}

	q[11] = func() (tail, error) {
		// Unnested by hand: one shipment serves both the per-part sums and
		// the grand total.
		work := s.q11Work()
		return work, s.o.SelectJoin(r3.JoinQuery{
			Tables: []r3.JT{{Table: "EINA", Alias: "IA"}, {Table: "EINE", Alias: "IE"}, {Table: "LFA1", Alias: "S"}, {Table: "T005T", Alias: "T"}},
			On: []r3.On{{LA: "IE", LC: "INFNR", RA: "IA", RC: "INFNR"}, {LA: "S", LC: "LIFNR", RA: "IA", RC: "LIFNR"},
				{LA: "T", LC: "LAND1", RA: "S", RC: "LAND1"}},
			Where: []r3.WhereA{{Alias: "T", Cond: r3.Eq("LANDX", val.Str("GERMANY"))}},
			Select: []r3.ColRef{{Alias: "IA", Col: "MATNR"},
				{Alias: "IE", Col: "NETPR"}, {Alias: "IE", Col: "NORBM"}},
		}, func(r r3.Row) error {
			work.add(r.Get("MATNR"), r.Get("NETPR").AsFloat()*r.Get("NORBM").AsFloat())
			return nil
		})
	}

	q[12] = func() (tail, error) {
		byMode := lineCounts{}
		return byMode, s.o.SelectJoin(r3.JoinQuery{
			Tables: []r3.JT{{Table: "VBAK", Alias: "K"}, {Table: "VBAP", Alias: "P"}, {Table: "VBEP", Alias: "E"}},
			On: []r3.On{{LA: "K", LC: "VBELN", RA: "P", RC: "VBELN"},
				{LA: "P", LC: "VBELN", RA: "E", RC: "VBELN"}, {LA: "P", LC: "POSNR", RA: "E", RC: "POSNR"}},
			Where: []r3.WhereA{
				{Alias: "P", Cond: r3.In("VSBED", val.Str("MAIL"), val.Str("SHIP"))},
				{Alias: "E", Cond: r3.Ge("MBDAT", val.DateFromYMD(1994, 1, 1))},
				{Alias: "E", Cond: r3.Lt("MBDAT", val.DateFromYMD(1995, 1, 1))}},
			Select: []r3.ColRef{{Alias: "P", Col: "VSBED"}, {Alias: "K", Col: "SUBMI"},
				{Alias: "E", Col: "EDATU"}, {Alias: "E", Col: "WADAT"}, {Alias: "E", Col: "MBDAT"}},
		}, func(r r3.Row) error {
			// Column-to-column comparisons are inexpressible in Open SQL.
			if val.Compare(r.Get("WADAT"), r.Get("MBDAT")) >= 0 ||
				val.Compare(r.Get("EDATU"), r.Get("WADAT")) >= 0 {
				return nil
			}
			byMode.add(r.Get("VSBED").AsStr(), r.Get("SUBMI").AsStr())
			return nil
		})
	}

	q[13] = func() (tail, error) {
		// COUNT(*) with GROUP BY is a simple aggregation: full push-down,
		// the showcase of the 3.0 extension.
		var out done
		err := s.o.SelectJoin(r3.JoinQuery{
			Tables:  []r3.JT{{Table: "VBAK", Alias: "K"}},
			Where:   []r3.WhereA{{Alias: "K", Cond: r3.Ge("AUDAT", val.DateFromYMD(1998, 6, 1))}},
			GroupBy: []r3.ColRef{{Alias: "K", Col: "SUBMI"}},
			Select:  []r3.ColRef{{Alias: "K", Col: "SUBMI"}},
			Aggs:    []r3.AggRef{{Fn: "COUNT", As: "CNT"}},
			OrderBy: []r3.OrderRef{{Field: "SUBMI"}},
		}, func(r r3.Row) error {
			out = append(out, []val.Value{r.Get("SUBMI"), r.Get("CNT")})
			return nil
		})
		return out, err
	}

	q[14] = func() (tail, error) {
		tables, on, where := liJoin()
		tables = append(tables, r3.JT{Table: "MARA", Alias: "A"})
		on = append(on, r3.On{LA: "P", LC: "MATNR", RA: "A", RC: "MATNR"})
		where = append(where,
			r3.WhereA{Alias: "E", Cond: r3.Ge("EDATU", val.DateFromYMD(1995, 9, 1))},
			r3.WhereA{Alias: "E", Cond: r3.Lt("EDATU", val.DateFromYMD(1995, 10, 1))})
		promo := &promoShare{}
		return promo, s.o.SelectJoin(r3.JoinQuery{
			Tables: tables, On: on, Where: where,
			Select: []r3.ColRef{{Alias: "A", Col: "MTART"}, {Alias: "P", Col: "NETWR"},
				{Alias: "KD", Col: "KBETR"}},
		}, func(r r3.Row) error {
			promo.add(r.Get("MTART").AsStr(), r.Get("NETWR").AsFloat()*(1-disc(r.Get("KBETR"))))
			return nil
		})
	}

	q[15] = func() (tail, error) {
		tables, on, where := liJoin()
		where = append(where,
			r3.WhereA{Alias: "E", Cond: r3.Ge("EDATU", val.DateFromYMD(1996, 1, 1))},
			r3.WhereA{Alias: "E", Cond: r3.Lt("EDATU", val.DateFromYMD(1996, 4, 1))})
		work := q15Work{s.sys.NewITab(s.m, "LIFNR", "REV"), revCol, s.supplierAddress}
		return work, s.o.SelectJoin(r3.JoinQuery{
			Tables: tables, On: on, Where: where,
			Select: []r3.ColRef{{Alias: "P", Col: "LIFNR"}, {Alias: "P", Col: "NETWR"},
				{Alias: "KD", Col: "KBETR"}},
		}, func(r r3.Row) error {
			work.Append(r.Get("LIFNR"), val.Float(r.Get("NETWR").AsFloat()*(1-disc(r.Get("KBETR")))))
			return nil
		})
	}

	q[16] = func() (tail, error) {
		// Phase 1 (unnesting): the complaint suppliers.
		complaints, err := s.complaintSuppliers()
		if err != nil {
			return nil, err
		}
		// Phase 2: the main join; COUNT DISTINCT runs client-side.
		supp := supplierSets{}
		return supp, s.o.SelectJoin(r3.JoinQuery{
			Tables: []r3.JT{{Table: "EINA", Alias: "IA"}, {Table: "MARA", Alias: "A"}, {Table: "AUSP", Alias: "ZB"}, {Table: "AUSP", Alias: "ZS"}},
			On: []r3.On{{LA: "A", LC: "MATNR", RA: "IA", RC: "MATNR"},
				{LA: "ZB", LC: "OBJEK", RA: "A", RC: "MATNR"}, {LA: "ZS", LC: "OBJEK", RA: "A", RC: "MATNR"}},
			Where: []r3.WhereA{
				{Alias: "ZB", Cond: r3.Eq("ATINN", val.Str("BRAND"))},
				{Alias: "ZB", Cond: r3.Ne("ATWRT", val.Str("Brand#45"))},
				{Alias: "ZS", Cond: r3.Eq("ATINN", val.Str("SIZE"))},
				{Alias: "ZS", Cond: r3.In("ATFLV", val.Float(49), val.Float(14), val.Float(23),
					val.Float(45), val.Float(19), val.Float(3), val.Float(36), val.Float(9))},
				{Alias: "A", Cond: r3.NotLike("MTART", "MEDIUM POLISHED%")}},
			Select: []r3.ColRef{{Alias: "ZB", Col: "ATWRT"}, {Alias: "A", Col: "MTART"},
				{Alias: "ZS", Col: "ATFLV"}, {Alias: "IA", Col: "LIFNR"}},
		}, func(r r3.Row) error {
			if lifnr := trim(r.Get("LIFNR")); !complaints[lifnr] {
				supp.add(partGroup{r.Get("ATWRT").AsStr(), r.Get("MTART").AsStr(), r.Get("ATFLV").AsInt()}, lifnr)
			}
			return nil
		})
	}

	q[17] = func() (tail, error) {
		// Phase 1: qualifying materials.
		var matnrs []string
		err := s.o.SelectJoin(r3.JoinQuery{
			Tables: []r3.JT{{Table: "AUSP", Alias: "ZB"}, {Table: "AUSP", Alias: "ZC"}},
			On:     []r3.On{{LA: "ZB", LC: "OBJEK", RA: "ZC", RC: "OBJEK"}},
			Where: []r3.WhereA{
				{Alias: "ZB", Cond: r3.Eq("ATINN", val.Str("BRAND"))},
				{Alias: "ZB", Cond: r3.Eq("ATWRT", val.Str("Brand#23"))},
				{Alias: "ZC", Cond: r3.Eq("ATINN", val.Str("CONTAINER"))},
				{Alias: "ZC", Cond: r3.Eq("ATWRT", val.Str("MED BOX"))}},
			Select: []r3.ColRef{{Alias: "ZB", Col: "OBJEK"}},
		}, func(r r3.Row) error {
			matnrs = append(matnrs, trim(r.Get("OBJEK")))
			return nil
		})
		if err != nil {
			return nil, err
		}
		// Phase 2: per material, two passes over its lineitems (the
		// correlated subquery unrolled by hand).
		small := &smallOrders{}
		for _, matnr := range matnrs {
			lines, err := s.partLines(val.Str(matnr))
			if err != nil {
				return nil, err
			}
			small.add(lines)
		}
		return small, nil
	}

	return q
}
