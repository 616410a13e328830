package reports

import (
	"sort"
	"strings"

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

func (s *SAPImpl) open30Queries() map[int]func() ([][]val.Value, error) {
	q := map[int]func() ([][]val.Value, error){}

	q[1] = func() ([][]val.Value, error) {
		tables, on, where := liJoin()
		tables = append(tables, r3.JT{Table: "KONV", Alias: "KT"})
		on = append(on, konvOn("KT")...)
		where = append(where,
			r3.WhereA{Alias: "KT", Cond: r3.Eq("KSCHL", val.Str("TAX"))},
			r3.WhereA{Alias: "E", Cond: r3.Le("EDATU", val.DateFromYMD(1998, 9, 2))})
		work := s.sys.NewITab(s.m, "RF", "LS", "QTY", "BASE", "DISCP", "CHARGE", "DISC")
		err := s.o.SelectJoin(r3.JoinQuery{
			Tables: tables, On: on, Where: where,
			Select: []r3.ColRef{{Alias: "P", Col: "ABGRU"}, {Alias: "E", Col: "LFSTA"},
				{Alias: "P", Col: "KWMENG"}, {Alias: "P", Col: "NETWR"},
				{Alias: "KD", Col: "KBETR", As: "KB_D"}, {Alias: "KT", Col: "KBETR", As: "KB_T"}},
		}, func(r r3.Row) error {
			d := disc(r.Get("KB_D"))
			t := r.Get("KB_T").AsFloat() / 1000
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
		var out [][]val.Value
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
			out = append(out, r.Vals()[:8])
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
		tables, on, where := liJoin()
		tables = append(tables, r3.JT{Table: "KNA1", Alias: "C"})
		on = append(on, r3.On{LA: "K", LC: "KUNNR", RA: "C", RC: "KUNNR"})
		where = append(where,
			r3.WhereA{Alias: "C", Cond: r3.Eq("BRSCH", val.Str("BUILDING"))},
			r3.WhereA{Alias: "K", Cond: r3.Lt("AUDAT", val.DateFromYMD(1995, 3, 15))},
			r3.WhereA{Alias: "E", Cond: r3.Gt("EDATU", val.DateFromYMD(1995, 3, 15))})
		work := s.sys.NewITab(s.m, "VBELN", "AUDAT", "LPRIO", "REV")
		err := s.o.SelectJoin(r3.JoinQuery{
			Tables: tables, On: on, Where: where,
			Select: []r3.ColRef{{Alias: "P", Col: "VBELN"}, {Alias: "K", Col: "AUDAT"},
				{Alias: "K", Col: "LPRIO"}, {Alias: "P", Col: "NETWR"}, {Alias: "KD", Col: "KBETR"}},
		}, func(r r3.Row) error {
			work.Append(r.Get("VBELN"), r.Get("AUDAT"), r.Get("LPRIO"),
				val.Float(r.Get("NETWR").AsFloat()*(1-disc(r.Get("KBETR")))))
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
		// Deduplicate orders, then count per priority.
		counts := map[string]int64{}
		seen := map[string]bool{}
		for i := range work.Rows() {
			k := work.Get(i, "VBELN").AsStr()
			if seen[k] {
				continue
			}
			seen[k] = true
			counts[work.Get(i, "SUBMI").AsStr()]++
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
		err := s.o.SelectJoin(r3.JoinQuery{
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
		tables, on, where := liJoin()
		where = append(where,
			r3.WhereA{Alias: "E", Cond: r3.Ge("EDATU", val.DateFromYMD(1994, 1, 1))},
			r3.WhereA{Alias: "E", Cond: r3.Lt("EDATU", val.DateFromYMD(1995, 1, 1))},
			r3.WhereA{Alias: "KD", Cond: r3.Between("KBETR", val.Float(-70), val.Float(-50))},
			r3.WhereA{Alias: "P", Cond: r3.Lt("KWMENG", val.Float(24))})
		var sum float64
		err := s.o.SelectJoin(r3.JoinQuery{
			Tables: tables, On: on, Where: where,
			Select: []r3.ColRef{{Alias: "P", Col: "NETWR"}, {Alias: "KD", Col: "KBETR"}},
		}, func(r r3.Row) error {
			sum += r.Get("NETWR").AsFloat() * disc(r.Get("KBETR"))
			return nil
		})
		if err != nil {
			return nil, err
		}
		return [][]val.Value{{val.Float(sum)}}, nil
	}

	q[7] = func() ([][]val.Value, error) {
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
		work := s.sys.NewITab(s.m, "SUPP", "CUST", "YR", "REV")
		err := s.o.SelectJoin(r3.JoinQuery{
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
		type share struct{ num, den float64 }
		byYear := map[int64]*share{}
		err := s.o.SelectJoin(r3.JoinQuery{
			Tables: tables, On: on, Where: where,
			Select: []r3.ColRef{{Alias: "K", Col: "AUDAT"}, {Alias: "T2", Col: "LANDX"},
				{Alias: "P", Col: "NETWR"}, {Alias: "KD", Col: "KBETR"}},
		}, func(r r3.Row) error {
			y := yearOf(r.Get("AUDAT")).AsInt()
			sh := byYear[y]
			if sh == nil {
				sh = &share{}
				byYear[y] = sh
			}
			vol := r.Get("NETWR").AsFloat() * (1 - disc(r.Get("KBETR")))
			sh.den += vol
			if r.Get("LANDX").AsStr() == "BRAZIL" {
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
		work := s.sys.NewITab(s.m, "NATION", "YR", "PROFIT")
		err := s.o.SelectJoin(r3.JoinQuery{
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
		work := s.sys.NewITab(s.m, "KUNNR", "NAME1", "ACCBL", "TELF1", "LANDX", "STRAS", "CLUSTD", "REV")
		err := s.o.SelectJoin(r3.JoinQuery{
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
		// Unnested by hand: one shipment serves both the per-part sums and
		// the grand total.
		work := s.sys.NewITab(s.m, "MATNR", "VAL")
		var total float64
		err := s.o.SelectJoin(r3.JoinQuery{
			Tables: []r3.JT{{Table: "EINA", Alias: "IA"}, {Table: "EINE", Alias: "IE"}, {Table: "LFA1", Alias: "S"}, {Table: "T005T", Alias: "T"}},
			On: []r3.On{{LA: "IE", LC: "INFNR", RA: "IA", RC: "INFNR"}, {LA: "S", LC: "LIFNR", RA: "IA", RC: "LIFNR"},
				{LA: "T", LC: "LAND1", RA: "S", RC: "LAND1"}},
			Where: []r3.WhereA{{Alias: "T", Cond: r3.Eq("LANDX", val.Str("GERMANY"))}},
			Select: []r3.ColRef{{Alias: "IA", Col: "MATNR"},
				{Alias: "IE", Col: "NETPR"}, {Alias: "IE", Col: "NORBM"}},
		}, func(r r3.Row) error {
			v := r.Get("NETPR").AsFloat() * r.Get("NORBM").AsFloat()
			total += v
			work.Append(r.Get("MATNR"), val.Float(v))
			return nil
		})
		if err != nil {
			return nil, err
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
		err := s.o.SelectJoin(r3.JoinQuery{
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
			c := byMode[r.Get("VSBED").AsStr()]
			if c == nil {
				c = &cnt{}
				byMode[r.Get("VSBED").AsStr()] = c
			}
			p := r.Get("SUBMI").AsStr()
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
		for mde := range byMode {
			modes = append(modes, mde)
		}
		sort.Strings(modes)
		var out [][]val.Value
		for _, mde := range modes {
			out = append(out, []val.Value{val.Str(mde),
				val.Int(byMode[mde].high), val.Int(byMode[mde].low)})
		}
		return out, nil
	}

	q[13] = func() ([][]val.Value, error) {
		// COUNT(*) with GROUP BY is a simple aggregation: full push-down,
		// the showcase of the 3.0 extension.
		var out [][]val.Value
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

	q[14] = func() ([][]val.Value, error) {
		tables, on, where := liJoin()
		tables = append(tables, r3.JT{Table: "MARA", Alias: "A"})
		on = append(on, r3.On{LA: "P", LC: "MATNR", RA: "A", RC: "MATNR"})
		where = append(where,
			r3.WhereA{Alias: "E", Cond: r3.Ge("EDATU", val.DateFromYMD(1995, 9, 1))},
			r3.WhereA{Alias: "E", Cond: r3.Lt("EDATU", val.DateFromYMD(1995, 10, 1))})
		var num, den float64
		err := s.o.SelectJoin(r3.JoinQuery{
			Tables: tables, On: on, Where: where,
			Select: []r3.ColRef{{Alias: "A", Col: "MTART"}, {Alias: "P", Col: "NETWR"},
				{Alias: "KD", Col: "KBETR"}},
		}, func(r r3.Row) error {
			vol := r.Get("NETWR").AsFloat() * (1 - disc(r.Get("KBETR")))
			den += vol
			if strings.HasPrefix(r.Get("MTART").AsStr(), "PROMO") {
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
		tables, on, where := liJoin()
		where = append(where,
			r3.WhereA{Alias: "E", Cond: r3.Ge("EDATU", val.DateFromYMD(1996, 1, 1))},
			r3.WhereA{Alias: "E", Cond: r3.Lt("EDATU", val.DateFromYMD(1996, 4, 1))})
		work := s.sys.NewITab(s.m, "LIFNR", "REV")
		err := s.o.SelectJoin(r3.JoinQuery{
			Tables: tables, On: on, Where: where,
			Select: []r3.ColRef{{Alias: "P", Col: "LIFNR"}, {Alias: "P", Col: "NETWR"},
				{Alias: "KD", Col: "KBETR"}},
		}, func(r r3.Row) error {
			work.Append(r.Get("LIFNR"), val.Float(r.Get("NETWR").AsFloat()*(1-disc(r.Get("KBETR")))))
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
			if ok {
				out = append(out, []val.Value{row.Get("LIFNR"), row.Get("NAME1"),
					row.Get("STRAS"), row.Get("TELF1"), val.Float(t.total)})
			}
		}
		sortRows(out, []int{0}, []bool{false})
		return out, nil
	}

	q[16] = func() ([][]val.Value, error) {
		// Phase 1 (unnesting): the complaint suppliers.
		complaints := map[string]bool{}
		err := s.o.Select("STXL", []r3.Cond{
			r3.Eq("TDOBJECT", val.Str("LFA1")),
			r3.Like("CLUSTD", "%Customer%Complaints%"),
		}, func(r r3.Row) error {
			complaints[strings.TrimSpace(r.Get("TDNAME").AsStr())] = true
			return nil
		})
		if err != nil {
			return nil, err
		}
		// Phase 2: the main join; COUNT DISTINCT runs client-side.
		type groupKey struct {
			brand, ptype string
			size         int64
		}
		supp := map[groupKey]map[string]bool{}
		err = s.o.SelectJoin(r3.JoinQuery{
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
			lifnr := strings.TrimSpace(r.Get("LIFNR").AsStr())
			if complaints[lifnr] {
				return nil
			}
			k := groupKey{r.Get("ATWRT").AsStr(), r.Get("MTART").AsStr(), r.Get("ATFLV").AsInt()}
			if supp[k] == nil {
				supp[k] = map[string]bool{}
			}
			supp[k][lifnr] = true
			return nil
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
			matnrs = append(matnrs, strings.TrimSpace(r.Get("OBJEK").AsStr()))
			return nil
		})
		if err != nil {
			return nil, err
		}
		// Phase 2: per material, two passes over its lineitems (the
		// correlated subquery unrolled by hand).
		var total float64
		contributed := false
		for _, matnr := range matnrs {
			lines := s.sys.NewITab(s.m, "KWMENG", "NETWR")
			err := s.o.Select("VBAP", []r3.Cond{r3.Eq("MATNR", val.Str(matnr))}, func(r r3.Row) error {
				lines.Append(r.Get("KWMENG"), r.Get("NETWR"))
				return nil
			})
			if err != nil {
				return nil, err
			}
			if lines.Len() == 0 {
				continue
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
		}
		if !contributed {
			// SUM over no rows is NULL, as in the SQL formulations.
			return [][]val.Value{{val.Null}}, nil
		}
		return [][]val.Value{{val.Float(total / 7.0)}}, nil
	}

	return q
}
