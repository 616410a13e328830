package reports

import (
	"sort"

	"r3bench/internal/r3"
	"r3bench/internal/val"
)

// Native SQL, Release 2.2G: KONV is a cluster table, so "several queries
// cannot be fully pushed down to the RDBMS; instead these queries are
// broken down and joins with the KONV table are implemented using nested
// SELECT statements and thus are evaluated at higher cost by the SAP
// application server" (paper Section 3.4.3). Queries that never touch
// discount/tax are identical to the 3.0 reports.

// fetchWithDiscount runs the transparent part of a broken-down query and
// stitches in each row's discount via a nested Open SQL read of the KONV
// cluster; the discount lands in an extra trailing column. The document
// key columns must be named VBELN and POSNR in the SQL.
func (s *SAPImpl) fetchWithDiscount(sql string, cols []string) (*r3.ITab, error) {
	res, err := s.n.Exec(sql)
	if err != nil {
		return nil, err
	}
	vbelnIdx, posnrIdx := -1, -1
	for i, c := range res.Cols {
		switch c {
		case "VBELN":
			vbelnIdx = i
		case "POSNR":
			posnrIdx = i
		}
	}
	tab := s.sys.NewITab(s.m, append(append([]string(nil), cols...), "DISC")...)
	for _, row := range res.Rows {
		d, err := s.discountRate(row[vbelnIdx].AsStr(), row[posnrIdx].AsStr())
		if err != nil {
			return nil, err
		}
		tab.Append(append(append([]val.Value(nil), row...), val.Float(d))...)
	}
	return tab, nil
}

// sortRows orders final client-side results.
func sortRows(rows [][]val.Value, keys []int, desc []bool) {
	sort.SliceStable(rows, func(a, b int) bool {
		for i, k := range keys {
			c := val.Compare(rows[a][k], rows[b][k])
			if c == 0 {
				continue
			}
			if desc[i] {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

// yearOf extracts the year of a date value client-side.
func yearOf(v val.Value) val.Value {
	s := v.AsStr()
	if len(s) < 4 {
		return val.Null
	}
	y := 0
	for i := 0; i < 4; i++ {
		y = y*10 + int(s[i]-'0')
	}
	return val.Int(int64(y))
}

func (s *SAPImpl) native22Queries() map[int]func() ([][]val.Value, error) {
	// Queries without discount/tax push down exactly as in 3.0.
	shared := s.native30Queries()
	q := map[int]func() ([][]val.Value, error){
		2: shared[2], 4: shared[4], 11: shared[11], 12: shared[12],
		13: shared[13], 16: shared[16], 17: shared[17],
	}

	q[1] = func() ([][]val.Value, error) {
		tab, err := s.fetchWithDiscount(`
SELECT P.VBELN, P.POSNR, P.ABGRU, E.LFSTA, P.KWMENG, P.NETWR
FROM VBAP P, VBEP E
WHERE `+mandt("P", "E")+`
  AND E.VBELN = P.VBELN AND E.POSNR = P.POSNR
  AND E.EDATU <= DATE '1998-09-02'`,
			[]string{"VBELN", "POSNR", "ABGRU", "LFSTA", "KWMENG", "NETWR"})
		if err != nil {
			return nil, err
		}
		// Tax needs a second nested probe per row.
		taxes := make([]float64, tab.Len())
		for i := range tab.Rows() {
			t, err := s.taxRate(tab.Get(i, "VBELN").AsStr(), tab.Get(i, "POSNR").AsStr())
			if err != nil {
				return nil, err
			}
			taxes[i] = t
		}
		// Recompute per-row charge columns into a second internal table
		// (the 2.2 style: materialize, then group).
		work := s.sys.NewITab(s.m, "RF", "LS", "QTY", "BASE", "DISCP", "CHARGE", "DISC")
		for i, row := range tab.Rows() {
			qty := tab.Get(i, "KWMENG").AsFloat()
			base := tab.Get(i, "NETWR").AsFloat()
			d := tab.Get(i, "DISC").AsFloat()
			work.Append(row[2], row[3], val.Float(qty), val.Float(base),
				val.Float(base*(1-d)), val.Float(base*(1-d)*(1+taxes[i])), val.Float(d))
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

	q[3] = func() ([][]val.Value, error) {
		tab, err := s.fetchWithDiscount(`
SELECT P.VBELN, P.POSNR, P.NETWR, K.AUDAT, K.LPRIO
FROM KNA1 C, VBAK K, VBAP P, VBEP E
WHERE `+mandt("C", "K", "P", "E")+`
  AND C.BRSCH = 'BUILDING' AND K.KUNNR = C.KUNNR AND P.VBELN = K.VBELN
  AND E.VBELN = P.VBELN AND E.POSNR = P.POSNR
  AND K.AUDAT < DATE '1995-03-15' AND E.EDATU > DATE '1995-03-15'`,
			[]string{"VBELN", "POSNR", "NETWR", "AUDAT", "LPRIO"})
		if err != nil {
			return nil, err
		}
		var out [][]val.Value
		err = tab.GroupBy([]string{"VBELN", "AUDAT", "LPRIO"}, []r3.Agg{
			{Fn: "SUM", Of: func(r []val.Value) val.Value {
				return val.Float(r[2].AsFloat() * (1 - r[5].AsFloat()))
			}},
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

	q[5] = func() ([][]val.Value, error) {
		tab, err := s.fetchWithDiscount(`
SELECT P.VBELN, P.POSNR, P.NETWR, T.LANDX
FROM KNA1 C, VBAK K, VBAP P, LFA1 S, T005 N, T005U R, T005T T
WHERE `+mandt("C", "K", "P", "S", "N", "R", "T")+`
  AND C.KUNNR = K.KUNNR AND P.VBELN = K.VBELN AND P.LIFNR = S.LIFNR
  AND C.LAND1 = S.LAND1 AND S.LAND1 = N.LAND1
  AND N.LANDK = R.BLAND AND R.BEZEI = 'ASIA'
  AND T.LAND1 = N.LAND1
  AND K.AUDAT >= DATE '1994-01-01' AND K.AUDAT < DATE '1995-01-01'`,
			[]string{"VBELN", "POSNR", "NETWR", "LANDX"})
		if err != nil {
			return nil, err
		}
		var out [][]val.Value
		err = tab.GroupBy([]string{"LANDX"}, []r3.Agg{
			{Fn: "SUM", Of: func(r []val.Value) val.Value {
				return val.Float(r[2].AsFloat() * (1 - r[4].AsFloat()))
			}},
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
		tab, err := s.fetchWithDiscount(`
SELECT P.VBELN, P.POSNR, P.NETWR
FROM VBAP P, VBEP E
WHERE `+mandt("P", "E")+`
  AND E.VBELN = P.VBELN AND E.POSNR = P.POSNR
  AND E.EDATU >= DATE '1994-01-01' AND E.EDATU < DATE '1995-01-01'
  AND P.KWMENG < 24`,
			[]string{"VBELN", "POSNR", "NETWR"})
		if err != nil {
			return nil, err
		}
		var sum float64
		for i := range tab.Rows() {
			d := tab.Get(i, "DISC").AsFloat()
			if d >= 0.05 && d <= 0.07 {
				sum += tab.Get(i, "NETWR").AsFloat() * d
			}
		}
		return [][]val.Value{{val.Float(sum)}}, nil
	}

	q[7] = func() ([][]val.Value, error) {
		tab, err := s.fetchWithDiscount(`
SELECT P.VBELN, P.POSNR, P.NETWR, T1.LANDX AS SUPP_NATION, T2.LANDX AS CUST_NATION, E.EDATU
FROM LFA1 S, VBAP P, VBEP E, VBAK K, KNA1 C, T005T T1, T005T T2
WHERE `+mandt("S", "P", "E", "K", "C", "T1", "T2")+`
  AND S.LIFNR = P.LIFNR AND K.VBELN = P.VBELN
  AND E.VBELN = P.VBELN AND E.POSNR = P.POSNR
  AND C.KUNNR = K.KUNNR AND T1.LAND1 = S.LAND1 AND T2.LAND1 = C.LAND1
  AND ((T1.LANDX = 'FRANCE' AND T2.LANDX = 'GERMANY')
    OR (T1.LANDX = 'GERMANY' AND T2.LANDX = 'FRANCE'))
  AND E.EDATU BETWEEN DATE '1995-01-01' AND DATE '1996-12-31'`,
			[]string{"VBELN", "POSNR", "NETWR", "SUPP", "CUST", "EDATU"})
		if err != nil {
			return nil, err
		}
		work := s.sys.NewITab(s.m, "SUPP", "CUST", "YR", "REV")
		for i, row := range tab.Rows() {
			work.Append(row[3], row[4], yearOf(row[5]),
				val.Float(tab.Get(i, "NETWR").AsFloat()*(1-tab.Get(i, "DISC").AsFloat())))
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
		tab, err := s.fetchWithDiscount(`
SELECT P.VBELN, P.POSNR, P.NETWR, K.AUDAT, T2.LANDX
FROM MARA A, LFA1 S, VBAP P, VBAK K, KNA1 C, T005 N1, T005U R, T005T T2
WHERE `+mandt("A", "S", "P", "K", "C", "N1", "R", "T2")+`
  AND A.MATNR = P.MATNR AND S.LIFNR = P.LIFNR AND K.VBELN = P.VBELN
  AND C.KUNNR = K.KUNNR AND N1.LAND1 = C.LAND1
  AND R.BLAND = N1.LANDK AND R.BEZEI = 'AMERICA'
  AND T2.LAND1 = S.LAND1
  AND K.AUDAT BETWEEN DATE '1995-01-01' AND DATE '1996-12-31'
  AND A.MTART = 'ECONOMY ANODIZED STEEL'`,
			[]string{"VBELN", "POSNR", "NETWR", "AUDAT", "LANDX"})
		if err != nil {
			return nil, err
		}
		type share struct{ num, den float64 }
		byYear := map[int64]*share{}
		var years []int64
		for i, row := range tab.Rows() {
			y := yearOf(row[3]).AsInt()
			sh := byYear[y]
			if sh == nil {
				sh = &share{}
				byYear[y] = sh
				years = append(years, y)
			}
			vol := tab.Get(i, "NETWR").AsFloat() * (1 - tab.Get(i, "DISC").AsFloat())
			sh.den += vol
			if row[4].AsStr() == "BRAZIL" {
				sh.num += vol
			}
		}
		sort.Slice(years, func(a, b int) bool { return years[a] < years[b] })
		var out [][]val.Value
		for _, y := range years {
			sh := byYear[y]
			out = append(out, []val.Value{val.Int(y), val.Float(sh.num / sh.den)})
		}
		return out, nil
	}

	q[9] = func() ([][]val.Value, error) {
		tab, err := s.fetchWithDiscount(`
SELECT P.VBELN, P.POSNR, P.NETWR, P.KWMENG, IE.NETPR, K.AUDAT, T.LANDX
FROM MAKT MK, EINA IA, EINE IE, LFA1 S, VBAP P, VBAK K, T005T T
WHERE `+mandt("MK", "IA", "IE", "S", "P", "K", "T")+`
  AND MK.MATNR = P.MATNR AND MK.MAKTX LIKE '%green%'
  AND IA.MATNR = P.MATNR AND IA.LIFNR = P.LIFNR AND IE.INFNR = IA.INFNR
  AND S.LIFNR = P.LIFNR AND K.VBELN = P.VBELN AND T.LAND1 = S.LAND1`,
			[]string{"VBELN", "POSNR", "NETWR", "KWMENG", "NETPR", "AUDAT", "LANDX"})
		if err != nil {
			return nil, err
		}
		work := s.sys.NewITab(s.m, "NATION", "YR", "PROFIT")
		for i, row := range tab.Rows() {
			profit := tab.Get(i, "NETWR").AsFloat()*(1-tab.Get(i, "DISC").AsFloat()) -
				row[4].AsFloat()*row[3].AsFloat()
			work.Append(row[6], yearOf(row[5]), val.Float(profit))
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
		tab, err := s.fetchWithDiscount(`
SELECT P.VBELN, P.POSNR, P.NETWR, C.KUNNR, C.NAME1, C.ACCBL, T.LANDX, C.STRAS, C.TELF1, X.CLUSTD
FROM KNA1 C, VBAK K, VBAP P, T005T T, STXL X
WHERE `+mandt("C", "K", "P", "T", "X")+`
  AND C.KUNNR = K.KUNNR AND P.VBELN = K.VBELN
  AND K.AUDAT >= DATE '1993-10-01' AND K.AUDAT < DATE '1994-01-01'
  AND P.ABGRU = 'R' AND T.LAND1 = C.LAND1
  AND X.TDOBJECT = 'KNA1' AND X.TDNAME = C.KUNNR`,
			[]string{"VBELN", "POSNR", "NETWR", "KUNNR", "NAME1", "ACCBL", "LANDX", "STRAS", "TELF1", "CLUSTD"})
		if err != nil {
			return nil, err
		}
		var out [][]val.Value
		err = tab.GroupBy([]string{"KUNNR", "NAME1", "ACCBL", "TELF1", "LANDX", "STRAS", "CLUSTD"},
			[]r3.Agg{{Fn: "SUM", Of: func(r []val.Value) val.Value {
				return val.Float(r[2].AsFloat() * (1 - r[10].AsFloat()))
			}}},
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

	q[14] = func() ([][]val.Value, error) {
		tab, err := s.fetchWithDiscount(`
SELECT P.VBELN, P.POSNR, P.NETWR, A.MTART
FROM VBAP P, VBEP E, MARA A
WHERE `+mandt("P", "E", "A")+`
  AND P.MATNR = A.MATNR AND E.VBELN = P.VBELN AND E.POSNR = P.POSNR
  AND E.EDATU >= DATE '1995-09-01' AND E.EDATU < DATE '1995-10-01'`,
			[]string{"VBELN", "POSNR", "NETWR", "MTART"})
		if err != nil {
			return nil, err
		}
		var num, den float64
		for i, row := range tab.Rows() {
			vol := tab.Get(i, "NETWR").AsFloat() * (1 - tab.Get(i, "DISC").AsFloat())
			den += vol
			if len(row[3].AsStr()) >= 5 && row[3].AsStr()[:5] == "PROMO" {
				num += vol
			}
		}
		if den == 0 {
			return [][]val.Value{{val.Null}}, nil
		}
		return [][]val.Value{{val.Float(100 * num / den)}}, nil
	}

	q[15] = func() ([][]val.Value, error) {
		tab, err := s.fetchWithDiscount(`
SELECT P.VBELN, P.POSNR, P.NETWR, P.LIFNR
FROM VBAP P, VBEP E
WHERE `+mandt("P", "E")+`
  AND E.VBELN = P.VBELN AND E.POSNR = P.POSNR
  AND E.EDATU >= DATE '1996-01-01' AND E.EDATU < DATE '1996-04-01'`,
			[]string{"VBELN", "POSNR", "NETWR", "LIFNR"})
		if err != nil {
			return nil, err
		}
		type rev struct {
			lifnr string
			total float64
		}
		var tops []rev
		err = tab.GroupBy([]string{"LIFNR"}, []r3.Agg{
			{Fn: "SUM", Of: func(r []val.Value) val.Value {
				return val.Float(r[2].AsFloat() * (1 - r[4].AsFloat()))
			}},
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
			res, err := s.n.Exec(`SELECT S.LIFNR, S.NAME1, S.STRAS, S.TELF1 FROM LFA1 S
				WHERE `+mandt("S")+` AND S.LIFNR = ?`, val.Str(t.lifnr))
			if err != nil {
				return nil, err
			}
			for _, r := range res.Rows {
				out = append(out, append(append([]val.Value(nil), r...), val.Float(t.total)))
			}
		}
		sortRows(out, []int{0}, []bool{false})
		return out, nil
	}

	return q
}
