package reports

import (
	"slices"

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
	vbelnIdx, posnrIdx := slices.Index(res.Cols, "VBELN"), slices.Index(res.Cols, "POSNR")
	tab := s.sys.NewITab(s.m, append(append([]string(nil), cols...), "DISC")...)
	var scratch []val.Value // the row and its discount, copied by Append
	for _, row := range res.Rows {
		d, err := s.discountRate(row[vbelnIdx].AsStr(), row[posnrIdx].AsStr())
		if err != nil {
			return nil, err
		}
		scratch = append(append(scratch[:0], row...), val.Float(d))
		tab.Append(scratch...)
	}
	return tab, nil
}

func (s *SAPImpl) native22Fetches() fetchTable {
	// Queries without discount/tax push down exactly as in 3.0; the ten
	// below replace the rest.
	q := s.native30Fetches()

	q[1] = func() (tail, error) {
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
		work := q1Work{s.sys.NewITab(s.m, "RF", "LS", "QTY", "BASE", "DISCP", "CHARGE", "DISC")}
		for i, row := range tab.Rows() {
			work.add(row[2], row[3], val.Float(tab.Get(i, "KWMENG").AsFloat()),
				tab.Get(i, "NETWR").AsFloat(), tab.Get(i, "DISC").AsFloat(), taxes[i])
		}
		return work, nil
	}

	q[3] = func() (tail, error) {
		tab, err := s.fetchWithDiscount(`
SELECT P.VBELN, P.POSNR, P.NETWR, K.AUDAT, K.LPRIO
FROM KNA1 C, VBAK K, VBAP P, VBEP E
WHERE `+mandt("C", "K", "P", "E")+`
  AND C.BRSCH = 'BUILDING' AND K.KUNNR = C.KUNNR AND P.VBELN = K.VBELN
  AND E.VBELN = P.VBELN AND E.POSNR = P.POSNR
  AND K.AUDAT < DATE '1995-03-15' AND E.EDATU > DATE '1995-03-15'`,
			[]string{"VBELN", "POSNR", "NETWR", "AUDAT", "LPRIO"})
		return q3Work{tab, netOf}, err
	}

	q[5] = func() (tail, error) {
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
		return q5Work{tab, netOf}, err
	}

	q[6] = func() (tail, error) {
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
		rev := &discountRevenue{}
		for i := range tab.Rows() {
			if d := tab.Get(i, "DISC").AsFloat(); inQ6Range(d) {
				rev.add(tab.Get(i, "NETWR").AsFloat(), d)
			}
		}
		return rev, nil
	}

	q[7] = func() (tail, error) {
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
		work := q7Work{s.sys.NewITab(s.m, "SUPP", "CUST", "YR", "REV")}
		for i, row := range tab.Rows() {
			work.Append(row[3], row[4], yearOf(row[5]),
				val.Float(tab.Get(i, "NETWR").AsFloat()*(1-tab.Get(i, "DISC").AsFloat())))
		}
		return work, nil
	}

	q[8] = func() (tail, error) {
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
		byYear := marketShare{}
		for i, row := range tab.Rows() {
			byYear.add(yearOf(row[3]).AsInt(), row[4].AsStr(),
				tab.Get(i, "NETWR").AsFloat()*(1-tab.Get(i, "DISC").AsFloat()))
		}
		return byYear, nil
	}

	q[9] = func() (tail, error) {
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
		work := q9Work{s.sys.NewITab(s.m, "NATION", "YR", "PROFIT")}
		for i, row := range tab.Rows() {
			profit := tab.Get(i, "NETWR").AsFloat()*(1-tab.Get(i, "DISC").AsFloat()) -
				row[4].AsFloat()*row[3].AsFloat()
			work.Append(row[6], yearOf(row[5]), val.Float(profit))
		}
		return work, nil
	}

	q[10] = func() (tail, error) {
		tab, err := s.fetchWithDiscount(`
SELECT P.VBELN, P.POSNR, P.NETWR, C.KUNNR, C.NAME1, C.ACCBL, T.LANDX, C.STRAS, C.TELF1, X.CLUSTD
FROM KNA1 C, VBAK K, VBAP P, T005T T, STXL X
WHERE `+mandt("C", "K", "P", "T", "X")+`
  AND C.KUNNR = K.KUNNR AND P.VBELN = K.VBELN
  AND K.AUDAT >= DATE '1993-10-01' AND K.AUDAT < DATE '1994-01-01'
  AND P.ABGRU = 'R' AND T.LAND1 = C.LAND1
  AND X.TDOBJECT = 'KNA1' AND X.TDNAME = C.KUNNR`,
			[]string{"VBELN", "POSNR", "NETWR", "KUNNR", "NAME1", "ACCBL", "LANDX", "STRAS", "TELF1", "CLUSTD"})
		return q10Work{tab, netOf}, err
	}

	q[14] = func() (tail, error) {
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
		promo := &promoShare{}
		for i, row := range tab.Rows() {
			promo.add(row[3].AsStr(), tab.Get(i, "NETWR").AsFloat()*(1-tab.Get(i, "DISC").AsFloat()))
		}
		return promo, nil
	}

	q[15] = func() (tail, error) {
		tab, err := s.fetchWithDiscount(`
SELECT P.VBELN, P.POSNR, P.NETWR, P.LIFNR
FROM VBAP P, VBEP E
WHERE `+mandt("P", "E")+`
  AND E.VBELN = P.VBELN AND E.POSNR = P.POSNR
  AND E.EDATU >= DATE '1996-01-01' AND E.EDATU < DATE '1996-04-01'`,
			[]string{"VBELN", "POSNR", "NETWR", "LIFNR"})
		return q15Work{tab, netOf, func(lifnr string) ([][]val.Value, error) {
			res, err := s.n.Exec(`SELECT S.LIFNR, S.NAME1, S.STRAS, S.TELF1 FROM LFA1 S
				WHERE `+mandt("S")+` AND S.LIFNR = ?`, val.Str(lifnr))
			if err != nil {
				return nil, err
			}
			return res.Rows, nil
		}}, err
	}

	return q
}
