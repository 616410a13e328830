package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"r3bench/internal/engine"
	"r3bench/internal/val"
)

// Answer checking. Every answer the program gives is reduced to a 64-bit
// canonical fingerprint and compared with what the same op answers in
// process (or, for writes, with what the benchmark's own model of the
// transaction says); seed 1 is additionally pinned to checked-in goldens.
// The fingerprint allocates nothing, so taking it of every answer does not
// show in allocs_per_op.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

type fnv uint64

func (h fnv) byte(b byte) fnv { return (h ^ fnv(b)) * fnvPrime }

func (h fnv) u64(v uint64) fnv {
	for i := 0; i < 8; i++ {
		h = h.byte(byte(v >> (8 * i)))
	}
	return h
}

func (h fnv) str(s string) fnv {
	for i := 0; i < len(s); i++ {
		h = h.byte(s[i])
	}
	return h.byte(0xff)
}

// value folds one value in: floats at 4 decimals (the precision
// warehouse.Fingerprint and TPC-D answer checking use), every kind tagged so
// an int never equals the same-looking float.
func (h fnv) value(v val.Value) fnv {
	h = h.byte(byte(v.K))
	switch v.K {
	case val.KInt, val.KDate:
		return h.u64(uint64(v.I))
	case val.KFloat:
		return h.u64(uint64(int64(math.Round(v.F * 1e4))))
	case val.KStr:
		return h.str(v.S)
	}
	return h
}

// fingerprint is the canonical fingerprint of a statement's answer: rows
// affected, then every row in the order returned.
func fingerprint(res *engine.Result) uint64 {
	h := fnv(fnvOffset).u64(uint64(res.RowsAffected)).u64(uint64(len(res.Rows)))
	for _, row := range res.Rows {
		h = h.u64(uint64(len(row)))
		for _, v := range row {
			h = h.value(v)
		}
	}
	return uint64(h)
}

// fingerprintRows is fingerprint for a bare row set (R/3 reports return rows
// only).
func fingerprintRows(rows [][]val.Value) uint64 {
	return fingerprint(&engine.Result{Rows: rows})
}

// affectedFP is the fingerprint of a write's answer: n rows affected, no
// rows returned.
func affectedFP(n int64) uint64 {
	return fingerprint(&engine.Result{RowsAffected: n})
}

// --- R/3 report answers against the isolated RDBMS ---
//
// The four SAP strategies return the same answer as standard SQL on the
// original schema, but not the same bytes: keys come back as 16-byte
// zero-padded strings, aggregates are summed in another order, and rows may
// arrive in another order where the query's ORDER BY leaves ties. The rule
// is the one TestAllStrategiesAgree (internal/r3/reports) applies: row
// multisets, digit strings compared as numbers, floats within 1e-6 relative
// + 5e-3 absolute.

func canonVal(v val.Value) string {
	switch v.K {
	case val.KNull:
		return "~"
	case val.KStr:
		s := strings.TrimSpace(v.S)
		if len(s) > 0 && len(strings.TrimLeft(s, "0123456789")) == 0 {
			return "#" + strconv.FormatFloat(float64(v.AsInt()), 'f', 3, 64)
		}
		return s
	case val.KDate:
		return v.AsStr()
	default:
		return "#" + strconv.FormatFloat(v.AsFloat(), 'f', 3, 64)
	}
}

func canonRows(rows [][]val.Value) []string {
	out := make([]string, len(rows))
	parts := make([]string, 0, 16)
	for i, row := range rows {
		parts = parts[:0]
		for _, v := range row {
			parts = append(parts, canonVal(v))
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// sameAnswer reports whether two row sets are the same answer under the
// rule above; the error says where they part.
func sameAnswer(want, got [][]val.Value) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	ws, gs := canonRows(want), canonRows(got)
	for i := range ws {
		if ws[i] != gs[i] && !almostEqualRows(ws[i], gs[i]) {
			return fmt.Errorf("row %d differs: got %q, want %q", i, gs[i], ws[i])
		}
	}
	return nil
}

func almostEqualRows(a, b string) bool {
	af, bf := strings.Split(a, "|"), strings.Split(b, "|")
	if len(af) != len(bf) {
		return false
	}
	for i := range af {
		if af[i] == bf[i] {
			continue
		}
		if !strings.HasPrefix(af[i], "#") || !strings.HasPrefix(bf[i], "#") {
			return false
		}
		x, errX := strconv.ParseFloat(af[i][1:], 64)
		y, errY := strconv.ParseFloat(bf[i][1:], 64)
		if errX != nil || errY != nil {
			return false
		}
		if math.Abs(x-y) > 1e-6*math.Max(math.Abs(x), math.Abs(y))+5e-3 {
			return false
		}
	}
	return true
}

// --- goldens ---
//
// A golden is the digest of one class's answers during the warm-up pass, in
// the order the ops were sent (client 0's, then client 1's). The warm-up
// pass is the same for a given seed whatever -seconds says, so the digests
// pin seed 1 at full size; other seeds and -smoke rely on the
// wire-versus-in-process check alone.

const goldenFile = "golden/seed1.json"

type goldens map[string]map[string]string // workload -> class -> hex digest

func loadGoldens(dir string) (goldens, error) {
	data, err := os.ReadFile(dir + "/" + goldenFile)
	if err != nil {
		return nil, err
	}
	g := goldens{}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenFile, err)
	}
	return g, nil
}

func (g goldens) save(dir string) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(dir+"/"+goldenFile, append(data, '\n'), 0o644)
}

// classDigests folds the warm-up pass's answer fingerprints into one digest
// per class.
type classDigests struct {
	names []string
	h     []fnv
}

func newClassDigests(names []string) *classDigests {
	d := &classDigests{names: names, h: make([]fnv, len(names))}
	for i := range d.h {
		d.h[i] = fnvOffset
	}
	return d
}

func (d *classDigests) add(class int, fp uint64) { d.h[class] = d.h[class].u64(fp) }

func (d *classDigests) hex() map[string]string {
	out := make(map[string]string, len(d.names))
	for i, n := range d.names {
		out[n] = strconv.FormatUint(uint64(d.h[i]), 16)
	}
	return out
}

// mismatches returns the classes whose digest differs from the golden
// (a class missing on either side differs).
func (d *classDigests) mismatches(want map[string]string) []string {
	got := d.hex()
	var bad []string
	for name, h := range got {
		if want[name] != h {
			bad = append(bad, name)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			bad = append(bad, name)
		}
	}
	sort.Strings(bad)
	return bad
}
