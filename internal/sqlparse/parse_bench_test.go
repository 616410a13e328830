package sqlparse_test

import (
	"testing"

	"r3bench/internal/sqlparse"
	"r3bench/internal/tpcd"
)

// The parse benchmarks measure the front end directly (real CPU and
// real allocations, not the simulated 1996 clock). BenchmarkParseSelect
// is the acceptance gate: a Q1-class statement through the public
// pooled Parse must allocate ≥10× less than the pre-rewrite parser
// (131 allocs/op at the PR 6 baseline). Mirrors of these run from the
// repo root (bench_test.go) so bench_snapshot.sh lands them in
// BENCH_<date>.json for the benchdiff -max-parse-allocs gate.

func q1(b *testing.B) string {
	b.Helper()
	return tpcd.Queries(1.0)[0].SQL[0]
}

func BenchmarkParseSelect(b *testing.B) {
	src := q1(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparse.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseSelectReused holds one Parser and recycles its arena —
// the per-session reuse pattern. Steady state parses allocate nothing.
func BenchmarkParseSelectReused(b *testing.B) {
	src := q1(b)
	p := sqlparse.NewParser()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseDML(b *testing.B) {
	const src = `UPDATE lineitem SET l_quantity = l_quantity + 1, l_comment = 'touched'
WHERE l_orderkey = ? AND l_linenumber BETWEEN 1 AND 4`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparse.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParsePointLiteral is the ad hoc literal point read: a text
// the fingerprint cache has not seen, parsed and detached for keeping.
func BenchmarkParsePointLiteral(b *testing.B) {
	const src = "SELECT * FROM orders WHERE o_orderkey = 123456"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparse.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseSelectOld measures the preserved pre-rewrite parser on
// the same statement, so `go test -bench ParseSelect` prints the
// old-vs-new contrast in one run.
func BenchmarkParseSelectOld(b *testing.B) {
	src := q1(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparse.OldParse(src); err != nil {
			b.Fatal(err)
		}
	}
}
