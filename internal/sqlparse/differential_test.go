package sqlparse_test

// Differential suite: every statement the repo ships — the TPC-D
// Q1–Q17 texts, the schema DDL and refresh DML, the R/3 example
// transactions — plus string literals harvested from the source tree
// and the curated negative corpus, is run through the pre-rewrite
// parser (OldParse, preserved in oldparser_test.go) and the
// zero-allocation parser, asserting identical ASTs and errors.

import (
	"go/ast"
	goparser "go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"r3bench/internal/sqlparse"
	"r3bench/internal/tpcd"
)

// stmtPrefixes gates harvested string literals to plausible statements.
var stmtPrefixes = []string{"SELECT", "CREATE", "DROP", "INSERT", "UPDATE", "DELETE"}

func looksLikeSQL(s string) bool {
	t := strings.ToUpper(strings.TrimSpace(s))
	for _, p := range stmtPrefixes {
		if strings.HasPrefix(t, p+" ") || t == p {
			return true
		}
	}
	return false
}

// harvestStrings extracts Go string literals from every .go file under
// the given directories (relative to the repo root) that look like SQL
// statements. This reaches corpora the test cannot import directly
// (examples/salesorder is package main) without copying text.
func harvestStrings(t *testing.T, dirs ...string) []string {
	t.Helper()
	root := "../.."
	var out []string
	seen := map[string]bool{}
	for _, dir := range dirs {
		entries, err := os.ReadDir(filepath.Join(root, dir))
		if err != nil {
			t.Fatalf("harvest %s: %v", dir, err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			path := filepath.Join(root, dir, e.Name())
			f, err := goparser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				t.Fatalf("parse %s: %v", path, err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				s, err := strconv.Unquote(lit.Value)
				if err != nil || !looksLikeSQL(s) || seen[s] {
					return true
				}
				seen[s] = true
				out = append(out, s)
				return true
			})
		}
	}
	return out
}

// corpus assembles every positive statement the differential suite
// covers: the full TPC-D query suite (including Q15's view DDL), the
// robust_test seeds, and harvested literals from internal/tpcd (schema
// DDL, refresh DML), internal/r3 and examples/salesorder.
func corpus(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, q := range tpcd.Queries(1.0) {
		out = append(out, q.SQL...)
	}
	out = append(out, harvestStrings(t,
		"internal/tpcd", "internal/r3", "internal/engine", "examples/salesorder", "cmd/r3bench")...)
	return out
}

func TestDifferentialCorpus(t *testing.T) {
	stmts := corpus(t)
	if len(stmts) < 30 {
		t.Fatalf("corpus suspiciously small: %d statements", len(stmts))
	}
	valid := 0
	for _, src := range stmts {
		oldAST, oldErr := sqlparse.OldParse(src)
		newAST, newErr := sqlparse.Parse(src)
		if (oldErr == nil) != (newErr == nil) {
			t.Errorf("validity diverged on %q: old=%v new=%v", src, oldErr, newErr)
			continue
		}
		if oldErr != nil {
			continue // harvested literal that only resembles SQL; both reject
		}
		valid++
		if !reflect.DeepEqual(oldAST, newAST) {
			t.Errorf("AST diverged on %q:\nold: %#v\nnew: %#v", src, oldAST, newAST)
		}
	}
	if valid < 25 {
		t.Fatalf("too few valid statements exercised: %d", valid)
	}
	t.Logf("differential corpus: %d statements, %d valid", len(stmts), valid)
}

// negatives is the curated error corpus.
var negatives = []string{
	"",
	"SELECT",
	"SELECT FROM t",
	"SELECT a FROM",
	"SELECT a FROM t WHERE",
	"SELECT a t FROM t EXTRA garbage",
	"CREATE SOMETHING t",
	"SELECT a FROM t WHERE x = 'unterminated",
	"SELECT a FROM t WHERE x @ 1",
	"INSERT INTO t VALUES",
	"CREATE TABLE t (a FLOAT)",
	"SELECT CASE END FROM t",
	"SELECT a\nFROM t\nWHERE x ^^ 1",
	"SELECT a FROM t LIMIT abc",
	"SELECT a FROM t; trailing",
	"CREATE UNIQUE TABLE t (a INTEGER)",
	"CREATE UNIQUE VIEW v AS SELECT a FROM t",
	"CREATE TABLE t (a CHAR(0))",
	"SELECT DATE 'not-a-date' FROM t",
	"UPDATE t SET",
	"DELETE t WHERE a = 1",
}

// TestDifferentialNegatives locks the curated error corpus to the exact
// historical messages. These inputs all fail at (or within lookahead
// of) the first bad token, where the lazy lexer reports the same error
// the eager one did. (Inputs whose first parse error precedes a later
// lex error can legitimately report a different — earlier — error than
// the old whole-input-first lexer; none of these do.)
func TestDifferentialNegatives(t *testing.T) {
	for _, src := range negatives {
		_, oldErr := sqlparse.OldParse(src)
		_, newErr := sqlparse.Parse(src)
		if oldErr == nil || newErr == nil {
			t.Errorf("negative %q: old=%v new=%v (both must fail)", src, oldErr, newErr)
			continue
		}
		if oldErr.Error() != newErr.Error() {
			t.Errorf("error diverged on %q:\nold: %s\nnew: %s", src, oldErr, newErr)
		}
	}
}

// TestReusedParserMatchesPooledParse is the oracle for the pooled,
// detaching Parse: over the corpus and the negative corpus, its AST
// deep-equals a fresh Parser's and a reused Parser's, and its error reads
// the same. Arena recycling and exact sizing must both be invisible.
func TestReusedParserMatchesPooledParse(t *testing.T) {
	reused := sqlparse.NewParser()
	for _, src := range append(corpus(t), negatives...) {
		pooled, err := sqlparse.Parse(src)
		for name, p := range map[string]*sqlparse.Parser{"fresh": sqlparse.NewParser(), "reused": reused} {
			want, wantErr := p.Parse(src)
			switch {
			case (wantErr == nil) != (err == nil):
				t.Errorf("validity diverged on %q: %s=%v pooled=%v", src, name, wantErr, err)
			case err != nil && err.Error() != wantErr.Error():
				t.Errorf("error diverged on %q:\n%s: %s\npooled: %s", src, name, wantErr, err)
			case !reflect.DeepEqual(pooled, want):
				t.Errorf("AST diverged on %q: pooled against %s", src, name)
			}
		}
	}
}

// TestDetachKeepsASTValid parses, detaches, floods the parser with
// other statements, and verifies the detached AST did not change — the
// contract the plan cache and view catalog rely on.
func TestDetachKeepsASTValid(t *testing.T) {
	q1 := tpcd.Queries(1.0)[0].SQL[0]
	p := sqlparse.NewParser()
	kept, err := p.Parse(q1)
	if err != nil {
		t.Fatal(err)
	}
	p.Detach()
	want, _ := sqlparse.OldParse(q1)
	for _, q := range tpcd.Queries(1.0) {
		for _, src := range q.SQL {
			if _, err := p.Parse(src); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !reflect.DeepEqual(kept, want) {
		t.Fatal("detached AST was clobbered by later parses")
	}
}
