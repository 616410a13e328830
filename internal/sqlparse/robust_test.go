package sqlparse

import (
	"math/rand"
	"testing"
)

// corpus of valid statements used as mutation seeds.
var corpus = []string{
	`SELECT a, b FROM t WHERE a = 1`,
	`SELECT SUM(x * (1 - y)) FROM t GROUP BY z HAVING COUNT(*) > 2 ORDER BY z DESC LIMIT 5`,
	`SELECT * FROM a JOIN b ON a.x = b.x LEFT OUTER JOIN c ON b.y = c.y WHERE a.z IN (1,2,3)`,
	`INSERT INTO t (a, b) VALUES (1, 'x''y'), (?, ?)`,
	`UPDATE t SET a = a + 1 WHERE b BETWEEN 1 AND 2`,
	`DELETE FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.k)`,
	`CREATE TABLE t (a INTEGER PRIMARY KEY, b DECIMAL(15,2), c VARCHAR(40), d DATE)`,
	`CREATE UNIQUE INDEX i ON t (a, b)`,
	`SELECT CASE WHEN a > 0 THEN 'p' WHEN a < 0 THEN 'n' ELSE 'z' END FROM t`,
	`SELECT a FROM t WHERE x LIKE '%y%' AND d >= DATE '1995-01-01' AND q IS NOT NULL`,
	`CREATE VIEW v AS SELECT -a, (SELECT MAX(b) FROM u) FROM t WHERE NOT a IN (SELECT c FROM w)`,
}

// TestParserNeverPanics mutates valid statements at random byte positions
// and requires the parser to either succeed or return an error — never
// panic, never loop.
func TestParserNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	alphabet := []byte(`abz019'"()<>=,.*%_?;- ` + "\t\n")
	for trial := 0; trial < 20000; trial++ {
		src := []byte(corpus[r.Intn(len(corpus))])
		for k := 0; k < 1+r.Intn(4); k++ {
			switch pos := r.Intn(len(src)); r.Intn(3) {
			case 0: // substitute
				src[pos] = alphabet[r.Intn(len(alphabet))]
			case 1: // delete
				src = append(src[:pos], src[pos+1:]...)
			default: // insert
				src = append(src[:pos], append([]byte{alphabet[r.Intn(len(alphabet))]}, src[pos:]...)...)
			}
			if len(src) == 0 {
				src = []byte("S")
			}
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic on %q: %v", src, p)
				}
			}()
			_, _ = Parse(string(src))
		}()
	}
}

// TestCorpusParses keeps the seeds themselves valid.
func TestCorpusParses(t *testing.T) {
	for _, src := range corpus {
		if _, err := Parse(src); err != nil {
			t.Errorf("corpus statement failed: %q: %v", src, err)
		}
	}
}

// TestLexerTokenKinds scans a statement the way the parser does, one token
// on demand, to its end.
func TestLexerTokenKinds(t *testing.T) {
	p := NewParser()
	p.Reset()
	p.src = `SELECT x1 FROM t WHERE a <= 1.5 AND b <> 'q' OR c = ?`
	kinds := map[tokKind]int{}
	for tk := p.scan(); ; tk = p.scan() {
		if tk.kind == tkErr {
			t.Fatal(p.lexErr)
		}
		kinds[tk.kind]++
		if tk.kind == tkEOF {
			break
		}
	}
	if kinds[tkKeyword] == 0 || kinds[tkIdent] == 0 || kinds[tkNumber] == 0 ||
		kinds[tkString] == 0 || kinds[tkParam] == 0 || kinds[tkEOF] != 1 {
		t.Fatalf("token mix wrong: %v", kinds)
	}
}
