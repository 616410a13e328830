package sqlparse

import "strings"

// The lexer tokenizes on demand from the Parser's cursor — there is no
// eager []token pass and, on the hot path, no per-token allocation:
//
//   - keywords are recognized case-insensitively against a
//     length-bucketed table and carry the canonical constant spelling;
//   - identifiers are upper-cased into a reused scratch buffer and
//     interned, so each distinct ident is allocated once per Parser
//     lifetime (the intern map survives Reset and the Parse pool);
//   - numbers and escape-free strings are views into the source text
//     (substringing a Go string shares its bytes);
//   - punctuation carries canonical constant spellings from a table.

// tokKind classifies lexer tokens.
type tokKind int

const (
	tkEOF tokKind = iota
	tkIdent
	tkKeyword
	tkNumber
	tkString
	tkPunct // single/double-char operators and separators
	tkParam // ?
	tkErr   // lexing failed; the error is sticky in Parser.lexErr
)

type token struct {
	kind tokKind
	text string // keywords and idents upper-cased; punct literal
	pos  int
}

// keywordList is the reserved-word set; identifiers matching these
// case-insensitively lex as tkKeyword with the canonical spelling.
var keywordList = []string{
	"SELECT", "DISTINCT", "FROM", "WHERE",
	"GROUP", "BY", "HAVING", "ORDER", "ASC",
	"DESC", "LIMIT", "AS", "AND", "OR",
	"NOT", "BETWEEN", "IN", "EXISTS", "IS",
	"NULL", "LIKE", "CASE", "WHEN", "THEN",
	"ELSE", "END", "JOIN", "INNER", "LEFT",
	"OUTER", "ON", "CREATE", "TABLE", "INDEX",
	"UNIQUE", "VIEW", "DROP", "INSERT", "INTO",
	"VALUES", "UPDATE", "SET", "DELETE",
	"PRIMARY", "KEY", "DATE", "INTEGER", "INT",
	"BIGINT", "DECIMAL", "CHAR", "VARCHAR",
}

// kwBuckets groups keywords by byte length so a lookup fold-compares
// only the handful of candidates that could possibly match.
var kwBuckets [16][]string

// upperTab folds ASCII to upper case; all other bytes map to
// themselves.
var upperTab [256]byte

// punctText maps single punctuation bytes to canonical one-character
// strings (string(c) would allocate).
var punctText [256]string

func init() {
	for i := range upperTab {
		upperTab[i] = byte(i)
	}
	for c := byte('a'); c <= 'z'; c++ {
		upperTab[c] = c - 'a' + 'A'
	}
	for _, kw := range keywordList {
		kwBuckets[len(kw)] = append(kwBuckets[len(kw)], kw)
	}
	for _, c := range []byte{'(', ')', ',', '.', '*', '+', '-', '/', '=', '<', '>', ';'} {
		punctText[c] = string([]byte{c})
	}
}

// keywordLookup returns the canonical spelling of w if it is a keyword.
func keywordLookup(w string) (string, bool) {
	if len(w) >= len(kwBuckets) {
		return "", false
	}
	for _, kw := range kwBuckets[len(w)] {
		if foldEq(w, kw) {
			return kw, true
		}
	}
	return "", false
}

// foldEq reports whether w equals upper case-insensitively; upper must
// already be upper-cased and the same length as w.
func foldEq(w, upper string) bool {
	for i := 0; i < len(w); i++ {
		if upperTab[w[i]] != upper[i] {
			return false
		}
	}
	return true
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// scan produces the next token. After a lex failure it keeps returning
// tkErr at the failure position (the parse surfaces Parser.lexErr), so
// lookahead past a bad byte is harmless.
func (p *Parser) scan() token {
	if p.lexErr != nil {
		return token{kind: tkErr, pos: p.lexErr.Pos}
	}
	src := p.src
	i := p.lpos
	// Skip whitespace and -- comments.
	for i < len(src) {
		c := src[i]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			i++
			continue
		}
		if c == '-' && i+1 < len(src) && src[i+1] == '-' {
			for i < len(src) && src[i] != '\n' {
				i++
			}
			continue
		}
		break
	}
	if i >= len(src) {
		p.lpos = i
		return token{kind: tkEOF, pos: i}
	}
	start := i
	c := src[i]
	switch {
	case isIdentStart(c):
		i++
		for i < len(src) && isIdentChar(src[i]) {
			i++
		}
		p.lpos = i
		word := src[start:i]
		if kw, ok := keywordLookup(word); ok {
			return token{kind: tkKeyword, text: kw, pos: start}
		}
		return token{kind: tkIdent, text: p.internUpper(word), pos: start}
	case isDigit(c) || (c == '.' && i+1 < len(src) && isDigit(src[i+1])):
		i++
		for i < len(src) && (isDigit(src[i]) || src[i] == '.') {
			i++
		}
		p.lpos = i
		return token{kind: tkNumber, text: src[start:i], pos: start}
	case c == '\'':
		i++
		escaped := false
		for {
			if i >= len(src) {
				return p.lexFail(lexErrorf(src, start, "unterminated string"))
			}
			if src[i] == '\'' {
				if i+1 < len(src) && src[i+1] == '\'' {
					escaped = true
					i += 2
					continue
				}
				i++
				break
			}
			i++
		}
		p.lpos = i
		text := src[start+1 : i-1]
		if escaped {
			text = strings.ReplaceAll(text, "''", "'")
		}
		return token{kind: tkString, text: text, pos: start}
	case c == '?':
		p.lpos = i + 1
		return token{kind: tkParam, text: "?", pos: start}
	default:
		if i+1 < len(src) {
			switch src[i : i+2] {
			case "<=":
				p.lpos = i + 2
				return token{kind: tkPunct, text: "<=", pos: start}
			case ">=":
				p.lpos = i + 2
				return token{kind: tkPunct, text: ">=", pos: start}
			case "<>", "!=":
				p.lpos = i + 2
				return token{kind: tkPunct, text: "<>", pos: start}
			}
		}
		if t := punctText[c]; t != "" {
			p.lpos = i + 1
			return token{kind: tkPunct, text: t, pos: start}
		}
		return p.lexFail(lexErrorf(src, start, "unexpected character %q", c))
	}
}

// lexFail records the sticky lex error and returns its tkErr token.
func (p *Parser) lexFail(e *Error) token {
	p.lexErr = e
	return token{kind: tkErr, pos: e.Pos}
}

// internMax caps the ident intern map so hostile or fuzzed input cannot
// grow a pooled Parser without bound; idents past the cap are allocated
// per token, which only costs speed.
const internMax = 4096

// internUpper returns the canonical upper-cased allocation of word,
// folding through a reused scratch buffer so a warm parse allocates
// nothing.
func (p *Parser) internUpper(word string) string {
	buf := p.upperBuf[:0]
	for i := 0; i < len(word); i++ {
		buf = append(buf, upperTab[word[i]])
	}
	p.upperBuf = buf
	if s, ok := p.intern[string(buf)]; ok {
		return s
	}
	s := string(buf)
	if len(p.intern) < internMax {
		p.intern[s] = s
	}
	return s
}
