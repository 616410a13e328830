// Package val defines the value model shared by the storage engine, the SQL
// layer, the TPC-D generator and the R/3 application-system simulator:
// typed scalar values, comparison and arithmetic with numeric coercion,
// order-preserving key encoding for B+-tree indexes, and a fixed-width row
// codec whose on-page footprint matches declared column widths (so that
// database sizes — the subject of the paper's Table 2 — reflect schema
// design, not Go object overhead).
//
// Who owns a CHAR value's bytes. A Value does not: S is a string header, and
// where its bytes live depends on where the value came from. One decoded from
// an encoded row (ColSet.Decode, RowCodec.Decode) is a view of that row's
// bytes — for a heap row, of the immutable page image — so reading a CHAR
// column copies nothing and allocates nothing, per row scanned or otherwise;
// substrings and trimmed forms of it are views of the same bytes. That is
// always safe (nobody writes an image a reader was handed) but a view keeps
// its whole source alive, so the rule is about lifetime: work that ends soon
// — a statement, a scan callback — passes views around freely, and whatever
// outlives that work gives the values storage of their own first, in bulk
// with a Slab or one at a time with strings.Clone. Values built from SQL
// text, parameters or expressions own their strings as any Go value does.
package val

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates value types.
type Kind int

// Supported value kinds.
const (
	KNull Kind = iota
	KInt
	KFloat
	KStr
	KDate // days since 1970-01-01
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KNull:
		return "NULL"
	case KInt:
		return "INTEGER"
	case KFloat:
		return "DECIMAL"
	case KStr:
		return "VARCHAR"
	case KDate:
		return "DATE"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Value is a scalar SQL value. The zero Value is NULL.
type Value struct {
	K Kind
	I int64 // KInt, KDate
	F float64
	S string // KStr; may be a view of an encoded row (see the package comment)
}

// Null is the SQL NULL value.
var Null = Value{}

// Int returns an integer value.
func Int(i int64) Value { return Value{K: KInt, I: i} }

// Float returns a decimal value.
func Float(f float64) Value { return Value{K: KFloat, F: f} }

// Str returns a string value.
func Str(s string) Value { return Value{K: KStr, S: s} }

// Date returns a date value from days since the Unix epoch.
func Date(days int64) Value { return Value{K: KDate, I: days} }

// Bool encodes a boolean as the integers 0/1, the engine's boolean
// representation.
func Bool(b bool) Value {
	if b {
		return Int(1)
	}
	return Int(0)
}

// DateFromYMD returns the date value for the given calendar day.
func DateFromYMD(y, m, d int) Value {
	t := time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC)
	return Date(t.Unix() / 86400)
}

// ParseDate parses "YYYY-MM-DD".
func ParseDate(s string) (Value, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return Null, fmt.Errorf("val: bad date %q: %w", s, err)
	}
	return Date(t.Unix() / 86400), nil
}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.K == KNull }

// IsTrue reports whether v is a non-null, non-zero value — SQL three-valued
// logic collapses to "unknown is not true".
func (v Value) IsTrue() bool {
	switch v.K {
	case KInt, KDate:
		return v.I != 0
	case KFloat:
		return v.F != 0
	case KStr:
		return v.S != ""
	default:
		return false
	}
}

// AsInt returns the value as an int64, truncating floats.
func (v Value) AsInt() int64 {
	switch v.K {
	case KInt, KDate:
		return v.I
	case KFloat:
		return int64(v.F)
	case KStr:
		n, _ := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64)
		return n
	default:
		return 0
	}
}

// AsFloat returns the value as a float64.
func (v Value) AsFloat() float64 {
	switch v.K {
	case KInt, KDate:
		return float64(v.I)
	case KFloat:
		return v.F
	case KStr:
		f, _ := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
		return f
	default:
		return 0
	}
}

// AsStr returns the value rendered as a string (dates as YYYY-MM-DD).
func (v Value) AsStr() string {
	switch v.K {
	case KStr:
		return v.S
	case KInt:
		return strconv.FormatInt(v.I, 10)
	case KFloat:
		return strconv.FormatFloat(v.F, 'f', -1, 64)
	case KDate:
		return time.Unix(v.I*86400, 0).UTC().Format("2006-01-02")
	default:
		return ""
	}
}

// String implements fmt.Stringer; NULL renders as "NULL" and strings are
// quoted, for diagnostics.
func (v Value) String() string {
	switch v.K {
	case KNull:
		return "NULL"
	case KStr:
		return strconv.Quote(v.S)
	default:
		return v.AsStr()
	}
}

// numeric reports whether the kind participates in numeric coercion.
func numeric(k Kind) bool { return k == KInt || k == KFloat || k == KDate }

// Compare orders a before/equal/after b, returning -1/0/+1. NULL sorts
// before every non-null value (the engine's NULLS FIRST convention).
// Numeric kinds (including dates) compare after coercion; strings compare
// byte-wise after right-trimming, matching fixed-width CHAR semantics.
func Compare(a, b Value) int {
	if a.K == KNull || b.K == KNull {
		switch {
		case a.K == KNull && b.K == KNull:
			return 0
		case a.K == KNull:
			return -1
		default:
			return 1
		}
	}
	if numeric(a.K) && numeric(b.K) {
		if a.K == KFloat || b.K == KFloat {
			af, bf := a.AsFloat(), b.AsFloat()
			switch {
			case af < bf:
				return -1
			case af > bf:
				return 1
			default:
				return 0
			}
		}
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		default:
			return 0
		}
	}
	as := strings.TrimRight(a.AsStr(), " ")
	bs := strings.TrimRight(b.AsStr(), " ")
	return strings.Compare(as, bs)
}

// Equal reports whether a and b compare equal (NULL equals NULL here; SQL
// predicate evaluation handles unknown separately).
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Like reports whether s matches the SQL LIKE pattern pat: % matches any
// run of bytes, _ any single byte. Both the engine and the application
// server's client-side filter match with it.
func Like(s, pat string) bool {
	// Iterative two-pointer algorithm with backtracking on the last %.
	si, pi := 0, 0
	star, mark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pat) && (pat[pi] == '_' || pat[pi] == s[si]):
			si++
			pi++
		case pi < len(pat) && pat[pi] == '%':
			star, mark = pi, si
			pi++
		case star >= 0:
			pi = star + 1
			mark++
			si = mark
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}

type arithOp int

const (
	opAdd arithOp = iota
	opSub
	opMul
	opDiv
)

func arith(a, b Value, op arithOp) Value {
	if a.IsNull() || b.IsNull() {
		return Null
	}
	// Date ± integer days stays a date.
	if a.K == KDate && b.K == KInt && (op == opAdd || op == opSub) {
		if op == opAdd {
			return Date(a.I + b.I)
		}
		return Date(a.I - b.I)
	}
	if a.K == KInt && b.K == KInt {
		switch op {
		case opAdd:
			return Int(a.I + b.I)
		case opSub:
			return Int(a.I - b.I)
		case opMul:
			return Int(a.I * b.I)
		}
	}
	af, bf := a.AsFloat(), b.AsFloat()
	switch op {
	case opAdd:
		return Float(af + bf)
	case opSub:
		return Float(af - bf)
	case opMul:
		return Float(af * bf)
	default:
		if bf == 0 {
			return Null
		}
		return Float(af / bf)
	}
}

// Add returns a+b with numeric coercion; date + int adds days.
func Add(a, b Value) Value { return arith(a, b, opAdd) }

// Sub returns a-b with numeric coercion; date - int subtracts days.
func Sub(a, b Value) Value { return arith(a, b, opSub) }

// Mul returns a*b with numeric coercion.
func Mul(a, b Value) Value { return arith(a, b, opMul) }

// Div returns a/b as a decimal; division by zero yields NULL.
func Div(a, b Value) Value { return arith(a, b, opDiv) }

// Neg returns -a.
func Neg(a Value) Value {
	switch a.K {
	case KInt:
		return Int(-a.I)
	case KFloat:
		return Float(-a.F)
	default:
		return Null
	}
}
