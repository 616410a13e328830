package val

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KNull: "NULL", KInt: "INTEGER", KFloat: "DECIMAL", KStr: "VARCHAR", KDate: "DATE",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if v := Int(42); v.K != KInt || v.AsInt() != 42 || v.AsFloat() != 42 {
		t.Errorf("Int(42) = %v", v)
	}
	if v := Float(2.5); v.K != KFloat || v.AsFloat() != 2.5 || v.AsInt() != 2 {
		t.Errorf("Float(2.5) = %v", v)
	}
	if v := Str("abc"); v.K != KStr || v.AsStr() != "abc" {
		t.Errorf("Str = %v", v)
	}
	if !Null.IsNull() || Null.IsTrue() {
		t.Error("Null must be null and not true")
	}
	if !Bool(true).IsTrue() || Bool(false).IsTrue() {
		t.Error("Bool round trip failed")
	}
	if Str("7 ").AsInt() != 7 {
		t.Error("string to int coercion should trim spaces")
	}
}

func TestDates(t *testing.T) {
	d, err := ParseDate("1995-03-15")
	if err != nil {
		t.Fatal(err)
	}
	if d.K != KDate {
		t.Fatalf("ParseDate kind = %v", d.K)
	}
	if got := d.AsStr(); got != "1995-03-15" {
		t.Errorf("round trip = %q", got)
	}
	if DateFromYMD(1995, 3, 15) != d {
		t.Error("DateFromYMD disagrees with ParseDate")
	}
	if _, err := ParseDate("not-a-date"); err == nil {
		t.Error("ParseDate should reject garbage")
	}
	// Date arithmetic: shipdate + 90 days style.
	d2 := Add(d, Int(90))
	if d2.K != KDate || d2.AsStr() != "1995-06-13" {
		t.Errorf("date+90 = %v", d2)
	}
	if Sub(d2, Int(90)) != d {
		t.Error("date-90 should undo date+90")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Int(2), Float(2.5), -1},
		{Float(2.5), Int(2), 1},
		{Float(2.0), Int(2), 0},
		{Str("a"), Str("b"), -1},
		{Str("a "), Str("a"), 0}, // CHAR semantics: trailing blanks ignored
		{Null, Int(0), -1},
		{Int(0), Null, 1},
		{Null, Null, 0},
		{DateFromYMD(1995, 1, 1), DateFromYMD(1996, 1, 1), -1},
		{DateFromYMD(1995, 1, 1), Int(9131), 0}, // dates coerce numerically
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLikePatterns(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h__xo", false},
		{"hello", "", false},
		{"", "%", true},
		{"", "_", false},
		{"abc", "%%%", true},
		{"a%b", "a%b", true}, // % in pattern still matches literally-ish
		{"green almond", "%green%", true},
		{"MEDIUM POLISHED TIN", "MEDIUM POLISHED%", true},
		{"PROMO BURNISHED TIN", "PROMO%", true},
		{"aXbYc", "a_b_c", true},
	}
	for _, c := range cases {
		if got := Like(c.s, c.pat); got != c.want {
			t.Errorf("Like(%q, %q) = %v, want %v", c.s, c.pat, got, c.want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	if v := Add(Int(2), Int(3)); v != Int(5) {
		t.Errorf("2+3 = %v", v)
	}
	if v := Mul(Int(2), Float(1.5)); v.AsFloat() != 3.0 {
		t.Errorf("2*1.5 = %v", v)
	}
	if v := Div(Int(7), Int(2)); v.AsFloat() != 3.5 {
		t.Errorf("7/2 = %v (integer division must promote)", v)
	}
	if v := Div(Int(1), Int(0)); !v.IsNull() {
		t.Errorf("1/0 = %v, want NULL", v)
	}
	if v := Add(Null, Int(1)); !v.IsNull() {
		t.Errorf("NULL+1 = %v, want NULL", v)
	}
	if v := Neg(Float(2.5)); v.AsFloat() != -2.5 {
		t.Errorf("-2.5 = %v", v)
	}
	if v := Sub(Int(10), Int(4)); v != Int(6) {
		t.Errorf("10-4 = %v", v)
	}
}

func TestArithmeticProperties(t *testing.T) {
	commutative := func(a, b int32) bool {
		x, y := Int(int64(a)), Int(int64(b))
		return Add(x, y) == Add(y, x) && Mul(x, y) == Mul(y, x)
	}
	if err := quick.Check(commutative, nil); err != nil {
		t.Error(err)
	}
	compareAntisym := func(a, b float64) bool {
		return Compare(Float(a), Float(b)) == -Compare(Float(b), Float(a))
	}
	if err := quick.Check(compareAntisym, nil); err != nil {
		t.Error(err)
	}
}

func TestValueString(t *testing.T) {
	if got := Null.String(); got != "NULL" {
		t.Errorf("Null.String() = %q", got)
	}
	if got := Str("x").String(); got != `"x"` {
		t.Errorf("Str.String() = %q", got)
	}
	if got := Int(-3).String(); got != "-3" {
		t.Errorf("Int.String() = %q", got)
	}
}

func randomValue(r *rand.Rand) Value {
	switch r.Intn(4) {
	case 0:
		return Int(int64(r.Intn(2000) - 1000))
	case 1:
		return Float(float64(r.Intn(2000)-1000) + 0.25)
	case 2:
		const letters = "abcdefghij"
		n := r.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[r.Intn(len(letters))]
		}
		return Str(string(b))
	default:
		return Date(int64(r.Intn(20000)))
	}
}
