package cell

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/quickseed"
)

func TestValueConstructors(t *testing.T) {
	if v := Num(3.5); v.Kind != Number || v.Num != 3.5 {
		t.Errorf("Num: %+v", v)
	}
	if v := Str("x"); v.Kind != Text || v.Str != "x" {
		t.Errorf("Str: %+v", v)
	}
	if v := Boolean(true); v.Kind != Bool || v.Num != 1 {
		t.Errorf("Boolean: %+v", v)
	}
	if v := Errorf(ErrNA); !v.IsError() || v.Str != ErrNA {
		t.Errorf("Errorf: %+v", v)
	}
	if !(Value{}).IsEmpty() {
		t.Error("zero Value should be empty")
	}
}

func TestAsNumber(t *testing.T) {
	cases := []struct {
		v    Value
		want float64
		ok   bool
	}{
		{Num(2.5), 2.5, true},
		{Boolean(true), 1, true},
		{Boolean(false), 0, true},
		{Str("42"), 42, true},
		{Str("4.5e2"), 450, true},
		{Str("abc"), 0, false},
		{Value{}, 0, true},
		{Errorf(ErrNA), 0, false},
	}
	for _, c := range cases {
		got, ok := c.v.AsNumber()
		if got != c.want || ok != c.ok {
			t.Errorf("AsNumber(%+v) = %v,%v want %v,%v", c.v, got, ok, c.want, c.ok)
		}
	}
}

func TestAsBool(t *testing.T) {
	cases := []struct {
		v    Value
		want bool
		ok   bool
	}{
		{Boolean(true), true, true},
		{Num(0), false, true},
		{Num(-2), true, true},
		{Str("TRUE"), true, true},
		{Str("false"), false, true},
		{Str("yes"), false, false},
		{Value{}, false, true},
	}
	for _, c := range cases {
		got, ok := c.v.AsBool()
		if got != c.want || ok != c.ok {
			t.Errorf("AsBool(%+v) = %v,%v want %v,%v", c.v, got, ok, c.want, c.ok)
		}
	}
}

func TestAsString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Num(2.5), "2.5"},
		{Num(10000), "10000"},
		{Str("hi"), "hi"},
		{Boolean(true), "TRUE"},
		{Boolean(false), "FALSE"},
		{Errorf(ErrDiv0), "#DIV/0!"},
		{Value{}, ""},
	}
	for _, c := range cases {
		if got := c.v.AsString(); got != c.want {
			t.Errorf("AsString(%+v) = %q want %q", c.v, got, c.want)
		}
	}
}

func TestEqualCaseInsensitive(t *testing.T) {
	if !Str("STORM").Equal(Str("storm")) {
		t.Error("text equality should be case-insensitive (as = in spreadsheets)")
	}
	if Str("storm").Equal(Str("stormy")) {
		t.Error("different text should differ")
	}
	if !Num(1).Equal(Boolean(true)) {
		t.Error("number 1 should equal TRUE")
	}
	if Num(1).Equal(Str("1")) {
		t.Error("number should not equal text in spreadsheet = semantics")
	}
	if !(Value{}).Equal(Value{}) {
		t.Error("empty equals empty")
	}
}

func TestCompareOrdering(t *testing.T) {
	// numbers < text < bools < errors < empty
	ordered := []Value{Num(-5), Num(3), Str("apple"), Str("BANANA"), Boolean(false), Boolean(true), Errorf(ErrNA), {}}
	for i := 0; i < len(ordered); i++ {
		for j := 0; j < len(ordered); j++ {
			got := ordered[i].Compare(ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if sign(got) != want {
				t.Errorf("Compare(%v, %v) = %d, want sign %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	gen := func(k uint8, n float64, s string) Value {
		switch k % 4 {
		case 0:
			return Num(n)
		case 1:
			return Str(s)
		case 2:
			return Boolean(n > 0)
		default:
			return Value{}
		}
	}
	f := func(k1, k2 uint8, n1, n2 float64, s1, s2 string) bool {
		if math.IsNaN(n1) || math.IsNaN(n2) {
			return true
		}
		a, b := gen(k1, n1, s1), gen(k2, n2, s2)
		return sign(a.Compare(b)) == -sign(b.Compare(a))
	}
	if err := quick.Check(f, quickseed.Config(t, 0)); err != nil {
		t.Error(err)
	}
}

func TestCompareTransitivityProperty(t *testing.T) {
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
			return true
		}
		va, vb, vc := Num(a), Num(b), Num(c)
		if va.Compare(vb) <= 0 && vb.Compare(vc) <= 0 {
			return va.Compare(vc) <= 0
		}
		return true
	}
	if err := quick.Check(f, quickseed.Config(t, 0)); err != nil {
		t.Error(err)
	}
}

func TestEqualFoldCompareFoldConsistency(t *testing.T) {
	f := func(a, b string) bool {
		eq := Str(a).Equal(Str(b))
		cmp := Str(a).Compare(Str(b))
		// ASCII-only fold: equality and zero-compare must agree for ASCII.
		if isASCII(a) && isASCII(b) {
			return eq == (cmp == 0)
		}
		return true
	}
	if err := quick.Check(f, quickseed.Config(t, 0)); err != nil {
		t.Error(err)
	}
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		Empty: "empty", Number: "number", Text: "text", Bool: "bool", ErrorVal: "error",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q want %q", k, k.String(), want)
		}
	}
}
