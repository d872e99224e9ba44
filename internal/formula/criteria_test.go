package formula

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cell"
	"repro/internal/quickseed"
)

func TestCriteriaNumeric(t *testing.T) {
	cases := []struct {
		crit cell.Value
		v    cell.Value
		want bool
	}{
		{cell.Num(1), cell.Num(1), true},
		{cell.Num(1), cell.Num(2), false},
		{cell.Num(1), cell.Boolean(true), true}, // 1 matches TRUE
		{cell.Num(1), cell.Str("1"), true},      // numeric text matches
		{cell.Num(1), cell.Str("x"), false},
		{cell.Num(1), cell.Value{}, false}, // empty never matches a number
		{cell.Str(">5"), cell.Num(6), true},
		{cell.Str(">5"), cell.Num(5), false},
		{cell.Str(">=5"), cell.Num(5), true},
		{cell.Str("<5"), cell.Num(4), true},
		{cell.Str("<=5"), cell.Num(6), false},
		{cell.Str("<>5"), cell.Num(6), true},
		{cell.Str("<>5"), cell.Num(5), false},
		{cell.Str("<>5"), cell.Str("text"), true}, // non-numeric matches <>number
		{cell.Str("=5"), cell.Num(5), true},
		{cell.Str(">5"), cell.Str("abc"), false},
	}
	for _, c := range cases {
		crit := CompileCriterion(c.crit)
		if got := crit.Match(c.v); got != c.want {
			t.Errorf("criterion %+v match %+v = %v, want %v", c.crit, c.v, got, c.want)
		}
	}
}

func TestCriteriaText(t *testing.T) {
	cases := []struct {
		crit string
		v    cell.Value
		want bool
	}{
		{"STORM", cell.Str("storm"), true}, // case-insensitive
		{"STORM", cell.Str("storms"), false},
		{"STORM*", cell.Str("storms"), true},
		{"*ORM", cell.Str("storm"), true}, // "storm" ends in "orm"
		{"*ORM", cell.Str("storms"), false},
		{"?torm", cell.Str("storm"), true},
		{"s?orm", cell.Str("storm"), true},
		{"s*m", cell.Str("storm"), true},
		{"s*m", cell.Str("sam"), true},
		{"s*m", cell.Str("sun"), false},
		{"<>STORM", cell.Str("rain"), true},
		{"<>STORM", cell.Str("storm"), false},
		{"<>ST*", cell.Str("storm"), false},
		{"<>ST*", cell.Str("rain"), true},
		{"~*lit", cell.Str("*lit"), true}, // escaped wildcard
		{"~*lit", cell.Str("xlit"), false},
		{"", cell.Value{}, true}, // empty criterion matches empty
		{"", cell.Str("x"), false},
	}
	for _, c := range cases {
		crit := CompileCriterion(cell.Str(c.crit))
		if got := crit.Match(c.v); got != c.want {
			t.Errorf("criterion %q match %+v = %v, want %v", c.crit, c.v, got, c.want)
		}
	}
}

func TestCriteriaTextOrderingOperators(t *testing.T) {
	crit := CompileCriterion(cell.Str(">mango"))
	if !crit.Match(cell.Str("papaya")) || crit.Match(cell.Str("apple")) {
		t.Error("lexicographic > criterion misbehaved")
	}
}

func TestWildMatchMatchesNaive(t *testing.T) {
	// Property: wildMatch agrees with a naive recursive matcher on small
	// alphabets.
	var naive func(p, s string) bool
	naive = func(p, s string) bool {
		if p == "" {
			return s == ""
		}
		switch p[0] {
		case '*':
			for i := 0; i <= len(s); i++ {
				if naive(p[1:], s[i:]) {
					return true
				}
			}
			return false
		case '?':
			return s != "" && naive(p[1:], s[1:])
		default:
			return s != "" && p[0] == s[0] && naive(p[1:], s[1:])
		}
	}
	alphabet := []byte("ab*?")
	strAlphabet := []byte("ab")
	gen := func(seed uint32, alpha []byte, n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			seed = seed*1664525 + 1013904223
			b.WriteByte(alpha[seed>>16&0xffff%uint32(len(alpha))])
		}
		return b.String()
	}
	f := func(seed uint32, pn, sn uint8) bool {
		p := gen(seed, alphabet, int(pn%6))
		s := gen(seed^0xdead, strAlphabet, int(sn%8))
		return wildMatch(p, s) == naive(p, s)
	}
	if err := quick.Check(f, quickseed.Config(t, 2000)); err != nil {
		t.Error(err)
	}
}

func TestCriterionShape(t *testing.T) {
	op, v, eq := CompileCriterion(cell.Num(5)).Shape()
	if op != OpEQ || !eq || v.Num != 5 {
		t.Errorf("Shape(5) = %v %v %v", op, v, eq)
	}
	op, v, eq = CompileCriterion(cell.Str(">=10")).Shape()
	if op != OpGE || eq || v.Num != 10 {
		t.Errorf("Shape(>=10) = %v %v %v", op, v, eq)
	}
	_, _, eq = CompileCriterion(cell.Str("st*")).Shape()
	if eq {
		t.Error("wildcard criterion is not an index-answerable equality")
	}
}

func TestCriterionMatchesCountifSemantics(t *testing.T) {
	// Cross-check Criterion against COUNTIF over a generated column.
	src := make(mapSource)
	vals := []cell.Value{
		cell.Num(0), cell.Num(1), cell.Num(1), cell.Str("1"),
		cell.Str("storm"), cell.Boolean(true), {},
	}
	for i, v := range vals {
		src[cell.Addr{Row: i, Col: 0}.A1()] = v
	}
	for _, critText := range []string{"1", ">0", "storm", "<>storm", "<1"} {
		crit := CompileCriterion(cell.Str(critText))
		want := 0
		for _, v := range vals {
			if crit.Match(v) {
				want++
			}
		}
		f := fmt.Sprintf("=COUNTIF(A1:A%d,%q)", len(vals), critText)
		got := evalText(t, src, f)
		if int(got.Num) != want {
			t.Errorf("%s = %v, want %d", f, got.Num, want)
		}
	}
}

// colSource serves column A from a slice without allocating.
type colSource []cell.Value

func (c colSource) Value(a cell.Addr) cell.Value {
	if a.Col == 0 && a.Row < len(c) {
		return c[a.Row]
	}
	return cell.Value{}
}

// TestLiteralCriteriaCompiledOnce: a text-literal criterion is compiled by
// Compile, and evaluations served from it give the values a per-call
// compile gives while allocating less.
func TestLiteralCriteriaCompiledOnce(t *testing.T) {
	src := colSource{cell.Str("storm"), cell.Num(3), cell.Str("rain"), cell.Str("STORM")}
	for _, text := range []string{
		`=COUNTIF(A1:A4,"STORM")`,
		`=SUMIF(A1:A4,"<>rain",A1:A4)`,
		`=AVERAGEIF(A1:A4,"<>RAIN")`,
		`=COUNTIFS(A1:A4,"st*",A1:A4,"<>x")`,
		`=SUMIFS(A1:A4,A1:A4,"<>STORM")`,
	} {
		c := MustCompile(text)
		if len(c.crits) == 0 {
			t.Fatalf("%s: no criterion compiled ahead", text)
		}
		uncached := *c
		uncached.crits = nil
		env := &Env{Src: src}
		if got, want := Eval(c, env), Eval(&uncached, env); got != want {
			t.Errorf("%s = %v, per-call compile gives %v", text, got, want)
		}
		cached := testing.AllocsPerRun(50, func() { Eval(c, env) })
		perCall := testing.AllocsPerRun(50, func() { Eval(&uncached, env) })
		if cached >= perCall {
			t.Errorf("%s: %.0f allocs per evaluation, %.0f with a per-call compile", text, cached, perCall)
		}
	}
}

// TestCriterionMatchFoldsLikeToLower holds Match's case folding to the
// strings.ToLower comparison it replaces, for every text operator, over
// ASCII, non-ASCII and invalid UTF-8 text on both sides.
func TestCriterionMatchFoldsLikeToLower(t *testing.T) {
	old := func(op BinOp, s, pat string) bool {
		s = strings.ToLower(s)
		switch op {
		case OpEQ:
			return s == pat
		case OpNE:
			return s != pat
		case OpLT:
			return s < pat
		case OpLE:
			return s <= pat
		case OpGT:
			return s > pat
		}
		return s >= pat
	}
	texts := []string{
		"", "a", "A", "storm", "STORM", "Storm", "STORMS", "STOR", "stOrm",
		"[", "@", "_", "Zebra", "zebra", "ÉCOLE", "école", "Ünïcode",
		"İstanbul", "ẞ", "KELVIN", "Kelvin", "\xff", "A\xffB", "日本",
	}
	ops := []struct {
		prefix string
		op     BinOp
	}{{"=", OpEQ}, {"<>", OpNE}, {"<", OpLT}, {"<=", OpLE}, {">", OpGT}, {">=", OpGE}}
	for _, pat := range texts {
		for _, o := range ops {
			crit := CompileCriterion(cell.Str(o.prefix + pat))
			if crit.isNum || crit.hasWild {
				continue
			}
			for _, s := range texts {
				v := cell.Str(s)
				if o.op == OpNE && v.IsEmpty() {
					continue // "<>text" never counts blanks
				}
				if got, want := crit.Match(v), old(o.op, s, crit.text); got != want {
					t.Errorf("%q matched against %q: %v, ToLower comparison gives %v", o.prefix+pat, s, got, want)
				}
			}
		}
	}
	// Wildcards fold the same way.
	for _, c := range []struct {
		pat, s string
		want   bool
	}{{"ST*M", "storm", true}, {"st?rm", "STORM", true}, {"é*", "ÉCOLE", true}, {"s~*", "S*", true}, {"s~*", "SX", false}} {
		if got := CompileCriterion(cell.Str(c.pat)).Match(cell.Str(c.s)); got != c.want {
			t.Errorf("%q matched against %q: %v, want %v", c.pat, c.s, got, c.want)
		}
	}
}

// TestCriterionMatchAllocatesNothing: a text criterion tests upper-case
// ASCII text without copying it.
func TestCriterionMatchAllocatesNothing(t *testing.T) {
	crit := CompileCriterion(cell.Str("STORM"))
	for _, s := range []string{"STORM", "Rain", "storm"} {
		v := cell.Str(s)
		if n := testing.AllocsPerRun(100, func() { crit.Match(v) }); n != 0 {
			t.Errorf("Match(%q) allocates %.0f times", s, n)
		}
	}
}
