package workload

import (
	"testing"
	"testing/quick"

	"repro/internal/cell"
	"repro/internal/quickseed"
)

func TestWeatherShape(t *testing.T) {
	wb := Weather(Spec{Rows: 100})
	s := wb.First()
	if s == nil || s.Name != "weather" {
		t.Fatal("missing sheet")
	}
	if s.Rows() != 101 || s.Cols() != NumCols {
		t.Fatalf("dims = %dx%d", s.Rows(), s.Cols())
	}
	// Header row.
	if s.Value(cell.Addr{Row: 0, Col: ColID}).Str != "id" {
		t.Error("header id")
	}
	if s.Value(cell.Addr{Row: 0, Col: ColState}).Str != "state" {
		t.Error("header state")
	}
	// ID column: A_i = i in display terms (data row 1 shows id 2, §4.3.4).
	for dr := 1; dr <= 100; dr++ {
		if v := s.Value(cell.Addr{Row: dr, Col: ColID}); v.Num != float64(dr+1) {
			t.Fatalf("id at data row %d = %v", dr, v.Num)
		}
	}
	// State column values are valid states.
	valid := make(map[string]bool)
	for _, st := range States {
		valid[st] = true
	}
	for dr := 1; dr <= 100; dr++ {
		if st := s.Value(cell.Addr{Row: dr, Col: ColState}).Str; !valid[st] {
			t.Fatalf("bad state %q", st)
		}
	}
}

func TestWeatherValueOnlyMatchesFormulaValue(t *testing.T) {
	// The Value-only variant must display exactly what the Formula-value
	// variant computes (§3.2 "save as value-only spreadsheet").
	fwb := Weather(Spec{Rows: 200, Formulas: true})
	vwb := Weather(Spec{Rows: 200, Formulas: false})
	fs, vs := fwb.First(), vwb.First()
	if fs.FormulaCount() != 200*NumEvents {
		t.Fatalf("formula count = %d", fs.FormulaCount())
	}
	if vs.FormulaCount() != 0 {
		t.Fatal("value-only must carry no formulae")
	}
	for dr := 1; dr <= 200; dr++ {
		for i := 0; i < NumEvents; i++ {
			a := cell.Addr{Row: dr, Col: ColFormula0 + i}
			want := 0.0
			if EventAt(DefaultSeed, dr, i) == Keywords[i] {
				want = 1
			}
			if got := vs.Value(a); got.Num != want {
				t.Fatalf("V %s = %v, want %v", a, got.Num, want)
			}
			fc, ok := fs.Formula(a)
			if !ok {
				t.Fatalf("F %s missing formula", a)
			}
			if dr2, _ := fc.DeltaAt(a); dr2 != dr-1 {
				t.Fatalf("F %s delta = %d", a, dr2)
			}
		}
	}
}

func TestWeatherStormColumn(t *testing.T) {
	wb := Weather(Spec{Rows: 300})
	s := wb.First()
	ones := 0
	for dr := 1; dr <= 300; dr++ {
		v := s.Value(cell.Addr{Row: dr, Col: ColStorm})
		want := 0.0
		if EventAt(DefaultSeed, dr, 0) == "STORM" {
			want = 1
		}
		if v.Num != want {
			t.Fatalf("storm at %d = %v want %v", dr, v.Num, want)
		}
		if v.Num == 1 {
			ones++
		}
	}
	// ~30% storms by construction; allow wide tolerance.
	if ones < 50 || ones > 150 {
		t.Errorf("storm rate %d/300 outside expectation", ones)
	}
}

func TestWeatherPrefixProperty(t *testing.T) {
	// Smaller datasets are exact prefixes of larger ones (deterministic
	// per-row generation — the sampling stand-in of §3.2).
	f := func(seed uint64, small8, extra8 uint8) bool {
		small := int(small8%30) + 1
		large := small + int(extra8%30)
		a := Weather(Spec{Rows: small, Seed: seed}).First()
		b := Weather(Spec{Rows: large, Seed: seed}).First()
		for dr := 0; dr <= small; dr++ {
			for c := 0; c < NumCols; c++ {
				addr := cell.Addr{Row: dr, Col: c}
				if !a.Value(addr).Equal(b.Value(addr)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickseed.Config(t, 30)); err != nil {
		t.Error(err)
	}
}

func TestWeatherDeterminism(t *testing.T) {
	a := Weather(Spec{Rows: 50}).First()
	b := Weather(Spec{Rows: 50}).First()
	for dr := 0; dr <= 50; dr++ {
		for c := 0; c < NumCols; c++ {
			addr := cell.Addr{Row: dr, Col: c}
			if !a.Value(addr).Equal(b.Value(addr)) {
				t.Fatalf("nondeterministic at %s", addr)
			}
		}
	}
	// Different seeds differ somewhere.
	c := Weather(Spec{Rows: 50, Seed: 1234}).First()
	same := true
	for dr := 1; dr <= 50 && same; dr++ {
		if !a.Value(cell.Addr{Row: dr, Col: ColState}).Equal(c.Value(cell.Addr{Row: dr, Col: ColState})) {
			same = false
		}
	}
	if same {
		t.Error("different seeds should produce different data")
	}
}

func TestWeatherColumnar(t *testing.T) {
	wb := Weather(Spec{Rows: 20, Columnar: true})
	if wb.First().Grid().Layout() != "column" {
		t.Error("columnar spec ignored")
	}
}

func TestPaperSizes(t *testing.T) {
	sizes := PaperSizes()
	if len(sizes) != 52 {
		t.Fatalf("len = %d, want 52 (150, 6000, 49 steps, 500k)", len(sizes))
	}
	if sizes[0] != 150 || sizes[1] != 6000 || sizes[2] != 10000 || sizes[50] != 490000 || sizes[51] != 500000 {
		t.Errorf("sizes = %v...", sizes[:3])
	}
	up := SizesUpTo(25000)
	want := []int{150, 6000, 10000, 20000}
	if len(up) != len(want) {
		t.Fatalf("SizesUpTo = %v", up)
	}
	for i := range want {
		if up[i] != want[i] {
			t.Errorf("SizesUpTo[%d] = %d", i, up[i])
		}
	}
}

func TestStateDistributionRoughlyUniform(t *testing.T) {
	counts := make(map[string]int)
	for dr := 1; dr <= 5000; dr++ {
		counts[StateAt(DefaultSeed, dr)]++
	}
	if len(counts) != len(States) {
		t.Fatalf("only %d states seen", len(counts))
	}
	for st, n := range counts {
		if n < 40 || n > 200 { // expect ~100 per state
			t.Errorf("state %s count %d is far from uniform", st, n)
		}
	}
}

func TestAnalysisBlock(t *testing.T) {
	base := Weather(Spec{Rows: 50, Formulas: true}).First()
	with := Weather(Spec{Rows: 50, Formulas: true, Analysis: true}).First()

	if got := with.FormulaCount() - base.FormulaCount(); got != len(analysisBlock) {
		t.Fatalf("analysis block adds %d formulas, want %d", got, len(analysisBlock))
	}
	// The block must not disturb the base dataset: every base cell value
	// is unchanged.
	for r := 0; r < base.Rows(); r++ {
		for c := 0; c < NumCols; c++ {
			a := cell.Addr{Row: r, Col: c}
			if !base.Value(a).Equal(with.Value(a)) {
				t.Fatalf("cell %s differs with the analysis block on", a)
			}
		}
	}
	// Spot-check the anchors the analyzer's golden files depend on.
	for _, probe := range []struct {
		a1, want string
	}{
		{"S2", "=SUM(J2:J51)"},
		{"S5", "=NOW()"},
		{"S7", `=COUNTIF(B2:B51,">=5")`},
		{"S9", "=S10"},
	} {
		f, ok := with.Formula(cell.MustParseAddr(probe.a1))
		if !ok {
			t.Fatalf("no formula at %s", probe.a1)
		}
		if f.Code.Text != probe.want {
			t.Errorf("%s = %q, want %q", probe.a1, f.Code.Text, probe.want)
		}
	}
	if v := with.Value(cell.MustParseAddr("R5")); v.Str != "generated at" {
		t.Errorf("R5 label = %q, want \"generated at\"", v.Str)
	}
}
