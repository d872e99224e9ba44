package plan

import (
	"fmt"
	"testing"

	"repro/internal/cell"
	"repro/internal/formula"
	"repro/internal/sheet"
)

func TestSharedAggColumns(t *testing.T) {
	s := sheet.New("test", 8, 8)
	for a1, text := range map[string]string{
		"A1": "=SUM(C1:C50)",
		"A2": "=SUM(C1:C50)/COUNT(C1:C50)",
		"A3": "=AVERAGE(D1:D50)",
		"A4": "=SUM(E1:F50)",           // two columns: not indexable
		"A5": "=COUNTIF(C1:C50,\"x\")", // not a plain aggregate
	} {
		mustFormula(t, s, cell.MustParseAddr(a1), text)
	}
	cols := SharedAggColumns(s)
	if len(cols) != 1 || cols[0] != 2 {
		t.Fatalf("cols = %v, want [2] (column C, 3 aggregate reads; D has one)", cols)
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int64]int64{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := CeilLog2(n); got != want {
			t.Errorf("CeilLog2(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestEachUseClassifies pins the classifier's reading of each site shape,
// hosted one row and one column below its origin.
func TestEachUseClassifies(t *testing.T) {
	cases := []struct {
		text string
		want []string
	}{
		{"=MATCH(5,A1:A10,0)+B1", []string{"lookup MATCH mode=0 col=1 rows=1..10 cells=10"}},
		{"=MATCH(5,A1:A10)", []string{"lookup MATCH mode=1 col=1 rows=1..10 cells=10"}},
		{"=MATCH(5,$A1:A10,-1)", []string{"scan cells=20"}}, // two columns once shifted
		{"=VLOOKUP(5,A$1:C$10,2,FALSE)", []string{"lookup VLOOKUP mode=0 col=1 rows=0..9 cells=30"}},
		{"=VLOOKUP(5,other!A1:C10,2)", []string{"lookup VLOOKUP mode=1 sheet=other col=1 rows=1..10 cells=30"}}, // relative table shifts with the host
		{"=VLOOKUP(5,A1:C10,2,B1)", []string{"scan cells=30"}},
		{"=COUNTIF(A1:A10,\">3\")", []string{"countif COUNTIF col=1 rows=1..10 equality=false"}},
		{"=COUNTIF(A1:A10,B1)", []string{"scan cells=10"}},
		{"=SUM(A1:A10)*COUNT(B1:C2)", []string{"agg SUM col=1 rows=1..10", "scan cells=4"}},
		{"=SUM(other!A1:A10)+other!B2", []string{"scan sheet=other cells=10", "scan sheet=other cells=1"}},
		{"=SUM(MATCH(1,A1:A3,0),D1:D2)", []string{"lookup MATCH mode=0 col=1 rows=1..3 cells=3", "scan cells=2"}},
	}
	for _, c := range cases {
		code := formula.MustCompile(c.text)
		var got []string
		EachUse(code.Root, 1, 1, func(u Use) { got = append(got, useText(u)) })
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: uses %q, want %q", c.text, got, c.want)
		}
	}
}

// TestCrossSheetTableShiftsWithHost: a relative cross-sheet lookup table
// is keyed on the rows the evaluator searches from the host, not on the
// rows written at the origin.
func TestCrossSheetTableShiftsWithHost(t *testing.T) {
	code := formula.MustCompile("=MATCH(5,other!A2:A10,1)")
	u, ok := Classify(code.Root.(formula.CallNode), 3, 0)
	if !ok {
		t.Fatal("MATCH over a cross-sheet column not classified")
	}
	if got, want := useText(u), "lookup MATCH mode=1 sheet=other col=0 rows=4..12 cells=9"; got != want {
		t.Errorf("use %q, want %q", got, want)
	}
}

// useText renders a use for comparison.
func useText(u Use) string {
	sheetPart := ""
	if u.Sheet != "" {
		sheetPart = " sheet=" + u.Sheet
	}
	switch u.Kind {
	case LookupUse:
		return fmt.Sprintf("lookup %s mode=%d%s col=%d rows=%d..%d cells=%d", u.Fn, u.Mode, sheetPart, u.Col, u.R0, u.R1, u.Cells)
	case CountIfUse:
		return fmt.Sprintf("countif %s col=%d rows=%d..%d equality=%v", u.Fn, u.Col, u.R0, u.R1, u.equality())
	case AggUse:
		return fmt.Sprintf("agg %s col=%d rows=%d..%d", u.Fn, u.Col, u.R0, u.R1)
	}
	return fmt.Sprintf("scan%s cells=%d", sheetPart, u.Cells)
}

// TestEachUseAllocatesNothing holds the classifier to its contract: the
// optimized profile's install pre-flight runs it over every formula.
func TestEachUseAllocatesNothing(t *testing.T) {
	code := formula.MustCompile(`=SUM(A1:A10)+VLOOKUP(B2,other!A$2:C$9,3,FALSE)*COUNTIF(C1:C9,"x")+MATCH(1,D1:D5,0)`)
	n := 0
	allocs := testing.AllocsPerRun(100, func() {
		EachUse(code.Root, 2, 1, func(u Use) { n += u.Cells })
	})
	if allocs != 0 {
		t.Errorf("EachUse allocates %.1f times per formula, want 0", allocs)
	}
}
