package analyze

import (
	"fmt"
	"testing"

	"repro/internal/cell"
	"repro/internal/formula"
	"repro/internal/plan"
	"repro/internal/sheet"
)

// lkSheet builds a lookup test sheet: 200 key cells in column A (ascending
// when asc, shuffled otherwise), and returns it sized for extra formula
// columns.
func lkSheet(t *testing.T, asc bool) *sheet.Sheet {
	t.Helper()
	s := sheet.New("lk", 210, 8)
	for r := 0; r < 200; r++ {
		v := float64(r * 3)
		if !asc {
			v = float64((r*37)%200) * 3
		}
		s.SetValue(cell.Addr{Row: r, Col: 0}, cell.Num(v))
	}
	return s
}

func lkFormula(t *testing.T, s *sheet.Sheet, a1, text string) {
	t.Helper()
	c, err := formula.Compile(text)
	if err != nil {
		t.Fatalf("compile %q: %v", text, err)
	}
	s.SetFormula(cell.MustParseAddr(a1), c)
}

func TestLookupCostSortedColumn(t *testing.T) {
	s := lkSheet(t, true)
	const lookups = 10
	for i := 0; i < lookups; i++ {
		lkFormula(t, s, fmt.Sprintf("C%d", i+1), fmt.Sprintf("=MATCH(%d,A1:A200,1)", i*7))
	}
	sr := SheetReportFor(s, Options{})

	// A sorted key column serves every MATCH by binary search: the
	// estimate charges plan's probe count (MATCH reads no result cell),
	// not the 200-cell scan.
	want := int64(lookups) * (plan.CeilLog2(200) + 1)
	if sr.EstEvalCells != want {
		t.Errorf("EstEvalCells = %d, want %d (binary-search probes)", sr.EstEvalCells, want)
	}
	if n := sr.RuleCounts[RuleUnsortedLookup]; n != 0 {
		t.Errorf("unsorted-lookup fired %d time(s) on a sorted column", n)
	}
}

func TestRuleUnsortedLookup(t *testing.T) {
	s := lkSheet(t, false)
	// Linear scans over the shuffled numeric column: exact MATCH has no
	// index, approximate MATCH has no certificate.
	lkFormula(t, s, "C1", "=MATCH(99,A1:A200,0)")
	lkFormula(t, s, "C2", "=MATCH(99,A1:A200,1)")
	// An exact VLOOKUP over the same table is hash-index-served and must
	// not be flagged.
	lkFormula(t, s, "C3", "=VLOOKUP(99,A1:B200,2,FALSE)")
	sr := SheetReportFor(s, Options{})

	fs := findingsFor(sr, RuleUnsortedLookup)
	if len(fs) != 2 {
		t.Fatalf("unsorted-lookup findings = %d (%+v), want 2 (the MATCHes)", len(fs), fs)
	}
	for _, f := range fs {
		if f.Severity != Info {
			t.Errorf("%s severity = %v, want info", f.Cell, f.Severity)
		}
		if f.Cost != 200 {
			t.Errorf("%s cost = %d, want 200 (cells scanned)", f.Cell, f.Cost)
		}
	}

	// The scanning MATCHes are charged linearly, the indexed VLOOKUP its
	// probe bound.
	want := 2*200 + (plan.CeilLog2(200) + 2)
	if sr.EstEvalCells != int64(want) {
		t.Errorf("EstEvalCells = %d, want %d", sr.EstEvalCells, want)
	}
}

func TestRuleUnsortedLookupSkipsNonNumericKeys(t *testing.T) {
	s := sheet.New("lk", 210, 8)
	for r := 0; r < 200; r++ {
		s.SetValue(cell.Addr{Row: r, Col: 0}, cell.Str(fmt.Sprintf("id-%03d", (r*37)%200)))
	}
	lkFormula(t, s, "C1", `=MATCH("id-050",A1:A200,0)`)
	sr := SheetReportFor(s, Options{})
	// Sorting a text column would not certify the binary-search path, so
	// there is nothing to recommend.
	if n := sr.RuleCounts[RuleUnsortedLookup]; n != 0 {
		t.Errorf("unsorted-lookup fired %d time(s) on a text key column", n)
	}
}

func TestRuleUnsortedLookupSpanThreshold(t *testing.T) {
	s := lkSheet(t, false)
	lkFormula(t, s, "C1", "=MATCH(99,A1:A40,0)") // 40 < default threshold 64
	sr := SheetReportFor(s, Options{})
	if n := sr.RuleCounts[RuleUnsortedLookup]; n != 0 {
		t.Errorf("unsorted-lookup fired %d time(s) below the span threshold", n)
	}
}

// TestRuleUnsortedLookupSkipsUnevaluatedFormulaKeys reproduces the
// double-report: a formula key column whose static certificate is numeric
// but cannot order (no constant folding for ROUND), analyzed before any
// evaluation — cached values empty, concrete rescan uninformative. The
// engine evaluates at install, rescans the (ascending) results, and serves
// both MATCHes by binary search; the rule must stay silent.
func TestRuleUnsortedLookupSkipsUnevaluatedFormulaKeys(t *testing.T) {
	s := sheet.New("lk", 210, 8)
	for r := 0; r < 200; r++ {
		s.SetValue(cell.Addr{Row: r, Col: 1}, cell.Num(float64(r*3)))
	}
	for r := 0; r < 200; r++ {
		lkFormula(t, s, fmt.Sprintf("A%d", r+1), fmt.Sprintf("=ROUND(B%d,0)", r+1))
	}
	lkFormula(t, s, "D1", "=MATCH(99,A1:A200,0)")
	lkFormula(t, s, "D2", "=MATCH(99,A1:A200,1)")
	sr := SheetReportFor(s, Options{})
	if n := sr.RuleCounts[RuleUnsortedLookup]; n != 0 {
		t.Errorf("unsorted-lookup fired %d time(s) on an unevaluated formula key column", n)
	}

	// Once evaluated values are present and genuinely unsorted, the rule
	// fires again: the silence is about unknown order, not formula columns.
	for r := 0; r < 200; r++ {
		s.SetCachedValue(cell.Addr{Row: r, Col: 0}, cell.Num(float64((r*37)%200)*3))
	}
	sr = SheetReportFor(s, Options{})
	if n := sr.RuleCounts[RuleUnsortedLookup]; n != 2 {
		t.Errorf("unsorted-lookup fired %d time(s) on a concretely shuffled formula column, want 2", n)
	}
}

func TestHotFormulaLookupAware(t *testing.T) {
	build := func(asc bool) *SheetReport {
		s := lkSheet(t, asc)
		lkFormula(t, s, "B1", "=MATCH(99,A1:A200,0)")
		for i := 0; i < 50; i++ {
			lkFormula(t, s, fmt.Sprintf("D%d", i+1), "=B1+1")
		}
		return SheetReportFor(s, Options{HotCostMin: 4096})
	}

	// Unsorted: the MATCH costs a 200-cell scan times 51 recomputations —
	// over the threshold.
	if fs := findingsFor(build(false), RuleHotFormula); len(fs) != 1 {
		t.Errorf("hot-formula on the scanning MATCH: %d finding(s), want 1", len(fs))
	}
	// Sorted: the same fan-out costs only probes; the formula is no
	// longer hot.
	if fs := findingsFor(build(true), RuleHotFormula); len(fs) != 0 {
		t.Errorf("hot-formula on the certified MATCH: %d finding(s), want 0: %+v", len(fs), fs)
	}
}
