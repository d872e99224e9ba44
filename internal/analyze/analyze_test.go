package analyze

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/formula"
	"repro/internal/sheet"
)

// mkSheet builds a sheet from cell literals and formulas. values maps A1
// addresses to cell values; formulas maps A1 addresses to formula text.
func mkSheet(t *testing.T, values map[string]cell.Value, formulas map[string]string) *sheet.Sheet {
	t.Helper()
	s := sheet.New("test", 8, 8)
	for a1, v := range values {
		s.SetValue(cell.MustParseAddr(a1), v)
	}
	for a1, text := range formulas {
		c, err := formula.Compile(text)
		if err != nil {
			t.Fatalf("compile %q: %v", text, err)
		}
		s.SetFormula(cell.MustParseAddr(a1), c)
	}
	return s
}

// findingsFor returns the emitted findings for one rule.
func findingsFor(sr *SheetReport, rule string) []Finding {
	var out []Finding
	for _, f := range sr.Findings {
		if f.Rule == rule {
			out = append(out, f)
		}
	}
	return out
}

func TestRuleVolatileBlastRadius(t *testing.T) {
	s := mkSheet(t, nil, map[string]string{
		"A1": "=NOW()",
		"B1": "=A1+1", // direct dependent
		"C1": "=B1*2", // transitive dependent
		"D1": "=5+6",  // unrelated
	})
	sr := SheetReportFor(s, Options{})
	fs := findingsFor(sr, RuleVolatile)
	if len(fs) != 1 {
		t.Fatalf("volatile findings = %d, want 1", len(fs))
	}
	f := fs[0]
	if f.Cell != "A1" || f.Severity != High || f.Cost != 2 {
		t.Errorf("finding = %+v, want cell A1, severity high, cost 2", f)
	}
	if !strings.Contains(f.Message, "NOW") {
		t.Errorf("message %q should name the volatile function", f.Message)
	}
}

func TestRuleVolatileNoDependentsIsWarn(t *testing.T) {
	s := mkSheet(t, nil, map[string]string{"A1": "=RAND()"})
	sr := SheetReportFor(s, Options{})
	fs := findingsFor(sr, RuleVolatile)
	if len(fs) != 1 || fs[0].Severity != Warn || fs[0].Cost != 0 {
		t.Fatalf("findings = %+v, want one warn with cost 0", fs)
	}
}

func TestRuleWideRange(t *testing.T) {
	s := mkSheet(t, nil, map[string]string{
		"A1": "=SUM(B1:B500)",  // 500 cells >= threshold 100
		"A2": "=SUM(B1:B50)",   // under threshold
		"A3": "=SUM(B1:D1000)", // 3000 cells, also fires
	})
	sr := SheetReportFor(s, Options{WideRangeCells: 100})
	fs := findingsFor(sr, RuleWideRange)
	if len(fs) != 2 {
		t.Fatalf("wide-range findings = %d, want 2: %+v", len(fs), fs)
	}
	if fs[0].Cell != "A1" || fs[0].Cost != 500 {
		t.Errorf("first = %+v, want A1 cost 500", fs[0])
	}
	if fs[1].Cell != "A3" || fs[1].Cost != 3000 {
		t.Errorf("second = %+v, want A3 cost 3000", fs[1])
	}
}

func TestRuleSharedSubexpr(t *testing.T) {
	s := mkSheet(t, nil, map[string]string{
		"A1": "=SUM(B1:B10)",
		"A2": "=SUM(B1:B10)/2",
		"A3": "=SUM(B1:B10)+COUNT(B1:B10)",
		"A4": "=COUNT(C1:C10)", // only occurrence; no finding
	})
	sr := SheetReportFor(s, Options{SharedMin: 3})
	fs := findingsFor(sr, RuleSharedSubexp)
	if len(fs) != 1 {
		t.Fatalf("shared findings = %d, want 1: %+v", len(fs), fs)
	}
	f := fs[0]
	if f.Cell != "A1" {
		t.Errorf("anchor = %s, want A1 (first occurrence)", f.Cell)
	}
	// Three occurrences of SUM(B1:B10), 10 cells each: two saved evals.
	if f.Cost != 20 {
		t.Errorf("cost = %d, want 20", f.Cost)
	}
	if !strings.Contains(f.Message, "SUM(B1:B10)") {
		t.Errorf("message %q should carry the shared text", f.Message)
	}
}

func TestRuleSharedSubexprHonorsDisplacement(t *testing.T) {
	// The same relative text in different rows reads different cells and
	// must NOT be grouped; absolute references must be.
	s := sheet.New("test", 16, 8)
	rel := formula.MustCompile("=SUM(B1:B4)*2")
	abs := formula.MustCompile("=SUM($C$1:$C$4)*3")
	for r := 0; r < 3; r++ {
		at := cell.Addr{Row: r, Col: 0}
		s.AttachFormula(at, sheet.Formula{Code: rel, Origin: cell.Addr{Row: 0, Col: 0}})
		at2 := cell.Addr{Row: r, Col: 4}
		s.AttachFormula(at2, sheet.Formula{Code: abs, Origin: cell.Addr{Row: 0, Col: 4}})
	}
	sr := SheetReportFor(s, Options{SharedMin: 3})
	fs := findingsFor(sr, RuleSharedSubexp)
	if len(fs) != 1 {
		t.Fatalf("shared findings = %d, want 1 (absolute only): %+v", len(fs), fs)
	}
	if !strings.Contains(fs[0].Message, "$C$1:$C$4") {
		t.Errorf("message %q should reference the absolute range", fs[0].Message)
	}
}

func TestRuleConstFold(t *testing.T) {
	s := mkSheet(t, nil, map[string]string{
		"A1": "=B1*(24*60*60)", // inner product is foldable
		"A2": "=B1+C1",         // nothing to fold
		"A3": "=1+2+3",         // whole formula foldable
		"A4": "=RAND()*2",      // volatile: not foldable
	})
	sr := SheetReportFor(s, Options{})
	fs := findingsFor(sr, RuleConstFold)
	if len(fs) != 2 {
		t.Fatalf("const-fold findings = %d, want 2: %+v", len(fs), fs)
	}
	if fs[0].Cell != "A1" || !strings.Contains(fs[0].Message, "(24*60)*60") && !strings.Contains(fs[0].Message, "24*60*60") && !strings.Contains(fs[0].Message, "((24*60)*60)") {
		t.Errorf("first = %+v, want fold of the seconds product", fs[0])
	}
	if fs[1].Cell != "A3" {
		t.Errorf("second = %+v, want A3", fs[1])
	}
}

func TestRuleTypeMismatchCriterion(t *testing.T) {
	vals := map[string]cell.Value{
		"B1": cell.Str("RAIN"), "B2": cell.Str("SNOW"), "B3": cell.Str("STORM"),
		"C1": cell.Num(1), "C2": cell.Num(2), "C3": cell.Num(3),
	}
	s := mkSheet(t, vals, map[string]string{
		"A1": `=COUNTIF(B1:B3,">=5")`,   // numeric criterion, text column: fires
		"A2": `=COUNTIF(B1:B3,"STORM")`, // text criterion, text column: ok
		"A3": `=COUNTIF(C1:C3,">=5")`,   // numeric criterion, numeric column: ok
		"A4": `=COUNTIF(B1:B3,"<>5")`,   // <> matches non-numerics: ok
		"A5": `=SUMIF(C1:C3,"storm")`,   // text criterion, numeric column: fires
	})
	sr := SheetReportFor(s, Options{})
	fs := findingsFor(sr, RuleTypeMismatch)
	if len(fs) != 2 {
		t.Fatalf("type findings = %d, want 2: %+v", len(fs), fs)
	}
	if fs[0].Cell != "A1" || fs[1].Cell != "A5" {
		t.Errorf("cells = %s,%s, want A1,A5", fs[0].Cell, fs[1].Cell)
	}
	if !strings.Contains(fs[0].Message, "never matches") {
		t.Errorf("message %q should say the condition never matches", fs[0].Message)
	}
}

func TestRuleTypeMismatchComparison(t *testing.T) {
	vals := map[string]cell.Value{"B1": cell.Str("RAIN"), "C1": cell.Num(7)}
	s := mkSheet(t, vals, map[string]string{
		"A1": `=IF(B1>5,1,0)`,      // text cell vs numeric literal: fires
		"A2": `=IF(C1>5,1,0)`,      // numeric vs numeric: ok
		"A3": `=IF(D1>5,1,0)`,      // empty cell: unknown, ok
		"A4": `=IF(B1="RAIN",1,0)`, // text vs text: ok
	})
	sr := SheetReportFor(s, Options{})
	fs := findingsFor(sr, RuleTypeMismatch)
	if len(fs) != 1 || fs[0].Cell != "A1" {
		t.Fatalf("type findings = %+v, want one at A1", fs)
	}
}

func TestRuleCycle(t *testing.T) {
	s := mkSheet(t, nil, map[string]string{
		"A1": "=A2+1",
		"A2": "=A1+1",
		"B1": "=A1*2", // downstream of the cycle, itself unorderable
		"C1": "=5",
	})
	sr := SheetReportFor(s, Options{})
	fs := findingsFor(sr, RuleCycle)
	if len(fs) != 3 {
		t.Fatalf("cycle findings = %d, want 3 (A1,A2,B1): %+v", len(fs), fs)
	}
	// Findings sort row-major within the rule: A1, B1, A2.
	for i, want := range []string{"A1", "B1", "A2"} {
		if fs[i].Cell != want || fs[i].Severity != High {
			t.Errorf("finding %d = %+v, want high at %s", i, fs[i], want)
		}
	}
}

func TestRuleHotFormula(t *testing.T) {
	s := mkSheet(t, nil, map[string]string{
		"A1": "=SUM(B1:B100)", // 100 cells
		"C1": "=A1*2",
		"C2": "=A1*3", // fan-out 2 -> cost 100*(1+2)=300
		"D1": "=E1+1", // 1 cell, cold
	})
	sr := SheetReportFor(s, Options{HotCostMin: 300, WideRangeCells: 1 << 20})
	fs := findingsFor(sr, RuleHotFormula)
	if len(fs) != 1 {
		t.Fatalf("hot findings = %d, want 1: %+v", len(fs), fs)
	}
	f := fs[0]
	if f.Cell != "A1" || f.Cost != 300 {
		t.Errorf("finding = %+v, want A1 with cost 300", f)
	}
}

func TestFindingsSortedBySeverity(t *testing.T) {
	s := mkSheet(t, nil, map[string]string{
		"A1": "=1+2",             // info (const-fold)
		"A2": "=NOW()",           // warn (volatile, no dependents)
		"A3": "=A4", "A4": "=A3", // high (cycle)
	})
	sr := SheetReportFor(s, Options{})
	last := High
	for _, f := range sr.Findings {
		if f.Severity > last {
			t.Fatalf("findings not sorted by severity: %+v", sr.Findings)
		}
		last = f.Severity
	}
	if sr.Findings[0].Rule != RuleCycle {
		t.Errorf("first finding = %+v, want a cycle", sr.Findings[0])
	}
}

func TestMaxFindingsPerRuleCapsOutputNotCounts(t *testing.T) {
	formulas := map[string]string{}
	for r := 1; r <= 6; r++ {
		formulas[cell.Addr{Row: r - 1, Col: 0}.A1()] = "=1+2"
	}
	s := mkSheet(t, nil, formulas)
	sr := SheetReportFor(s, Options{MaxFindingsPerRule: 2})
	if got := len(findingsFor(sr, RuleConstFold)); got != 2 {
		t.Errorf("emitted = %d, want capped at 2", got)
	}
	if sr.RuleCounts[RuleConstFold] != 6 {
		t.Errorf("counted = %d, want complete count 6", sr.RuleCounts[RuleConstFold])
	}
	if sr.droppedFindings() != 4 {
		t.Errorf("dropped = %d, want 4", sr.droppedFindings())
	}
}

func TestWorkbookAggregatesSheets(t *testing.T) {
	wb := sheet.NewWorkbook()
	s1 := mkSheet(t, nil, map[string]string{"A1": "=NOW()"})
	s1.Name = "one"
	s2 := mkSheet(t, nil, map[string]string{"A1": "=1+2", "A2": "=B1*2"})
	s2.Name = "two"
	if err := wb.Add(s1); err != nil {
		t.Fatal(err)
	}
	if err := wb.Add(s2); err != nil {
		t.Fatal(err)
	}
	rep := Workbook(wb, Options{})
	if len(rep.Sheets) != 2 || rep.Formulas != 3 {
		t.Fatalf("report = %d sheets %d formulas, want 2/3", len(rep.Sheets), rep.Formulas)
	}
	if rep.Findings < 2 {
		t.Errorf("findings = %d, want >= 2 (volatile + const-fold)", rep.Findings)
	}
	if rep.EstRecalcOps != rep.Sheets[0].EstRecalcOps+rep.Sheets[1].EstRecalcOps {
		t.Error("workbook estimate should sum the sheet estimates")
	}
}

func TestAnalysisIsReadOnly(t *testing.T) {
	// Analysis must not evaluate or cache anything: the formula cells'
	// displayed values stay untouched.
	s := mkSheet(t, map[string]cell.Value{"B1": cell.Num(5)}, map[string]string{"A1": "=B1*2"})
	_ = SheetReportFor(s, Options{})
	if v := s.Value(cell.MustParseAddr("A1")); !v.IsEmpty() {
		t.Errorf("A1 value = %v after analysis, want still empty", v)
	}
}

// TestBrokenFillRule: a 40-row fill column with two hand-edited deviants
// fires RuleBrokenFill once, anchored at the first deviant; a perfectly
// uniform column and a short column stay silent.
func TestBrokenFillRule(t *testing.T) {
	s := sheet.New("S", 64, 6)
	fill := formula.MustCompile("=A1*2")
	for r := 0; r < 40; r++ {
		s.AttachFormula(cell.Addr{Row: r, Col: 1}, sheet.Formula{Code: fill, Origin: cell.Addr{Row: 0, Col: 1}})
	}
	s.SetFormula(cell.Addr{Row: 12, Col: 1}, formula.MustCompile("=A13*2+1")) // deviant 1
	s.SetFormula(cell.Addr{Row: 30, Col: 1}, formula.MustCompile("=99"))      // deviant 2
	// Uniform control column, same height.
	uni := formula.MustCompile("=A1+1")
	for r := 0; r < 40; r++ {
		s.AttachFormula(cell.Addr{Row: r, Col: 2}, sheet.Formula{Code: uni, Origin: cell.Addr{Row: 0, Col: 2}})
	}
	// Short broken column: below BrokenFillMin, must not fire.
	for r := 0; r < 8; r++ {
		s.SetFormula(cell.Addr{Row: r, Col: 3}, formula.MustCompile(fmt.Sprintf("=A%d*3", r+1)))
	}
	s.SetFormula(cell.Addr{Row: 4, Col: 3}, formula.MustCompile("=7"))

	sr := SheetReportFor(s, Options{})
	if got := sr.RuleCounts[RuleBrokenFill]; got != 1 {
		t.Fatalf("broken-fill count = %d, want 1; findings %+v", got, sr.Findings)
	}
	var f *Finding
	for i := range sr.Findings {
		if sr.Findings[i].Rule == RuleBrokenFill {
			f = &sr.Findings[i]
		}
	}
	if f == nil {
		t.Fatal("finding missing despite count")
	}
	if f.Cell != "B13" {
		t.Errorf("anchor = %s, want B13 (first deviant)", f.Cell)
	}
	if f.Severity != Warn {
		t.Errorf("severity = %v, want warn", f.Severity)
	}
	if f.Cost != 2 {
		t.Errorf("cost = %d, want 2 deviants", f.Cost)
	}
	if sr.Regions == 0 || sr.CompressionRatio <= 1 {
		t.Errorf("report metrics: regions=%d ratio=%v", sr.Regions, sr.CompressionRatio)
	}
}

// TestBrokenFillRespectsMin: raising BrokenFillMin above the column height
// silences the rule.
func TestBrokenFillRespectsMin(t *testing.T) {
	s := sheet.New("S", 64, 4)
	fill := formula.MustCompile("=A1*2")
	for r := 0; r < 40; r++ {
		s.AttachFormula(cell.Addr{Row: r, Col: 1}, sheet.Formula{Code: fill, Origin: cell.Addr{Row: 0, Col: 1}})
	}
	s.SetFormula(cell.Addr{Row: 20, Col: 1}, formula.MustCompile("=5"))
	sr := SheetReportFor(s, Options{BrokenFillMin: 100})
	if got := sr.RuleCounts[RuleBrokenFill]; got != 0 {
		t.Errorf("broken-fill count = %d with min above height, want 0", got)
	}
}
