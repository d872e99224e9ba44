package engine

import (
	"fmt"
	"testing"

	"repro/internal/cell"
	"repro/internal/formula"
	"repro/internal/sheet"
)

// derivedFixture installs a one-sheet workbook under the profile: column A
// numbers (a typed value column), column B the text "alpha", column C a
// formula echoing B (a text result), column D a running total over A.
func derivedFixture(t *testing.T, profile string, rows int) (*Engine, *sheet.Sheet) {
	t.Helper()
	s := sheet.New("data", rows, 4)
	for c, h := range []string{"n", "t", "echo", "total"} {
		s.SetValue(cell.Addr{Row: 0, Col: c}, cell.Str(h))
	}
	for r := 1; r < rows; r++ {
		s.SetValue(cell.Addr{Row: r, Col: 0}, cell.Num(float64(r)))
		s.SetValue(cell.Addr{Row: r, Col: 1}, cell.Str("alpha"))
		s.SetFormula(cell.Addr{Row: r, Col: 2}, formula.MustCompile(fmt.Sprintf("=B%d", r+1)))
		s.SetFormula(cell.Addr{Row: r, Col: 3}, formula.MustCompile(fmt.Sprintf("=SUM(A2:A%d)", r+1)))
	}
	wb := sheet.NewWorkbook()
	if err := wb.Add(s); err != nil {
		t.Fatal(err)
	}
	e := New(Profiles()[profile])
	if err := e.Install(wb); err != nil {
		t.Fatal(err)
	}
	return e, s
}

// TestFindReplaceOverFormulaText: a find-replace that rewrites a formula's
// text result leaves a literal in the cell, so the formula must leave the
// dependency graph too (with the region chain split around it) rather than
// linger as a phantom the formula-set artifacts are derived from.
func TestFindReplaceOverFormulaText(t *testing.T) {
	for _, profile := range []string{"excel", "optimized"} {
		e, s := derivedFixture(t, profile, 12)
		if _, _, err := e.FindReplace(s, "alpha", "omega"); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Recalculate(s); err != nil {
			t.Fatal(err)
		}
		if got, want := e.graph(s).FormulaCount(), s.FormulaCount(); got != want {
			t.Errorf("%s: graph holds %d formulas after find-replace, sheet %d", profile, got, want)
		}
		if err := checkDerived(e); err != nil {
			t.Errorf("%s: %v", profile, err)
		}
	}
}

// TestTypedColumnAfterGrowth: a typed-column certificate covers the rows
// it was issued over; a write that grows the sheet appends blank rows to
// the column, so prefix sums refilled over the grown range must not count
// them.
func TestTypedColumnAfterGrowth(t *testing.T) {
	var want cell.Value
	for _, profile := range []string{"excel", "optimized"} {
		e, s := derivedFixture(t, profile, 12)
		if _, err := e.SetCell(s, cell.Addr{Row: 15, Col: 1}, cell.Str("beta")); err != nil {
			t.Fatal(err)
		}
		// A numeric write keeps the column's claim and dirties its
		// install-time prefix sums, so the COUNT below refills them.
		if _, err := e.SetCell(s, cell.Addr{Row: 2, Col: 0}, cell.Num(7)); err != nil {
			t.Fatal(err)
		}
		got, _, err := e.InsertFormula(s, cell.Addr{Row: 0, Col: 5}, "=COUNT(A2:A16)")
		if err != nil {
			t.Fatal(err)
		}
		if profile == "excel" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("COUNT over the grown column = %v, excel %v", got, want)
		}
		if err := checkDerived(e); err != nil {
			t.Error(err)
		}
	}
}

// TestPastedFormulaRetiresTypedColumn: a formula pasted into a typed value
// column ends the column's certificate, as an inserted one does.
func TestPastedFormulaRetiresTypedColumn(t *testing.T) {
	e, s := derivedFixture(t, "optimized", 12)
	if e.sheets[s].opt.typed[0] == 0 {
		t.Fatal("column A not certified at install")
	}
	src := cell.RangeOf(cell.Addr{Row: 2, Col: 3}, cell.Addr{Row: 2, Col: 3})
	if _, _, err := e.CopyPaste(s, src, cell.Addr{Row: 4, Col: 0}); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.sheets[s].opt.typed[0]; ok {
		t.Error("column A still certified typed after a formula was pasted into it")
	}
	if err := checkDerived(e); err != nil {
		t.Error(err)
	}
}
