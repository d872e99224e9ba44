package sheet

import (
	"fmt"
	"testing"

	"repro/internal/cell"
	"repro/internal/formula"
)

func TestSetValueClearsFormula(t *testing.T) {
	s := New("t", 3, 3)
	a := cell.MustParseAddr("B2")
	s.SetFormula(a, formula.MustCompile("=A1"))
	if _, ok := s.Formula(a); !ok {
		t.Fatal("formula missing")
	}
	s.SetValue(a, cell.Num(5))
	if _, ok := s.Formula(a); ok {
		t.Error("SetValue must clear the formula")
	}
	if s.Value(a).Num != 5 {
		t.Error("value not stored")
	}
}

func TestFormulaOriginAndDelta(t *testing.T) {
	s := New("t", 5, 5)
	code := formula.MustCompile("=A1+1")
	s.SetFormula(cell.MustParseAddr("B1"), code)
	f, _ := s.Formula(cell.MustParseAddr("B1"))
	if dr, dc := f.DeltaAt(cell.MustParseAddr("B3")); dr != 2 || dc != 0 {
		t.Errorf("DeltaAt = %d,%d", dr, dc)
	}
	// Paste keeps origin.
	s.AttachFormula(cell.MustParseAddr("C4"), f)
	g, _ := s.Formula(cell.MustParseAddr("C4"))
	if g.Origin != cell.MustParseAddr("B1") {
		t.Errorf("pasted origin = %v", g.Origin)
	}
}

func TestStyles(t *testing.T) {
	s := New("t", 2, 2)
	a := cell.MustParseAddr("A1")
	s.SetStyle(a, cell.Style{Fill: cell.Green})
	if s.Style(a).Fill != cell.Green || s.StyledCellCount() != 1 {
		t.Error("style not stored")
	}
	s.SetStyle(a, cell.Style{})
	if s.StyledCellCount() != 0 {
		t.Error("zero style should remove the entry")
	}
}

func TestHiddenRows(t *testing.T) {
	s := New("t", 5, 1)
	for r := 0; r < 5; r++ {
		s.SetValue(cell.Addr{Row: r}, cell.Num(float64(r)))
	}
	s.SetRowHidden(1, true)
	s.SetRowHidden(3, true)
	if !s.RowHidden(1) || s.RowHidden(2) {
		t.Error("hidden flags wrong")
	}
	if s.VisibleRows() != 3 {
		t.Errorf("VisibleRows = %d", s.VisibleRows())
	}
	s.UnhideAll()
	if s.VisibleRows() != 5 {
		t.Error("UnhideAll")
	}
	s.SetRowHidden(-1, true) // no panic
}

func TestApplyRowPermMovesEverything(t *testing.T) {
	s := New("t", 3, 2)
	s.SetValue(cell.MustParseAddr("A1"), cell.Num(0))
	s.SetValue(cell.MustParseAddr("A2"), cell.Num(1))
	s.SetValue(cell.MustParseAddr("A3"), cell.Num(2))
	s.SetFormula(cell.MustParseAddr("B2"), formula.MustCompile("=A2"))
	s.SetStyle(cell.MustParseAddr("B3"), cell.Style{Fill: cell.Red})
	s.SetRowHidden(2, true)

	// New row i holds old row perm[i]: reverse the sheet.
	s.ApplyRowPerm([]int{2, 1, 0})

	if s.Value(cell.MustParseAddr("A1")).Num != 2 {
		t.Error("values not permuted")
	}
	if _, ok := s.Formula(cell.MustParseAddr("B2")); !ok {
		t.Error("formula should stay on the middle row")
	}
	if s.Style(cell.MustParseAddr("B1")).Fill != cell.Red {
		t.Error("style did not move with its row")
	}
	if !s.RowHidden(0) || s.RowHidden(2) {
		t.Error("hidden marks did not move")
	}
}

func TestWorkbook(t *testing.T) {
	wb := NewWorkbook()
	if wb.First() != nil {
		t.Error("empty workbook First should be nil")
	}
	s1 := New("one", 1, 1)
	if err := wb.Add(s1); err != nil {
		t.Fatal(err)
	}
	if err := wb.Add(New("one", 1, 1)); err == nil {
		t.Error("duplicate names must fail")
	}
	if wb.Sheet("one") != s1 || wb.First() != s1 || wb.Len() != 1 {
		t.Error("lookup failed")
	}
	if got := wb.UniqueName("one"); got != "one2" {
		t.Errorf("UniqueName = %q", got)
	}
	if got := wb.UniqueName("two"); got != "two" {
		t.Errorf("UniqueName = %q", got)
	}
	if !wb.Remove("one") || wb.Len() != 0 {
		t.Error("Remove failed")
	}
	if wb.Remove("one") {
		t.Error("Remove should be false for missing sheet")
	}
}

func TestEachFormulaEarlyStop(t *testing.T) {
	s := New("t", 3, 1)
	s.SetFormula(cell.MustParseAddr("A1"), formula.MustCompile("=1"))
	s.SetFormula(cell.MustParseAddr("A2"), formula.MustCompile("=2"))
	n := 0
	s.EachFormula(func(cell.Addr, Formula) bool {
		n++
		return false
	})
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
	if s.FormulaCount() != 2 {
		t.Error("count")
	}
	s.ClearFormula(cell.MustParseAddr("A1"))
	if s.FormulaCount() != 1 {
		t.Error("ClearFormula")
	}
}

// TestUniqueNameRemembersSuffix: names come out in suffix order whether or
// not the caller adds them, and a removal frees its name again.
func TestUniqueNameRemembersSuffix(t *testing.T) {
	wb := NewWorkbook()
	var got []string
	for i := 0; i < 4; i++ {
		name := wb.UniqueName("Pivot")
		if again := wb.UniqueName("Pivot"); again != name {
			t.Fatalf("UniqueName without an add = %q, then %q", name, again)
		}
		if err := wb.Add(New(name, 1, 1)); err != nil {
			t.Fatal(err)
		}
		got = append(got, name)
	}
	if want := []string{"Pivot", "Pivot2", "Pivot3", "Pivot4"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("names %v, want %v", got, want)
	}
	wb.Remove("Pivot2")
	if name := wb.UniqueName("Pivot"); name != "Pivot2" {
		t.Errorf("after removing Pivot2, UniqueName = %q", name)
	}
}
