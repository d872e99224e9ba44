package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cell"
	"repro/internal/formula"
	"repro/internal/iolib"
	"repro/internal/obs"
	"repro/internal/sheet"
	"repro/internal/workload"
)

// Structural edits keep fill groups shared (structEdit). These tests hold
// the shared path to the per-cell one: every formula's post-edit text must
// equal the text formula.Edit.Adjust prints for that cell before the edit,
// values must equal a from-scratch evaluation, and the derived state must
// equal its rebuild.

// groupEditProfiles are the profiles the structural-edit differential
// drives: the naive baseline and the two that keep derived state.
var groupEditProfiles = []string{"excel", "optimized", "planned"}

// TestStructEditMatchesPerCellAdjust drives random row and column inserts
// and deletes through every registry workload at 200 rows and through a
// sheet mixing every reference shape an edit treats differently.
func TestStructEditMatchesPerCellAdjust(t *testing.T) {
	builds := map[string]func() *sheet.Workbook{"mixed": mixedRefWorkbook}
	for _, name := range workload.Names() {
		gen, _ := workload.ByName(name)
		builds[name] = func() *sheet.Workbook {
			return gen.Build(workload.Spec{Rows: 200, Formulas: true})
		}
	}
	for _, name := range append([]string{"mixed"}, workload.Names()...) {
		for _, profile := range groupEditProfiles {
			t.Run(name+"/"+profile, func(t *testing.T) {
				wb := builds[name]()
				e := New(Profiles()[profile])
				if err := e.Install(wb); err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(0x5EED))
				// Two fixed edits open the stream: a delete at the top
				// (references into the band, ends clamped off the sheet)
				// and a column insert through the fill columns.
				fixed := []formula.Edit{{Boundary: 0, Delta: -2, Rows: true}, {Boundary: 5, Delta: 2}}
				for step := 0; step < 16; step++ {
					s := wb.First()
					var edit formula.Edit
					if step < len(fixed) {
						edit = fixed[step]
					} else {
						s = wb.Sheets()[rng.Intn(wb.Len())]
						edit = randomEdit(rng, s)
					}
					want := adjustedTexts(s, edit)
					if err := applyEdit(e, s, edit); err != nil {
						t.Fatalf("step %d %+v: %v", step, edit, err)
					}
					where := fmt.Sprintf("step %d, %s %+v", step, s.Name, edit)
					checkAdjustedTexts(t, where, s, want)
					checkFreshValues(t, where, wb)
					if err := checkDerived(e); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
				}
			})
		}
	}
}

// randomEdit draws an insert or delete of one to three rows or columns
// that leaves the sheet at least two lines wide.
func randomEdit(rng *rand.Rand, s *sheet.Sheet) formula.Edit {
	e := formula.Edit{Rows: rng.Intn(2) == 0}
	lines := s.Cols()
	if e.Rows {
		lines = s.Rows()
	}
	n := 1 + rng.Intn(3)
	e.Boundary = rng.Intn(lines)
	if rng.Intn(2) == 0 && lines-n >= 2 {
		if e.Boundary+n > lines {
			e.Boundary = lines - n
		}
		e.Delta = -n
	} else {
		e.Delta = n
	}
	return e
}

func applyEdit(e *Engine, s *sheet.Sheet, edit formula.Edit) error {
	var err error
	switch {
	case edit.Rows && edit.Delta > 0:
		_, err = e.InsertRows(s, edit.Boundary, edit.Delta)
	case edit.Rows:
		_, err = e.DeleteRows(s, edit.Boundary, -edit.Delta)
	case edit.Delta > 0:
		_, err = e.InsertCols(s, edit.Boundary, edit.Delta)
	default:
		_, err = e.DeleteCols(s, edit.Boundary, -edit.Delta)
	}
	return err
}

// adjustedTexts is the per-cell oracle: each surviving formula's post-edit
// address mapped to the text the edit's printer gives it before the edit.
func adjustedTexts(s *sheet.Sheet, edit formula.Edit) map[cell.Addr]string {
	want := make(map[cell.Addr]string)
	s.EachFormula(func(a cell.Addr, fc sheet.Formula) bool {
		post, dead := edit.MoveAddr(a)
		if dead {
			return true
		}
		dr, dc := fc.DeltaAt(a)
		want[post] = edit.Adjust(fc.Code, dr, dc)
		return true
	})
	return want
}

func checkAdjustedTexts(t *testing.T, where string, s *sheet.Sheet, want map[cell.Addr]string) {
	t.Helper()
	if got := s.FormulaCount(); got != len(want) {
		t.Fatalf("%s: %d formulas, want %d", where, got, len(want))
	}
	for a, text := range want {
		fc, ok := s.Formula(a)
		if !ok {
			t.Fatalf("%s: no formula at %s, want %s", where, a, text)
		}
		dr, dc := fc.DeltaAt(a)
		if got := "=" + formula.ShiftedText(fc.Code.Root, dr, dc); got != text {
			t.Fatalf("%s: %s reads %s, per-cell adjustment gives %s", where, a, got, text)
		}
	}
}

// checkFreshValues compares every cell of the workbook with a fresh excel
// install of a saved copy, which evaluates every formula from scratch.
func checkFreshValues(t *testing.T, where string, wb *sheet.Workbook) {
	t.Helper()
	var buf bytes.Buffer
	if err := iolib.WriteWorkbook(&buf, wb); err != nil {
		t.Fatal(err)
	}
	res, err := iolib.ReadWorkbook(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := New(Profiles()["excel"]).Install(res.Workbook); err != nil {
		t.Fatal(err)
	}
	for _, s := range wb.Sheets() {
		fresh := res.Workbook.Sheet(s.Name)
		for r := 0; r < s.Rows(); r++ {
			for c := 0; c < s.Cols(); c++ {
				a := cell.Addr{Row: r, Col: c}
				if got, want := s.Value(a), fresh.Value(a); !got.Equal(want) {
					t.Fatalf("%s: %s!%s = %+v, fresh evaluation %+v", where, s.Name, a, got, want)
				}
			}
		}
	}
}

// mixedRefWorkbook is a small two-sheet workbook whose fill columns cover
// every reference shape a structural edit treats differently: relative,
// absolute and mixed references, ranges that straddle an edit (a running
// total, a whole-column sum), cross-sheet references both relative and
// absolute, and a range whose adjusted end lands off the sheet.
func mixedRefWorkbook() *sheet.Workbook {
	const rows, cols = 30, 17
	main := sheet.New("main", rows, cols)
	other := sheet.New("other", rows, 3)
	for r := 0; r < rows; r++ {
		for c := 0; c < 4; c++ {
			main.SetValue(cell.Addr{Row: r, Col: c}, cell.Num(float64(r*4+c+1)))
		}
		for c := 0; c < 3; c++ {
			other.SetValue(cell.Addr{Row: r, Col: c}, cell.Num(float64(100+r*3+c)))
		}
	}
	fill := func(col, from, to int, text string) {
		code := formula.MustCompile(text)
		origin := cell.Addr{Row: from, Col: col}
		for r := from; r <= to; r++ {
			main.AttachFormula(cell.Addr{Row: r, Col: col}, sheet.Formula{Code: code, Origin: origin})
		}
	}
	fill(4, 1, 25, "=A2+B2")              // E: relative
	fill(5, 1, 25, "=A2*$B$3")            // F: relative and absolute
	fill(6, 1, 25, "=SUM(A$2:A2)")        // G: running total, mixed
	fill(7, 1, 25, "=SUM($C$2:$C$27)")    // H: absolute range
	fill(8, 1, 25, "=other!A2+C2")        // I: relative cross-sheet
	fill(9, 1, 25, "=other!$B$2*D2")      // J: absolute cross-sheet
	fill(10, 1, 25, "=$A2-C$5")           // K: mixed both ways
	fill(11, 1, 25, "=SUM(other!C$2:C2)") // L: cross-sheet running total
	fill(12, 2, 25, "=A1+D3")             // M: reads the row above and below
	// N: authored at row 10 reading two rows up and hosted from row 2, so
	// the group's origin lies among its hosts, not at the top.
	code := formula.MustCompile("=A9+1")
	for r := 2; r < 14; r++ {
		main.AttachFormula(cell.Addr{Row: r, Col: 13}, sheet.Formula{Code: code, Origin: cell.Addr{Row: 10, Col: 13}})
	}
	fill(16, 2, 25, "=SUM(D3:D1)") // Q: written bottom-up, so a delete at row 0 lands its end off the sheet
	main.AttachFormula(cell.Addr{Row: 0, Col: 14}, sheet.Formula{Code: formula.MustCompile("=SUM(E2:E26)"), Origin: cell.Addr{Row: 0, Col: 14}})
	main.AttachFormula(cell.Addr{Row: 1, Col: 14}, sheet.Formula{Code: formula.MustCompile("=COUNT(A1:A30)+O1"), Origin: cell.Addr{Row: 1, Col: 14}})
	wb := sheet.NewWorkbook()
	for _, s := range []*sheet.Sheet{main, other} {
		if err := wb.Add(s); err != nil {
			panic(err)
		}
	}
	return wb
}

// TestRowEditPairKeepsOneGroupPerColumn: after an insert and a delete on
// 2k-row weather, each fill column K..Q still holds one shared formula.
func TestRowEditPairKeepsOneGroupPerColumn(t *testing.T) {
	eng, s := newTestEngine(t, "optimized", 2000, true)
	if _, err := eng.InsertRows(s, 700, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.DeleteRows(s, 1200, 2); err != nil {
		t.Fatal(err)
	}
	for col := workload.ColFormula0; col < workload.ColFormula0+workload.NumEvents; col++ {
		groups := make(map[sheet.Formula]bool)
		for r := 1; r < s.Rows(); r++ {
			if fc, ok := s.Formula(cell.Addr{Row: r, Col: col}); ok {
				groups[fc] = true
			}
		}
		if len(groups) != 1 {
			t.Errorf("column %s holds %d (Code, Origin) pairs, want 1", cell.ColName(col), len(groups))
		}
	}
}

// TestRowInsertCompilesPerGroup: a row insert on 10k-row weather compiles
// once per fill group and once per formula whose references straddle the
// edit, not once per formula.
func TestRowInsertCompilesPerGroup(t *testing.T) {
	eng, s := newTestEngine(t, "optimized", 10000, true)
	withEngineTracing(t)
	compiles := obs.Default.Aggregate("formula_compile_ns", "")
	before := compiles.Count()
	if _, err := eng.InsertRows(s, 5000, 1); err != nil {
		t.Fatal(err)
	}
	if n := compiles.Count() - before; n >= 50 {
		t.Errorf("row insert compiled %d formulas, want under 50 (of %d)", n, s.FormulaCount())
	}
}
