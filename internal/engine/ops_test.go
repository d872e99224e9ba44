package engine

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/cell"
	"repro/internal/costmodel"
	"repro/internal/iolib"
	"repro/internal/sheet"
	"repro/internal/workload"
)

func TestSortOrdersRows(t *testing.T) {
	for _, sys := range []string{"excel", "calc", "sheets", "optimized"} {
		eng, s := newTestEngine(t, sys, 100, false)
		if _, err := eng.Sort(s, workload.ColID, false, 1); err != nil {
			t.Fatal(err)
		}
		// Descending: data row 1 holds the max id (101).
		if v := s.Value(cell.Addr{Row: 1, Col: workload.ColID}); v.Num != 101 {
			t.Errorf("%s: first id after desc sort = %v", sys, v.Num)
		}
		if v := s.Value(cell.Addr{Row: 100, Col: workload.ColID}); v.Num != 2 {
			t.Errorf("%s: last id = %v", sys, v.Num)
		}
		// Header untouched.
		if v := s.Value(cell.Addr{Row: 0, Col: workload.ColID}); v.Str != "id" {
			t.Errorf("%s: header moved: %v", sys, v)
		}
		// Rows stay intact: state column still matches the id's original
		// generator output.
		for dr := 1; dr <= 100; dr += 17 {
			id := int(s.Value(cell.Addr{Row: dr, Col: workload.ColID}).Num)
			wantState := workload.StateAt(workload.DefaultSeed, id-1)
			if got := s.Value(cell.Addr{Row: dr, Col: workload.ColState}).Str; got != wantState {
				t.Errorf("%s: row with id %d has state %q, want %q", sys, id, got, wantState)
			}
		}
	}
}

func TestSortFormulaValuesStayCorrect(t *testing.T) {
	// After sorting a Formula-value sheet, every K cell must still equal
	// the storm indicator of ITS OWN row (relative references travel).
	for _, sys := range []string{"excel", "calc", "optimized"} {
		eng, s := newTestEngine(t, sys, 80, true)
		if _, err := eng.Sort(s, workload.ColID, false, 1); err != nil {
			t.Fatal(err)
		}
		for dr := 1; dr <= 80; dr++ {
			id := int(s.Value(cell.Addr{Row: dr, Col: workload.ColID}).Num)
			want := 0.0
			if workload.EventAt(workload.DefaultSeed, id-1, 0) == "STORM" {
				want = 1
			}
			got := s.Value(cell.Addr{Row: dr, Col: workload.ColFormula0})
			if got.Num != want {
				t.Fatalf("%s: K at row %d (id %d) = %v, want %v", sys, dr, id, got.Num, want)
			}
		}
	}
}

// TestOffSheetRefsRoundTrip: a sort that moves a formula above the rows
// it reads leaves its references off the sheet. They evaluate to #REF!,
// and the saved workbook prints them so that it reopens, on a fresh excel
// install, to the same values.
func TestOffSheetRefsRoundTrip(t *testing.T) {
	for _, profile := range []string{"excel", "optimized"} {
		for _, text := range []string{"=A4+1", "=SUM(A4:A5)"} {
			t.Run(profile+" "+text, func(t *testing.T) {
				s := sheet.New("s", 6, 2)
				for r := 1; r < 6; r++ {
					s.SetValue(cell.Addr{Row: r}, cell.Num(float64(10-r)))
				}
				wb := sheet.NewWorkbook()
				if err := wb.Add(s); err != nil {
					t.Fatal(err)
				}
				eng := New(Profiles()[profile])
				if err := eng.Install(wb); err != nil {
					t.Fatal(err)
				}
				mustInsert(t, eng, s, "B6", text)
				// A6 holds the smallest key: its row, formula included,
				// moves to row 2, two rows below the sheet's top edge.
				if _, err := eng.Sort(s, 0, true, 1); err != nil {
					t.Fatal(err)
				}
				live := s.Value(a("B2"))
				if live != cell.Errorf(cell.ErrRef) {
					t.Errorf("B2 = %v after the sort, want #REF!", live)
				}
				var buf bytes.Buffer
				if err := iolib.WriteWorkbook(&buf, wb); err != nil {
					t.Fatal(err)
				}
				saved := buf.String()
				res, err := iolib.ReadWorkbook(&buf)
				if err != nil {
					t.Fatalf("saved workbook does not reopen: %v\n%s", err, saved)
				}
				if err := New(Profiles()["excel"]).Install(res.Workbook); err != nil {
					t.Fatal(err)
				}
				if got := res.Workbook.First().Value(a("B2")); got != live {
					t.Errorf("B2 = %v reopened, %v live\n%s", got, live, saved)
				}
			})
		}
	}
}

func TestSortRecalcPolicyWork(t *testing.T) {
	// Formula-value sort must cost extra under OnSort (all three
	// systems); the optimized engine's row-locality analysis skips the
	// re-evaluations.
	sortEvals := func(sys string) int64 {
		eng, s := newTestEngine(t, sys, 100, true)
		res, err := eng.Sort(s, workload.ColID, false, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res.Work.Count(costmodel.FormulaEval)
	}
	if got := sortEvals("excel"); got != 700 {
		t.Errorf("excel sort re-evaluations = %d, want 700 (7 x 100)", got)
	}
	if got := sortEvals("optimized"); got != 0 {
		t.Errorf("optimized sort re-evaluations = %d, want 0 (row-local)", got)
	}
}

func TestSortAscendingStable(t *testing.T) {
	eng, s := newTestEngine(t, "excel", 50, false)
	if _, err := eng.Sort(s, workload.ColState, true, 1); err != nil {
		t.Fatal(err)
	}
	prev := ""
	for dr := 1; dr <= 50; dr++ {
		st := s.Value(cell.Addr{Row: dr, Col: workload.ColState}).Str
		if st < prev {
			t.Fatalf("states out of order at %d: %q < %q", dr, st, prev)
		}
		prev = st
	}
}

func TestFilterHidesRows(t *testing.T) {
	for _, sys := range []string{"excel", "calc", "sheets"} {
		eng, s := newTestEngine(t, sys, 200, false)
		kept, _, err := eng.Filter(s, workload.ColState, cell.Str("SD"), 1)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for dr := 1; dr <= 200; dr++ {
			if workload.StateAt(workload.DefaultSeed, dr) == "SD" {
				want++
			}
		}
		if kept != want {
			t.Errorf("%s: kept %d, want %d", sys, kept, want)
		}
		if s.VisibleRows() != want+1 { // header visible
			t.Errorf("%s: visible = %d", sys, s.VisibleRows())
		}
		eng.ClearFilter(s)
		if s.VisibleRows() != 201 {
			t.Errorf("%s: ClearFilter", sys)
		}
	}
}

func TestFilterRecalcPolicy(t *testing.T) {
	// Excel re-sequences on filter (§4.3.1); Calc does not.
	depOps := func(sys string) int64 {
		eng, s := newTestEngine(t, sys, 100, true)
		_, res, err := eng.Filter(s, workload.ColState, cell.Str("SD"), 1)
		if err != nil {
			t.Fatal(err)
		}
		return res.Work.Count(costmodel.DepOp)
	}
	excel, calc := depOps("excel"), depOps("calc")
	if excel == 0 {
		t.Error("excel filter should pay re-sequencing DepOps")
	}
	if calc != 0 {
		t.Errorf("calc filter DepOps = %d, want 0", calc)
	}
}

func TestConditionalFormatStyles(t *testing.T) {
	for _, sys := range []string{"excel", "calc"} {
		eng, s := newTestEngine(t, sys, 100, false)
		rng := cell.ColRange(workload.ColFormula0, 1, 100)
		n, _, err := eng.ConditionalFormat(s, rng, cell.Num(1), cell.Style{Fill: cell.Green})
		if err != nil {
			t.Fatal(err)
		}
		want := countStorms(100)
		if n != want {
			t.Errorf("%s: styled %d, want %d", sys, n, want)
		}
		if s.StyledCellCount() != want {
			t.Errorf("%s: StyledCellCount = %d", sys, s.StyledCellCount())
		}
		// Spot check one styled cell.
		for dr := 1; dr <= 100; dr++ {
			a := cell.Addr{Row: dr, Col: workload.ColFormula0}
			isStorm := s.Value(a).Num == 1
			hasFill := s.Style(a).Fill == cell.Green
			if isStorm != hasFill {
				t.Fatalf("%s: row %d style mismatch", sys, dr)
			}
		}
	}
}

func TestCondFormatLazyViewport(t *testing.T) {
	// Sheets styles only the visible window on value-only data (§4.2.2).
	eng, s := newTestEngine(t, "sheets", 1000, false)
	rng := cell.ColRange(workload.ColFormula0, 1, 1000)
	_, res, err := eng.ConditionalFormat(s, rng, cell.Num(1), cell.Style{Fill: cell.Green})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Work.Count(costmodel.CellTouch); got > int64(eng.Profile().WindowRows) {
		t.Errorf("lazy condformat touched %d cells, want <= window", got)
	}
	// With formulae in the range the whole column is processed.
	engF, sF := newTestEngine(t, "sheets", 1000, true)
	_, resF, err := engF.ConditionalFormat(sF, rng, cell.Num(1), cell.Style{Fill: cell.Green})
	if err != nil {
		t.Fatal(err)
	}
	if got := resF.Work.Count(costmodel.CellTouch); got < 1000 {
		t.Errorf("formula condformat touched %d, want full column", got)
	}
	if evals := resF.Work.Count(costmodel.FormulaEval); evals != 1000 {
		t.Errorf("sheets condformat re-evaluations = %d, want 1000 (§4.2.2)", evals)
	}
}

func TestCondFormatExcelNoRecalc(t *testing.T) {
	eng, s := newTestEngine(t, "excel", 500, true)
	rng := cell.ColRange(workload.ColFormula0, 1, 500)
	_, res, err := eng.ConditionalFormat(s, rng, cell.Num(1), cell.Style{Fill: cell.Green})
	if err != nil {
		t.Fatal(err)
	}
	if evals := res.Work.Count(costmodel.FormulaEval); evals != 0 {
		t.Errorf("excel condformat re-evaluations = %d, want 0 (§4.2.2)", evals)
	}
}

func TestPivotTableSums(t *testing.T) {
	for _, sys := range []string{"excel", "calc", "sheets"} {
		eng, s := newTestEngine(t, sys, 300, false)
		out, _, err := eng.PivotTable(s, workload.ColState, workload.ColStorm, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Reference aggregation.
		want := map[string]float64{}
		for dr := 1; dr <= 300; dr++ {
			st := workload.StateAt(workload.DefaultSeed, dr)
			if workload.EventAt(workload.DefaultSeed, dr, 0) == "STORM" {
				want[st]++
			} else {
				want[st] += 0
			}
		}
		got := map[string]float64{}
		for r := 1; r < out.Rows(); r++ {
			got[out.Value(cell.Addr{Row: r, Col: 0}).Str] = out.Value(cell.Addr{Row: r, Col: 1}).Num
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d groups, want %d", sys, len(got), len(want))
		}
		for st, sum := range want {
			if got[st] != sum {
				t.Errorf("%s: state %s sum = %v, want %v", sys, st, got[st], sum)
			}
		}
		// Output sheet is part of the workbook, sorted by key.
		if eng.Workbook().Sheet(out.Name) != out {
			t.Errorf("%s: pivot sheet not in workbook", sys)
		}
	}
}

func TestPivotRespectsFilter(t *testing.T) {
	eng, s := newTestEngine(t, "excel", 200, false)
	if _, _, err := eng.Filter(s, workload.ColState, cell.Str("SD"), 1); err != nil {
		t.Fatal(err)
	}
	out, _, err := eng.PivotTable(s, workload.ColState, workload.ColStorm, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 2 { // header + SD only
		t.Errorf("pivot over filtered data has %d rows", out.Rows())
	}
}

func TestPivotRecalcPolicy(t *testing.T) {
	// Excel and Sheets recompute on worksheet insertion; Calc does not
	// (§4.3.2).
	evals := func(sys string) int64 {
		eng, s := newTestEngine(t, sys, 100, true)
		_, res, err := eng.PivotTable(s, workload.ColState, workload.ColStorm, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res.Work.Count(costmodel.FormulaEval)
	}
	if got := evals("excel"); got != 700 {
		t.Errorf("excel pivot re-evaluations = %d, want 700", got)
	}
	if got := evals("calc"); got != 0 {
		t.Errorf("calc pivot re-evaluations = %d, want 0", got)
	}
	if got := evals("sheets"); got != 700 {
		t.Errorf("sheets pivot re-evaluations = %d, want 700", got)
	}
}

func TestPivotUniqueNames(t *testing.T) {
	eng, s := newTestEngine(t, "excel", 20, false)
	p1, _, err := eng.PivotTable(s, workload.ColState, workload.ColStorm, 1)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := eng.PivotTable(s, workload.ColState, workload.ColStorm, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Name == p2.Name {
		t.Errorf("pivot sheets share the name %q", p1.Name)
	}
}

func TestFindReplaceChangesCells(t *testing.T) {
	for _, sys := range []string{"excel", "calc", "sheets", "optimized"} {
		eng, s := newTestEngine(t, sys, 150, false)
		// Count the cells containing the exact keyword in event column 0.
		col := workload.ColEvent0
		want := 0
		for dr := 1; dr <= 150; dr++ {
			if workload.EventAt(workload.DefaultSeed, dr, 0) == "STORM" {
				want++
			}
		}
		n, _, err := eng.FindReplace(s, "STORM", "TEMPEST")
		if err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Errorf("%s: replaced %d, want %d", sys, n, want)
		}
		for dr := 1; dr <= 150; dr++ {
			if s.Value(cell.Addr{Row: dr, Col: col}).Str == "STORM" {
				t.Fatalf("%s: STORM survived at %d", sys, dr)
			}
		}
		// Absent search: zero replacements.
		n, _, err = eng.FindReplace(s, "QQNOPE", "X")
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Errorf("%s: absent search replaced %d", sys, n)
		}
	}
}

func TestFindReplaceRecomputesDependents(t *testing.T) {
	eng, s := newTestEngine(t, "excel", 100, true)
	before := s.Value(cell.Addr{Row: 0, Col: 0})
	_ = before
	countBefore := 0.0
	for dr := 1; dr <= 100; dr++ {
		countBefore += s.Value(cell.Addr{Row: dr, Col: workload.ColFormula0}).Num
	}
	if _, _, err := eng.FindReplace(s, "STORM", "NOPE"); err != nil {
		t.Fatal(err)
	}
	countAfter := 0.0
	for dr := 1; dr <= 100; dr++ {
		countAfter += s.Value(cell.Addr{Row: dr, Col: workload.ColFormula0}).Num
	}
	if countBefore == 0 {
		t.Skip("no storms in sample")
	}
	if countAfter != 0 {
		t.Errorf("embedded COUNTIFs = %v after replacing the keyword, want 0", countAfter)
	}
}

func TestFindReplaceEmptyQuery(t *testing.T) {
	eng, s := newTestEngine(t, "excel", 5, false)
	if _, _, err := eng.FindReplace(s, "", "x"); err == nil {
		t.Error("empty search must error")
	}
}

func TestCopyPasteValuesAndFormulas(t *testing.T) {
	for _, sys := range []string{"excel", "optimized"} {
		eng, s := newTestEngine(t, sys, 20, false)
		mustInsert(t, eng, s, "S2", "=A2*10")
		// Copy A2:S2-ish block: copy the two cells A2 and S2 region.
		src := cell.RangeOf(a("S2"), a("S2"))
		out, _, err := eng.CopyPaste(s, src, a("S5"))
		if err != nil {
			t.Fatal(err)
		}
		if out != cell.RangeOf(a("S5"), a("S5")) {
			t.Errorf("%s: dst range = %v", sys, out)
		}
		// Relative reference shifted: =A5*10. A5 holds id 5+1=6? A5 is
		// data row 4 -> id 5.
		wantA5 := s.Value(a("A5")).Num
		if got := s.Value(a("S5")).Num; got != wantA5*10 {
			t.Errorf("%s: pasted formula = %v, want %v", sys, got, wantA5*10)
		}
		// Pasted cell recomputes on edits.
		if _, err := eng.SetCell(s, a("A5"), cell.Num(99)); err != nil {
			t.Fatal(err)
		}
		if got := s.Value(a("S5")).Num; got != 990 {
			t.Errorf("%s: pasted formula after edit = %v, want 990", sys, got)
		}
	}
}

func TestCopyPasteBlock(t *testing.T) {
	eng, s := newTestEngine(t, "excel", 10, false)
	src := cell.RangeOf(a("A2"), a("B4"))
	if _, _, err := eng.CopyPaste(s, src, a("T2")); err != nil {
		t.Fatal(err)
	}
	for dr := 0; dr < 3; dr++ {
		for dc := 0; dc < 2; dc++ {
			from := cell.Addr{Row: 1 + dr, Col: dc}
			to := cell.Addr{Row: 1 + dr, Col: 19 + dc}
			if !s.Value(from).Equal(s.Value(to)) {
				t.Fatalf("block paste mismatch at %v", to)
			}
		}
	}
}

func TestOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, formulas := range []bool{true, false} {
		wb := workload.Weather(workload.Spec{Rows: 120, Formulas: formulas})
		path := filepath.Join(dir, fmt.Sprintf("w-%v.svf", formulas))
		if err := iolib.SaveWorkbook(path, wb); err != nil {
			t.Fatal(err)
		}
		for _, sys := range []string{"excel", "calc", "sheets", "optimized"} {
			prof := Profiles()[sys]
			eng := New(prof)
			res, err := eng.Open(path)
			if err != nil {
				t.Fatalf("%s: %v", sys, err)
			}
			s := eng.Workbook().First()
			if s.Rows() != 121 {
				t.Fatalf("%s: rows = %d", sys, s.Rows())
			}
			if res.Sim <= 0 {
				t.Errorf("%s: open sim = %v", sys, res.Sim)
			}
			// Formula-value: open recomputes; K column correct.
			if formulas && !prof.Web {
				want := countStorms(120)
				got := 0
				for dr := 1; dr <= 120; dr++ {
					got += int(s.Value(cell.Addr{Row: dr, Col: workload.ColFormula0}).Num)
				}
				if got != want {
					t.Errorf("%s: storms after open = %d, want %d", sys, got, want)
				}
			}
		}
	}
}

func TestOpenLazyValueOnly(t *testing.T) {
	// Sheets' open of a value-only sheet must cost O(window), independent
	// of size (§4.1).
	dir := t.TempDir()
	sizes := []int{500, 5000}
	var sims [2]int64
	for i, m := range sizes {
		wb := workload.Weather(workload.Spec{Rows: m})
		path := filepath.Join(dir, fmt.Sprintf("lazy-%d.svf", m))
		if err := iolib.SaveWorkbook(path, wb); err != nil {
			t.Fatal(err)
		}
		eng := New(Profiles()["sheets"])
		res, err := eng.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sims[i] = res.Work.Count(costmodel.RenderCell)
	}
	if sims[0] != sims[1] {
		t.Errorf("lazy open rendered %d vs %d cells; should be size-independent", sims[0], sims[1])
	}
}

func TestOpenMissingFile(t *testing.T) {
	eng := New(Profiles()["excel"])
	if _, err := eng.Open("/nonexistent/file.svf"); err == nil {
		t.Error("expected error")
	}
}

func TestCellValueAndReadColumn(t *testing.T) {
	eng, s := newTestEngine(t, "excel", 50, false)
	v, res := eng.CellValue(s, cell.Addr{Row: 1, Col: workload.ColID})
	if v.Num != 2 {
		t.Errorf("CellValue = %v", v)
	}
	if res.Work.Count(costmodel.APICall) != 1 {
		t.Error("one API call per cell read (§5.2)")
	}
	vals, res2 := eng.ReadColumn(s, workload.ColID, 1, 50)
	if len(vals) != 50 || vals[49].Num != 51 {
		t.Errorf("ReadColumn = %d vals", len(vals))
	}
	if res2.Work.Count(costmodel.APICall) != 50 {
		t.Errorf("naive ReadColumn API calls = %d, want 50", res2.Work.Count(costmodel.APICall))
	}
}

func TestReadColumnBulkOptimized(t *testing.T) {
	eng, s := newTestEngine(t, "optimized", 50, false)
	vals, res := eng.ReadColumn(s, workload.ColID, 1, 50)
	if len(vals) != 50 || vals[0].Num != 2 {
		t.Fatalf("bulk read = %v...", vals[:1])
	}
	if got := res.Work.Count(costmodel.APICall); got != 1 {
		t.Errorf("bulk ReadColumn API calls = %d, want 1", got)
	}
}

func TestRecalculate(t *testing.T) {
	eng, s := newTestEngine(t, "excel", 30, true)
	// Corrupt a cached value, then force recalc.
	s.SetCachedValue(cell.Addr{Row: 1, Col: workload.ColFormula0}, cell.Num(42))
	if _, err := eng.Recalculate(s); err != nil {
		t.Fatal(err)
	}
	v := s.Value(cell.Addr{Row: 1, Col: workload.ColFormula0})
	if v.Num == 42 {
		t.Error("Recalculate did not refresh the cache")
	}
}
