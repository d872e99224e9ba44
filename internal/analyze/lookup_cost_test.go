// The cost-model validation lives in an external test package: it
// compares the static estimate against the real optimized engine.
package analyze_test

import (
	"fmt"
	"testing"

	"repro/internal/analyze"
	"repro/internal/cell"
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/formula"
	"repro/internal/sheet"
)

// TestEstEvalCellsLookupBound holds the lookup-aware read estimate within
// a factor of two of the cells the optimized engine actually touches on a
// lookup-heavy workload — the precision the "should I sort / index" advice
// needs. Before the fix the estimate charged every MATCH a full linear
// scan and overshot the certified engine by orders of magnitude.
func TestEstEvalCellsLookupBound(t *testing.T) {
	const rows, lookups = 4096, 64
	s := sheet.New("lk", rows+lookups, 4)
	for r := 0; r < rows; r++ {
		s.SetValue(cell.Addr{Row: r, Col: 0}, cell.Num(float64(r*2)))
	}
	for i := 0; i < lookups; i++ {
		text := fmt.Sprintf("=MATCH(%d,A1:A%d,1)", (i*61)%(rows*2), rows)
		c, err := formula.Compile(text)
		if err != nil {
			t.Fatalf("compile %q: %v", text, err)
		}
		s.SetFormula(cell.Addr{Row: rows + i, Col: 2}, c)
	}

	est := analyze.SheetReportFor(s, analyze.Options{}).EstEvalCells

	wb := sheet.NewWorkbook()
	if err := wb.Add(s); err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Profiles()["optimized"])
	if err := eng.Install(wb); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Recalculate(s)
	if err != nil {
		t.Fatal(err)
	}
	touched := res.Work.Count(costmodel.CellTouch)

	if touched == 0 || est == 0 {
		t.Fatalf("degenerate measurement: est=%d touched=%d", est, touched)
	}
	if est > 2*touched || touched > 2*est {
		t.Errorf("EstEvalCells = %d vs %d cells touched by the certified engine; want within 2x", est, touched)
	}
	// The old model's charge, for scale: every lookup pays the full scan.
	linear := int64(lookups * rows)
	if linear < 4*est {
		t.Errorf("linear-scan model charges %d, expected it to dwarf the certified estimate %d", linear, est)
	}
	t.Logf("est=%d touched=%d linear-model=%d", est, touched, linear)
}
