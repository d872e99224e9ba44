// Cost-model validation across the business workload suite, in the
// external test package that drives the real optimized engine.
package analyze_test

import (
	"testing"

	"repro/internal/analyze"
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/workload"
)

// TestEstEvalCellsWorkloadBound holds the read estimate within a factor of
// two of the cells the optimized engine actually touches, on every
// registered workload — not just the single-sheet weather dataset the
// lookup bound was first asserted on. The business workloads exercise the
// cross-sheet half of the model: ledger's summary aggregates and exact
// VLOOKUPs, inventory's two-way external chain, and gradebook's
// approximate boundary-table VLOOKUPs all read foreign sheets that
// PrecedentCells never charges.
//
// Measured work is a steady-state full recalculation of the main sheet: a
// Recalculate evaluates the host sheet's calc chain and then runs the
// external-reference refresh pass over every sheet, which is exactly the
// workbook-wide read set the summed per-sheet estimates model.
func TestEstEvalCellsWorkloadBound(t *testing.T) {
	for _, gen := range workload.Generators() {
		gen := gen
		t.Run(gen.Name, func(t *testing.T) {
			const rows = 5000
			wb := gen.Build(workload.Spec{Rows: rows, Formulas: true})
			var est int64
			for _, s := range wb.Sheets() {
				est += analyze.SheetReportFor(s, analyze.Options{}).EstEvalCells
			}

			eng := engine.New(engine.Profiles()["optimized"])
			if err := eng.Install(wb); err != nil {
				t.Fatal(err)
			}
			// Second recalculation: steady state, no first-touch index
			// builds or settling writes left to charge.
			if _, err := eng.Recalculate(wb.First()); err != nil {
				t.Fatal(err)
			}
			res, err := eng.Recalculate(wb.First())
			if err != nil {
				t.Fatal(err)
			}
			touched := res.Work.Count(costmodel.CellTouch)

			if touched == 0 || est == 0 {
				t.Fatalf("degenerate measurement: est=%d touched=%d", est, touched)
			}
			if est > 2*touched || touched > 2*est {
				t.Errorf("EstEvalCells = %d vs %d cells touched; want within 2x", est, touched)
			}
			t.Logf("est=%d touched=%d ratio=%.2f", est, touched, float64(touched)/float64(est))
		})
	}
}
