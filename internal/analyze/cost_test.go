package analyze

import (
	"fmt"
	"testing"

	"repro/internal/cell"
	"repro/internal/formula"
	"repro/internal/graph"
	"repro/internal/sheet"
	"repro/internal/workload"
)

// TestEstimateWithinTwoOfMeasured is the acceptance test for the static
// cost model: across workload sizes, the estimated sequencing cost of a
// full recalculation must land within a factor of two of what the graph
// actually charges for AllFormulas on the same formula set.
func TestEstimateWithinTwoOfMeasured(t *testing.T) {
	for _, rows := range []int{200, 2000, 5000} {
		spec := workload.Spec{Rows: rows, Formulas: true, Seed: 7, Analysis: true}
		s := workload.Weather(spec).First()

		sites := collectSites(s)
		est := EstimateRecalcOps(sites)

		g := graph.New()
		for _, f := range sites {
			g.SetFormula(f.at, f.code.PrecedentRanges(f.dr, f.dc))
		}
		g.ResetOps() // charge only the sequencing pass
		g.AllFormulas()
		measured := g.Ops()

		if measured == 0 {
			t.Fatalf("rows=%d: measured 0 ops", rows)
		}
		ratio := float64(est) / float64(measured)
		t.Logf("rows=%d est=%d measured=%d ratio=%.3f", rows, est, measured, ratio)
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("rows=%d: estimate %d vs measured %d (ratio %.3f) outside [0.5, 2.0]",
				rows, est, measured, ratio)
		}
	}
}

func TestEstimateEmptySheet(t *testing.T) {
	if got := EstimateRecalcOps(nil); got != 0 {
		t.Errorf("EstimateRecalcOps(nil) = %d, want 0", got)
	}
}

// TestSheetReportEstimateMatchesWorkload ties the report field to the model
// on the standard analysis fixture.
func TestSheetReportEstimateMatchesWorkload(t *testing.T) {
	s := workload.Weather(workload.Spec{Rows: 500, Formulas: true, Seed: 7, Analysis: true}).First()
	sr := SheetReportFor(s, Options{})
	if sr.EstRecalcOps != EstimateRecalcOps(collectSites(s)) {
		t.Error("SheetReport estimate should equal EstimateRecalcOps over the same sites")
	}
	if sr.EstEvalCells == 0 {
		t.Error("EstEvalCells should be nonzero for a formula workload")
	}
}

// TestStatsMatchesEstimatorClassification pins the small/large range split
// shared by the built graph (graph.Stats) and the static estimator: a range
// of exactly graph.SmallRangeMax cells expands to per-cell edges, one cell
// more moves it to the interval list — and the estimator charges the extra
// interval-scan op for exactly the ranges the graph classifies large.
func TestStatsMatchesEstimatorClassification(t *testing.T) {
	build := func(rangeRows int) (graph.Stats, int64) {
		s := sheet.New("S", rangeRows+4, 4)
		text := fmt.Sprintf("=SUM(A1:A%d)", rangeRows)
		s.SetFormula(cell.Addr{Row: 0, Col: 2}, formula.MustCompile(text))
		sites := collectSites(s)
		g := graph.New()
		for _, f := range sites {
			g.SetFormula(f.at, f.code.PrecedentRanges(f.dr, f.dc))
		}
		return g.Stats(), EstimateRecalcOps(sites)
	}

	small, estSmall := build(graph.SmallRangeMax)
	if small.Formulas != 1 || small.CellEdges != graph.SmallRangeMax || small.LargeRanges != 0 {
		t.Fatalf("at the boundary: %+v, want %d cell edges and no large ranges",
			small, graph.SmallRangeMax)
	}
	large, estLarge := build(graph.SmallRangeMax + 1)
	if large.Formulas != 1 || large.CellEdges != 0 || large.LargeRanges != 1 {
		t.Fatalf("past the boundary: %+v, want one large range and no cell edges", large)
	}
	// Same formula count either side, so the estimates differ by exactly
	// the interval-scan op the estimator charges per large range.
	if estLarge != estSmall+1 {
		t.Errorf("estimate small=%d large=%d, want the large estimate one op higher",
			estSmall, estLarge)
	}
}
