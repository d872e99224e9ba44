package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/costmodel"
	"repro/internal/plan"
	"repro/internal/report"
	"repro/internal/sheet"
)

// planPredictedEntry is one sheet's predicted steady-state recalculation
// work (the meters are excluded from the plan's own JSON form).
type planPredictedEntry struct {
	Sheet string `json:"sheet"`
	// CellTouch and FormulaEval are the dominant predicted counts.
	CellTouch   int64 `json:"cell_touch"`
	FormulaEval int64 `json:"formula_eval"`
	// ExtCellTouch is the cross-sheet subset re-evaluated per settled
	// refresh round.
	ExtCellTouch int64 `json:"ext_cell_touch"`
	// SimNS is the predicted work scalarized by the planning coefficients.
	SimNS time.Duration `json:"sim_ns"`
}

// planReport is the workbook-level report: the full explainable plan, its
// certificate, and the per-sheet predictions.
type planReport struct {
	Plan      *plan.Plan           `json:"plan"`
	Predicted []planPredictedEntry `json:"predicted"`
	// MainRecalc is PredictedRecalc of the first sheet in CellTouch units.
	MainRecalc int64 `json:"main_recalc_cell_touch"`
}

// planReportFor derives and certifies the cost-based recalculation plan
// (internal/plan) for a workbook: per-column statistics, the priced
// strategy at every operation site with the alternatives it beat, and the
// predicted steady-state work per sheet.
func planReportFor(wb *sheet.Workbook) *planReport {
	p := plan.Build(wb, plan.Options{})
	plan.Certify(p, wb)
	rep := &planReport{Plan: p}
	coeff := plan.DefaultCoefficients()
	for _, sp := range p.Sheets {
		pm := sp.Predicted
		ext := sp.PredictedExt
		rep.Predicted = append(rep.Predicted, planPredictedEntry{
			Sheet:        sp.Sheet,
			CellTouch:    pm.Count(costmodel.CellTouch),
			FormulaEval:  pm.Count(costmodel.FormulaEval),
			ExtCellTouch: ext.Count(costmodel.CellTouch),
			SimNS:        coeff.Time(&pm),
		})
	}
	if first := wb.First(); first != nil {
		m := p.PredictedRecalc(first.Name)
		rep.MainRecalc = m.Count(costmodel.CellTouch)
	}
	return rep
}

// writeText renders the report for terminals: the plan and certificate
// summary, then per sheet its predicted work, column statistics and
// choices (each list capped at maxList), then any certificate violations.
func (rep *planReport) writeText(w io.Writer, maxList int) error {
	cert := rep.Plan.Certificate
	status := "valid"
	if cert != nil && !cert.Valid {
		status = fmt.Sprintf("INVALID (%d violation(s))", len(cert.Violations))
	}
	checked := 0
	if cert != nil {
		checked = cert.Checked
	}
	l := report.NewLines(w)
	l.Printf("plan: %d sheet(s), %d choice(s); certificate %s (%d checks)\n",
		len(rep.Plan.Sheets), len(rep.Plan.Choices()), status, checked)
	l.Printf("predicted main-sheet recalc: %d cell touch(es)\n", rep.MainRecalc)
	for i, sp := range rep.Plan.Sheets {
		writeSheetPlanText(l, sp, rep.Predicted[i], maxList)
	}
	if cert != nil && len(cert.Violations) > 0 {
		l.Println("\nviolations:")
		for _, v := range cert.Violations {
			l.Printf("  %s\n", v)
		}
	}
	return l.Err()
}

func writeSheetPlanText(l *report.Lines, sp *plan.SheetPlan, pred planPredictedEntry, maxList int) {
	l.Printf("\nsheet %q: %d rows x %d cols, %d formula(s), %d external, %d region(s)\n",
		sp.Sheet, sp.Stats.Rows, sp.Stats.Cols, sp.Stats.Formulas, sp.Stats.External, sp.Stats.Regions)
	l.Printf("  predicted: %d cell touch(es), %d eval(s), %d external touch(es), sim %v\n",
		pred.CellTouch, pred.FormulaEval, pred.ExtCellTouch, pred.SimNS)
	if len(sp.Stats.Columns) > 0 {
		l.Println("  statistics:")
	}
	report.List(l, sp.Stats.Columns, maxList, func(cs plan.ColumnStats) {
		l.Printf("    col %-3d rows=%-7d nonempty=%-7d numeric=%-7d distinct≈%-6d sampled=%d\n",
			cs.Col, cs.Rows, cs.NonEmpty, cs.Numeric, cs.Distinct, cs.Sampled)
	})
	if len(sp.Choices) > 0 {
		l.Println("  choices:")
	}
	report.List(l, sp.Choices, maxList, func(c *plan.Choice) {
		line := fmt.Sprintf("    %-11s %-8s -> %-17s", c.Kind, c.Fn, string(c.Chosen))
		if alt, ok := c.Alternative(); ok {
			if chosen, okc := chosenSim(c); okc && chosen > 0 {
				line += fmt.Sprintf(" (vs %s %.2fx)", alt.Strategy, float64(alt.Sim)/float64(chosen))
			}
		}
		l.Println(line + "  " + c.Basis)
	})
}

// chosenSim returns the chosen candidate's simulated cost.
func chosenSim(c *plan.Choice) (time.Duration, bool) {
	for _, cand := range c.Candidates {
		if cand.Strategy == c.Chosen {
			return cand.Sim, true
		}
	}
	return 0, false
}
