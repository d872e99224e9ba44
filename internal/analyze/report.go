package analyze

import (
	"io"
	"sort"

	"repro/internal/report"
)

// WriteText renders the report for terminals: a workbook summary line, then
// per sheet a header, the rule tally, and the findings most-severe-first.
func (r *Report) WriteText(w io.Writer) error {
	l := report.NewLines(w)
	l.Printf("workbook: %d sheet(s), %d formula(s), %d finding(s), est recalc ops %d\n",
		len(r.Sheets), r.Formulas, r.Findings, r.EstRecalcOps)
	for _, sr := range r.Sheets {
		l.Printf("\nsheet %q: %d formula(s), %d region(s) (%.1fx), est recalc ops %d, est eval cells %d\n",
			sr.Sheet, sr.Formulas, sr.Regions, sr.CompressionRatio, sr.EstRecalcOps, sr.EstEvalCells)
		if len(sr.RuleCounts) > 0 {
			rules := make([]string, 0, len(sr.RuleCounts))
			for rule := range sr.RuleCounts {
				rules = append(rules, rule)
			}
			sort.Strings(rules)
			l.Printf("  rules:")
			for _, rule := range rules {
				l.Printf(" %s=%d", rule, sr.RuleCounts[rule])
			}
			l.Println()
		}
		for _, f := range sr.Findings {
			l.Printf("  %-4s %-15s %-5s %s\n", f.Severity, f.Rule, f.Cell, f.Message)
		}
		if dropped := sr.droppedFindings(); dropped > 0 {
			l.Printf("  ... %d finding(s) beyond the per-rule cap not shown\n", dropped)
		}
	}
	return l.Err()
}

// droppedFindings is how many findings the per-rule cap suppressed.
func (sr *SheetReport) droppedFindings() int {
	total := 0
	for _, n := range sr.RuleCounts {
		total += n
	}
	return total - len(sr.Findings)
}
