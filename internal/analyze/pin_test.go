package analyze

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/workload"
)

// TestPinWorkloadEstimates pins the analyzer's per-sheet figures on every
// registered workload at two sizes. The cross-sheet VLOOKUP pricing on
// ledger, inventory and gradebook is otherwise held only by the 2x bound
// of TestEstEvalCellsWorkloadBound, so a pricing or classification change
// that moves these numbers must show up here and be explained.
func TestPinWorkloadEstimates(t *testing.T) {
	want := []struct {
		workload       string
		rows           int
		sheet          string
		evalCells, ops int64
		ruleCounts     string
	}{
		{"weather", 200, "weather", 1400, 18200, ""},
		{"weather", 1000, "weather", 7000, 105000, ""},
		{"ledger", 200, "ledger", 1600, 4600, "parallel-blocker=2"},
		{"ledger", 200, "accounts", 0, 0, ""},
		{"ledger", 200, "summary", 3020, 72, "parallel-blocker=12"},
		{"ledger", 1000, "ledger", 8000, 27000, "parallel-blocker=2"},
		{"ledger", 1000, "accounts", 0, 0, ""},
		{"ledger", 1000, "summary", 15020, 72, "parallel-blocker=12"},
		{"inventory", 200, "inventory", 1800, 4600, "parallel-blocker=2"},
		{"inventory", 200, "products", 6020, 140, "parallel-blocker=20"},
		{"inventory", 1000, "inventory", 9000, 27000, "parallel-blocker=2"},
		{"inventory", 1000, "products", 30020, 140, "parallel-blocker=20"},
		{"gradebook", 200, "scores", 1200, 2000, "parallel-blocker=1"},
		{"gradebook", 200, "grades", 0, 0, ""},
		{"gradebook", 1000, "scores", 6000, 12000, "parallel-blocker=1"},
		{"gradebook", 1000, "grades", 0, 0, ""},
	}
	i := 0
	for _, gen := range workload.Generators() {
		for _, rows := range []int{200, 1000} {
			wb := gen.Build(workload.Spec{Rows: rows, Formulas: true})
			for _, s := range wb.Sheets() {
				if i >= len(want) {
					t.Fatalf("more sheets than pinned rows: %s/%d/%s", gen.Name, rows, s.Name)
				}
				w := want[i]
				i++
				sr := SheetReportFor(s, Options{})
				got := fmt.Sprintf("%s/%d/%s eval=%d ops=%d rules=%s",
					gen.Name, rows, s.Name, sr.EstEvalCells, sr.EstRecalcOps, ruleCountText(sr.RuleCounts))
				exp := fmt.Sprintf("%s/%d/%s eval=%d ops=%d rules=%s",
					w.workload, w.rows, w.sheet, w.evalCells, w.ops, w.ruleCounts)
				if got != exp {
					t.Errorf("got  %s\nwant %s", got, exp)
				}
			}
		}
	}
	if i != len(want) {
		t.Errorf("pinned %d sheets, saw %d", len(want), i)
	}
}

// ruleCountText renders rule counts as "id=n" pairs in ID order.
func ruleCountText(counts map[string]int) string {
	ids := make([]string, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := ""
	for _, id := range ids {
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", id, counts[id])
	}
	return out
}
