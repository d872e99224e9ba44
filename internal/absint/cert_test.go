package absint_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/absint"
	"repro/internal/cell"
	"repro/internal/sheet"
	"repro/internal/workload"
)

// TestValueColumnCertMatchesInfer pins the value-only certificate shortcut
// the planner uses: for every formula-free column of the workload matrix,
// ValueColumnCert issues exactly the certificate the whole-sheet fixpoint
// does, and it declines every column holding a formula.
func TestValueColumnCertMatchesInfer(t *testing.T) {
	max := 6000
	if testing.Short() {
		max = 1000
	}
	for _, g := range generators {
		for _, rows := range workload.SizesUpTo(max) {
			g, rows := g, rows
			t.Run(fmt.Sprintf("%s/rows=%d", g.name, rows), func(t *testing.T) {
				wb := g.gen(workload.Spec{Rows: rows, Seed: 7, Formulas: true, Analysis: true})
				valueCols, formulaCols := 0, 0
				for _, s := range wb.Sheets() {
					want := absint.InferSheet(s).Certify()
					// One column past the grid: unused, so both sides say nil.
					for col := 0; col <= s.Cols(); col++ {
						got, ok := absint.ValueColumnCert(s, col)
						if hasFormula(s, col) {
							formulaCols++
							if ok {
								t.Errorf("%s col %d holds a formula, but ValueColumnCert issued %+v", s.Name, col, got)
							}
							continue
						}
						valueCols++
						if !ok {
							t.Errorf("%s col %d is formula-free, but ValueColumnCert declined it", s.Name, col)
							continue
						}
						if w := want.Column(col); !reflect.DeepEqual(got, w) {
							t.Errorf("%s col %d: ValueColumnCert = %+v, InferSheet certifies %+v", s.Name, col, got, w)
						}
					}
				}
				if valueCols == 0 || formulaCols == 0 {
					t.Fatalf("matrix point covers %d value and %d formula columns; want both", valueCols, formulaCols)
				}
			})
		}
	}
}

func hasFormula(s *sheet.Sheet, col int) bool {
	found := false
	s.EachFormula(func(a cell.Addr, _ sheet.Formula) bool {
		found = a.Col == col
		return !found
	})
	return found
}
