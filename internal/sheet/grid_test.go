package sheet

import (
	"testing"
	"testing/quick"

	"repro/internal/cell"
	"repro/internal/quickseed"
)

func TestGridBasics(t *testing.T) {
	for _, g := range []Grid{NewRowGrid(3, 2), NewColGrid(3, 2)} {
		if g.Rows() != 3 || g.Cols() != 2 {
			t.Errorf("%s: dims %dx%d", g.Layout(), g.Rows(), g.Cols())
		}
		a := cell.Addr{Row: 1, Col: 1}
		g.SetValue(a, cell.Num(7))
		if v := g.Value(a); v.Num != 7 {
			t.Errorf("%s: Value = %+v", g.Layout(), v)
		}
		// Out-of-bounds reads are empty, not panics.
		if v := g.Value(cell.Addr{Row: 99, Col: 99}); !v.IsEmpty() {
			t.Errorf("%s: OOB read = %+v", g.Layout(), v)
		}
		if v := g.Value(cell.Addr{Row: -1, Col: 0}); !v.IsEmpty() {
			t.Errorf("%s: negative read = %+v", g.Layout(), v)
		}
		// Writes grow the grid.
		g.SetValue(cell.Addr{Row: 5, Col: 4}, cell.Str("x"))
		if g.Rows() < 6 || g.Cols() < 5 {
			t.Errorf("%s: grow to %dx%d", g.Layout(), g.Rows(), g.Cols())
		}
	}
}

// TestGridLayoutEquivalence is the central layout property: under any
// operation sequence, RowGrid and ColGrid are observationally identical —
// layout changes cost, never behavior (§5.2).
func TestGridLayoutEquivalence(t *testing.T) {
	type op struct {
		Kind uint8
		Row  uint8
		Col  uint8
		Val  float64
	}
	f := func(ops []op, permSeed uint16) bool {
		rg := NewRowGrid(8, 8)
		cg := NewColGrid(8, 8)
		for _, o := range ops {
			a := cell.Addr{Row: int(o.Row % 12), Col: int(o.Col % 12)}
			switch o.Kind % 3 {
			case 0:
				rg.SetValue(a, cell.Num(o.Val))
				cg.SetValue(a, cell.Num(o.Val))
			case 1:
				rg.SetValue(a, cell.Str("s"))
				cg.SetValue(a, cell.Str("s"))
			case 2:
				if rg.Value(a) != cg.Value(a) {
					return false
				}
			}
		}
		// Same permutation applied to both (only when dims agree and all
		// rows materialized identically).
		rows := rg.Rows()
		if cg.Rows() < rows {
			rows = cg.Rows()
		}
		perm := make([]int, rows)
		for i := range perm {
			perm[i] = i
		}
		s := int(permSeed)
		for i := rows - 1; i > 0; i-- {
			s = (s*31 + 7) % (i + 1)
			j := s
			if j < 0 {
				j = -j
			}
			perm[i], perm[j] = perm[j], perm[i]
		}
		// Compare a sample of cells after permutation on fresh copies.
		rg2 := NewRowGrid(rows, 12)
		cg2 := NewColGrid(rows, 12)
		for r := 0; r < rows; r++ {
			for c := 0; c < 12; c++ {
				a := cell.Addr{Row: r, Col: c}
				rg2.SetValue(a, rg.Value(a))
				cg2.SetValue(a, rg.Value(a))
			}
		}
		rg2.ApplyRowPerm(perm)
		cg2.ApplyRowPerm(perm)
		for r := 0; r < rows; r++ {
			for c := 0; c < 12; c++ {
				a := cell.Addr{Row: r, Col: c}
				if rg2.Value(a) != cg2.Value(a) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickseed.Config(t, 200)); err != nil {
		t.Error(err)
	}
}

func TestApplyRowPermMoves(t *testing.T) {
	for _, g := range []Grid{NewRowGrid(3, 1), NewColGrid(3, 1)} {
		for r := 0; r < 3; r++ {
			g.SetValue(cell.Addr{Row: r}, cell.Num(float64(r)))
		}
		g.ApplyRowPerm([]int{2, 0, 1})
		want := []float64{2, 0, 1}
		for r := 0; r < 3; r++ {
			if v := g.Value(cell.Addr{Row: r}); v.Num != want[r] {
				t.Errorf("%s: row %d = %v, want %v", g.Layout(), r, v.Num, want[r])
			}
		}
	}
}

func TestColGridColumn(t *testing.T) {
	g := NewColGrid(4, 2)
	g.SetValue(cell.Addr{Row: 2, Col: 1}, cell.Num(9))
	col := g.Column(1)
	if len(col) != 4 || col[2].Num != 9 {
		t.Errorf("Column = %v", col)
	}
	if g.Column(5) != nil || g.Column(-1) != nil {
		t.Error("out-of-range column should be nil")
	}
}
