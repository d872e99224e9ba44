package sheet

import (
	"repro/internal/cell"
	"repro/internal/formula"
)

// Structural row edits. Grids move raw values; Sheet additionally moves
// styles, visibility marks, and formula cells (the engine rewrites the
// formulas' references, which a pure move cannot express — see
// engine.InsertRows).

// InsertRows opens n empty rows before row `at` on a grid.
func insertRowsGrid(g Grid, at, n int) {
	switch t := g.(type) {
	case *RowGrid:
		blank := make([][]cell.Value, n)
		for i := range blank {
			blank[i] = make([]cell.Value, t.cols)
		}
		if at > len(t.rows) {
			at = len(t.rows)
		}
		t.rows = append(t.rows[:at], append(blank, t.rows[at:]...)...)
	case *ColGrid:
		if at > t.rows {
			at = t.rows
		}
		for c, col := range t.cols {
			blank := make([]cell.Value, n)
			t.cols[c] = append(col[:at], append(blank, col[at:]...)...)
		}
		t.rows += n
	}
}

// deleteRowsGrid removes rows [at, at+n) from a grid.
func deleteRowsGrid(g Grid, at, n int) {
	switch t := g.(type) {
	case *RowGrid:
		if at >= len(t.rows) {
			return
		}
		end := at + n
		if end > len(t.rows) {
			end = len(t.rows)
		}
		t.rows = append(t.rows[:at], t.rows[end:]...)
	case *ColGrid:
		if at >= t.rows {
			return
		}
		end := at + n
		if end > t.rows {
			end = t.rows
		}
		for c, col := range t.cols {
			if at < len(col) {
				e := end
				if e > len(col) {
					e = len(col)
				}
				t.cols[c] = append(col[:at], col[e:]...)
			}
		}
		t.rows -= end - at
	}
}

// InsertRows opens n blank rows before row `at`, moving values, styles,
// visibility marks, and formula attachments down. Formula references are
// NOT adjusted here; the engine owns reference semantics.
func (s *Sheet) InsertRows(at, n int) {
	if n <= 0 || at < 0 {
		return
	}
	insertRowsGrid(s.grid, at, n)
	s.remapCells(formula.Edit{Boundary: at, Delta: n, Rows: true})
	if at <= len(s.hidden) {
		blank := make([]bool, n)
		s.hidden = append(s.hidden[:at], append(blank, s.hidden[at:]...)...)
	}
}

// DeleteRows removes rows [at, at+n); formula cells inside the region
// disappear with their rows.
func (s *Sheet) DeleteRows(at, n int) {
	if n <= 0 || at < 0 {
		return
	}
	deleteRowsGrid(s.grid, at, n)
	s.remapCells(formula.Edit{Boundary: at, Delta: -n, Rows: true})
	if at < len(s.hidden) {
		end := at + n
		if end > len(s.hidden) {
			end = len(s.hidden)
		}
		s.hidden = append(s.hidden[:at], s.hidden[end:]...)
	}
}

// insertColsGrid opens n empty columns before column `at` on a grid.
func insertColsGrid(g Grid, at, n int) {
	switch t := g.(type) {
	case *RowGrid:
		if at > t.cols {
			at = t.cols
		}
		for r, row := range t.rows {
			if at > len(row) {
				continue
			}
			blank := make([]cell.Value, n)
			t.rows[r] = append(row[:at], append(blank, row[at:]...)...)
		}
		t.cols += n
	case *ColGrid:
		if at > len(t.cols) {
			at = len(t.cols)
		}
		blank := make([][]cell.Value, n)
		for i := range blank {
			blank[i] = make([]cell.Value, t.rows)
		}
		t.cols = append(t.cols[:at], append(blank, t.cols[at:]...)...)
	}
}

// deleteColsGrid removes columns [at, at+n) from a grid.
func deleteColsGrid(g Grid, at, n int) {
	switch t := g.(type) {
	case *RowGrid:
		if at >= t.cols {
			return
		}
		end := at + n
		if end > t.cols {
			end = t.cols
		}
		for r, row := range t.rows {
			if at >= len(row) {
				continue
			}
			e := end
			if e > len(row) {
				e = len(row)
			}
			t.rows[r] = append(row[:at], row[e:]...)
		}
		t.cols -= end - at
	case *ColGrid:
		if at >= len(t.cols) {
			return
		}
		end := at + n
		if end > len(t.cols) {
			end = len(t.cols)
		}
		t.cols = append(t.cols[:at], t.cols[end:]...)
	}
}

// InsertCols opens n blank columns before column `at`.
func (s *Sheet) InsertCols(at, n int) {
	if n <= 0 || at < 0 {
		return
	}
	insertColsGrid(s.grid, at, n)
	s.remapCells(formula.Edit{Boundary: at, Delta: n})
}

// DeleteCols removes columns [at, at+n); attachments inside disappear.
func (s *Sheet) DeleteCols(at, n int) {
	if n <= 0 || at < 0 {
		return
	}
	deleteColsGrid(s.grid, at, n)
	s.remapCells(formula.Edit{Boundary: at, Delta: -n})
}

// remapCells moves formula and style attachments through a structural
// edit (formula.Edit.Move, the one shift rule); attachments in a deleted
// band disappear.
func (s *Sheet) remapCells(e formula.Edit) {
	if len(s.formulas) > 0 {
		nf := make(map[cell.Addr]Formula, len(s.formulas))
		for a, fc := range s.formulas {
			if to, dead := e.MoveAddr(a); !dead {
				nf[to] = fc
			}
		}
		s.formulas = nf
	}
	if len(s.volatiles) > 0 {
		nv := make(map[cell.Addr]bool, len(s.volatiles))
		for a := range s.volatiles {
			if to, dead := e.MoveAddr(a); !dead {
				nv[to] = true
			}
		}
		s.volatiles = nv
	}
	if len(s.externals) > 0 {
		ne := make(map[cell.Addr]bool, len(s.externals))
		for a := range s.externals {
			if to, dead := e.MoveAddr(a); !dead {
				ne[to] = true
			}
		}
		s.externals = ne
	}
	if len(s.styles) > 0 {
		ns := make(map[cell.Addr]cell.Style, len(s.styles))
		for a, st := range s.styles {
			if to, dead := e.MoveAddr(a); !dead {
				ns[to] = st
			}
		}
		s.styles = ns
	}
}
