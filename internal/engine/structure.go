package engine

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/costmodel"
	"repro/internal/formula"
	"repro/internal/sheet"
)

// Structural row edits: InsertRows and DeleteRows. These are the changes §6
// singles out as hostile to positional indexing ("indexing may be
// problematic if it explicitly uses or encodes the row or column number,
// because a single change (adding a row) can lead to an update of the
// entire index"): every reference at or below the edit point must be
// rewritten, the calculation chain re-sequenced and every row-keyed index
// rebuilt. Only the naive profiles recompute every formula; under
// SortRecalcAnalysis §6's sort necessity analysis (evalNecessary) applies.

// InsertRows opens n blank rows before display row `at` (0-based sheet
// row), adjusting every formula reference on the sheet.
func (e *Engine) InsertRows(s *sheet.Sheet, at, n int) (Result, error) {
	return e.structEdit(s, at, n, true)
}

// DeleteRows removes rows [at, at+n); formulae referencing deleted cells
// evaluate to #REF!.
func (e *Engine) DeleteRows(s *sheet.Sheet, at, n int) (Result, error) {
	return e.structEdit(s, at, -n, true)
}

// InsertCols opens n blank columns before column `at`, adjusting every
// formula reference on the sheet.
func (e *Engine) InsertCols(s *sheet.Sheet, at, n int) (Result, error) {
	return e.structEdit(s, at, n, false)
}

// DeleteCols removes columns [at, at+n); formulae referencing deleted
// cells evaluate to #REF!.
func (e *Engine) DeleteCols(s *sheet.Sheet, at, n int) (Result, error) {
	return e.structEdit(s, at, -n, false)
}

func (e *Engine) structEdit(s *sheet.Sheet, at, delta int, rowAxis bool) (Result, error) {
	if s == nil {
		return Result{}, errSheet("row edit")
	}
	if at < 0 || delta == 0 {
		return Result{}, fmt.Errorf("engine: structural edit at %d by %d is invalid", at, delta)
	}
	t := e.begin(OpRowEdit)

	// Phase 1: adjust every formula for the upcoming edit, one fill group
	// at a time — what real engines achieve with shared formula groups.
	// A cell whose references all ride the edit with their host
	// (formula.Edit.Rides) keeps its group's (Code, Origin) pair, so the
	// group stays one *Compiled. Every other cell (a range straddling the
	// edit, a reference into a deleted band, an anchor the edit moves)
	// gets its own adjusted text, compiled once per distinct text and
	// anchored at its post-edit address. Hosts the edit deletes need
	// nothing. The profiles still charge a compile and a write per formula.
	//
	// The same pass runs the necessity test: a riding formula reads the
	// same cells unless a range of it changes size.
	edit := formula.Edit{Boundary: at, Delta: delta, Rows: rowAxis}
	var need map[cell.Addr]bool
	if e.prof.Opt.SortRecalcAnalysis {
		need = make(map[cell.Addr]bool)
	}
	type rewrite struct {
		at cell.Addr
		fc sheet.Formula
	}
	var rewrites []rewrite
	compiled := make(map[string]*formula.Compiled)
	var failed error
	formulas := int64(s.FormulaCount())
	s.EachFormula(func(a cell.Addr, fc sheet.Formula) bool {
		post, dead := edit.MoveAddr(a)
		if dead {
			return true
		}
		dr, dc := fc.DeltaAt(a)
		rides := edit.Rides(fc.Code, dr, dc, a)
		if need != nil && (!rides || edit.Resizes(fc.Code, dr, dc) || fc.Code.Volatile || fc.Code.External) {
			need[post] = true
		}
		if rides {
			return true
		}
		text := edit.Adjust(fc.Code, dr, dc)
		code, ok := compiled[text]
		if !ok {
			var err error
			if code, err = formula.Compile(text); err != nil {
				failed = fmt.Errorf("engine: adjusting formula at %s: %w", a, err)
				return false
			}
			compiled[text] = code
		}
		rewrites = append(rewrites, rewrite{at: a, fc: sheet.Formula{Code: code, Origin: post}})
		return true
	})
	if failed != nil {
		return t.finish(), failed
	}
	for _, rw := range rewrites {
		s.AttachFormula(rw.at, rw.fc)
	}
	e.meter.Add(costmodel.FormulaCompile, formulas)
	e.meter.Add(costmodel.CellWrite, formulas)

	// Phase 2: move the cells.
	span := int64(s.Cols())
	if !rowAxis {
		span = int64(s.Rows())
	}
	switch {
	case rowAxis && delta > 0:
		s.InsertRows(at, delta)
	case rowAxis:
		s.DeleteRows(at, -delta)
	case delta > 0:
		s.InsertCols(at, delta)
	default:
		s.DeleteCols(at, -delta)
	}
	n := delta
	if n < 0 {
		n = -n
	}
	e.meter.Add(costmodel.CellWrite, int64(n)*span)

	// Phase 3: re-sequence and recompute.
	e.rowsMoved(s)
	if need != nil {
		e.evalNecessary(s, need, &e.meter)
	} else if s.FormulaCount() > 0 {
		e.evalAll(s, &e.meter, 1, false, nil)
	}
	e.settle(&e.meter)
	if e.prof.Web {
		if err := e.netCall(int64(e.prof.WindowRows) * int64(s.Cols()) * bytesPerCell); err != nil {
			return t.finish(), err
		}
	}
	return t.finish(), nil
}
