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
// rewritten, the calculation chain re-sequenced, every row-keyed index
// rebuilt, and — per the systems' recalculation policies — formulae
// recomputed.

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

	// Phase 1: rewrite every formula against the upcoming edit. Texts are
	// deduplicated so columns of equal-shape formulas recompile once —
	// what real engines achieve with shared formula groups.
	type rewrite struct {
		at   cell.Addr
		code *formula.Compiled
	}
	var rewrites []rewrite
	compiled := make(map[string]*formula.Compiled)
	var failed error
	s.EachFormula(func(a cell.Addr, fc sheet.Formula) bool {
		dr, dc := fc.DeltaAt(a)
		var text string
		if rowAxis {
			text = formula.AdjustForRowChange(fc.Code, dr, dc, at, delta)
		} else {
			text = formula.AdjustForColChange(fc.Code, dr, dc, at, delta)
		}
		e.meter.Add(costmodel.FormulaCompile, 1)
		code, ok := compiled[text]
		if !ok {
			var err error
			code, err = formula.Compile(text)
			if err != nil {
				failed = fmt.Errorf("engine: adjusting formula at %s: %w", a, err)
				return false
			}
			compiled[text] = code
		}
		rewrites = append(rewrites, rewrite{at: a, code: code})
		return true
	})
	if failed != nil {
		return t.finish(), failed
	}
	for _, rw := range rewrites {
		// Re-anchor so the formula has zero displacement AFTER the
		// structural move shifts its host cell: the new text was computed
		// in the post-edit frame.
		post := rw.at
		coord := &post.Row
		if !rowAxis {
			coord = &post.Col
		}
		if delta > 0 && *coord >= at {
			*coord += delta
		} else if delta < 0 && *coord >= at-delta {
			*coord += delta
		}
		s.AttachFormula(rw.at, sheet.Formula{Code: rw.code, Origin: post})
		e.meter.Add(costmodel.CellWrite, 1)
	}

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

	// Phase 3: re-sequence and recompute (all three systems treat
	// structural edits as full invalidations).
	e.rowsMoved(s)
	if s.FormulaCount() > 0 {
		e.evalAll(s, &e.meter)
	}
	e.refreshExternals(&e.meter)
	if e.prof.Web {
		if err := e.netCall(int64(e.prof.WindowRows) * int64(s.Cols()) * bytesPerCell); err != nil {
			return t.finish(), err
		}
	}
	return t.finish(), nil
}
