package absint

import (
	"math"

	"repro/internal/cell"
	"repro/internal/sheet"
	"repro/internal/typecheck"
)

// ColumnCert is the per-column certificate view of an inference: the
// abstract join over the column's used row span plus the trailing
// certainly-numeric run and its sortedness. The engine's version-keyed
// ValueCert wraps these (internal/engine/valuecert.go); the regions and
// absint reports render them.
type ColumnCert struct {
	Col int `json:"col"`
	// R0..R1 is the used row span (first to last cell holding a value or
	// formula, inclusive).
	R0 int `json:"r0"`
	R1 int `json:"r1"`
	// Ab and Num are the abstract join over the used span.
	Ab  typecheck.Abstract `json:"-"`
	Num Interval           `json:"num"`
	// NumericFrom is the smallest row such that every cell of
	// [NumericFrom, R1] is certainly an error-free Number — the run over
	// which numeric kernels may elide coercion and error branches. R1+1
	// when even the last cell fails.
	NumericFrom int `json:"numericFrom"`
	// NumericOnly reports NumericFrom == R0 (the whole span qualifies).
	NumericOnly bool `json:"numericOnly"`
	// ErrorFree reports that no cell of the used span can evaluate to an
	// error.
	ErrorFree bool `json:"errorFree"`
	// Dir is the statically certified sortedness of the numeric run. Only
	// columns of certified constants (value cells, folded formulas) order
	// statically; dynamic columns stay DirNone here and rely on the
	// engine's version-keyed rescan.
	Dir Dir `json:"dir"`
	// HasFormula reports whether the span contains any formula cell.
	HasFormula bool `json:"hasFormula"`
}

// CoversAsc reports whether the certificate proves rows [r0, r1] of the
// column are an ascending all-Number run — the precondition for serving a
// lookup over that span by binary search.
func (cc *ColumnCert) CoversAsc(r0, r1 int) bool {
	return cc.Dir == DirAsc && r0 >= cc.NumericFrom && r1 <= cc.R1 && r0 <= r1
}

// SheetCert is the certificate set distilled from one inference: one
// ColumnCert per used column plus the certified constants. Constants are
// static claims about the current formula set and inputs; the engine
// guards each against the cached value at issuance and keys the result by
// version, so a stale certificate is never consulted.
type SheetCert struct {
	Formulas int          `json:"formulas"`
	Cyclic   int          `json:"cyclic"`
	Columns  []ColumnCert `json:"columns"`
	// Consts maps formula cells to their certified constant results.
	Consts map[cell.Addr]cell.Value `json:"-"`
	// ConstDropped counts constants discarded because the formula is
	// volatile (a volatile cell recomputes every pass, so even an exact
	// current value is not a stable claim).
	ConstDropped int `json:"constDropped"`
}

// Column returns the certificate for the given column, or nil when the
// column has no used cells.
func (sc *SheetCert) Column(col int) *ColumnCert {
	for i := range sc.Columns {
		if sc.Columns[i].Col == col {
			return &sc.Columns[i]
		}
	}
	return nil
}

// Certify distills the inference into per-column certificates and the
// certified-constant map.
func (inf *Inference) Certify() *SheetCert {
	sc := &SheetCert{
		Formulas: len(inf.sites),
		Cyclic:   len(inf.cyclic),
		Consts:   make(map[cell.Addr]cell.Value),
	}
	for i := range inf.sites {
		st := &inf.sites[i]
		v, ok := inf.byCell[st.at]
		if !ok || v.Const == nil {
			continue
		}
		if st.code.Volatile {
			sc.ConstDropped++
			continue
		}
		sc.Consts[st.at] = *v.Const
	}
	rows, cols := inf.s.Rows(), inf.s.Cols()
	for col := 0; col < cols; col++ {
		if cc, used := inf.columnCert(col, rows); used {
			sc.Columns = append(sc.Columns, cc)
		}
	}
	return sc
}

// columnCert distills one column of the inference over rows [0, rows);
// used is false when the column holds no value or formula.
func (inf *Inference) columnCert(col, rows int) (cc ColumnCert, used bool) {
	r0, r1 := -1, -1
	hasFormula := false
	for row := 0; row < rows; row++ {
		a := cell.Addr{Row: row, Col: col}
		_, isFormula := inf.byCell[a]
		if !isFormula && inf.s.Value(a).IsEmpty() {
			continue
		}
		if r0 < 0 {
			r0 = row
		}
		r1 = row
		hasFormula = hasFormula || isFormula
	}
	if r0 < 0 {
		return ColumnCert{}, false
	}
	cc = ColumnCert{Col: col, R0: r0, R1: r1, NumericFrom: r1 + 1, HasFormula: hasFormula}
	j := inf.JoinSpan(col, r0, r1).norm()
	cc.Ab, cc.Num = j.Ab, j.Num
	cc.ErrorFree = j.Ab.Errs == 0
	for row := r1; row >= r0; row-- {
		v := inf.At(cell.Addr{Row: row, Col: col}).norm()
		if v.Ab != (typecheck.Abstract{Kinds: typecheck.KNumber}) || v.Num.IsEmpty() {
			break
		}
		cc.NumericFrom = row
	}
	cc.NumericOnly = cc.NumericFrom == r0
	cc.Dir = inf.scanDir(col, cc.NumericFrom, r1)
	return cc, true
}

// ValueColumnCert returns the certificate InferSheet(s).Certify() issues
// for a column that holds no formula cell, computed from the stored values
// alone: ok is false when the column holds a formula (its abstract values
// need the whole-sheet fixpoint), cc is nil when the column is unused. The
// shortcut is exact because an inference abstracts every non-formula cell
// as Exactly(s.Value(a)) and the certificate of a column reads only that
// column's cells.
func ValueColumnCert(s *sheet.Sheet, col int) (cc *ColumnCert, ok bool) {
	rows := s.Rows()
	for row := 0; row < rows; row++ {
		if _, isFormula := s.Formula(cell.Addr{Row: row, Col: col}); isFormula {
			return nil, false
		}
	}
	c, used := (&Inference{s: s}).columnCert(col, rows)
	if !used {
		return nil, true
	}
	return &c, true
}

// scanDir certifies the sortedness of a certainly-numeric run by interval
// separation: the run is ascending when each cell's upper bound lies at or
// below its successor's lower bound (non-strict, matching the evaluator's
// duplicate-tolerant scans), descending symmetrically. Only point-like
// intervals — certified constants and value cells — can order, which is
// exactly the static case; dynamically sorted columns are certified by the
// engine's rescan instead.
func (inf *Inference) scanDir(col, r0, r1 int) Dir {
	if r0 > r1 {
		return DirNone
	}
	asc, desc := true, true
	prev := inf.At(cell.Addr{Row: r0, Col: col}).norm()
	for row := r0 + 1; row <= r1 && (asc || desc); row++ {
		cur := inf.At(cell.Addr{Row: row, Col: col}).norm()
		if prev.Num.IsEmpty() || cur.Num.IsEmpty() {
			return DirNone
		}
		if prev.Num.Hi > cur.Num.Lo {
			asc = false
		}
		if prev.Num.Lo < cur.Num.Hi {
			desc = false
		}
		prev = cur
	}
	switch {
	case asc:
		return DirAsc
	case desc:
		return DirDesc
	default:
		return DirNone
	}
}

// SortedAscRun is the concrete check behind every ascending certificate:
// rows [r0, r1] of the column each hold a Number and are non-decreasing.
// The engine's lazy rescan and the differential tests share it so the
// certified precondition and the checked one cannot drift apart.
func SortedAscRun(s *sheet.Sheet, col, r0, r1 int) bool {
	prev := math.Inf(-1)
	for row := r0; row <= r1; row++ {
		v := s.Value(cell.Addr{Row: row, Col: col})
		if v.Kind != cell.Number || v.Num < prev {
			return false
		}
		prev = v.Num
	}
	return true
}
