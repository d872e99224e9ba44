package sheet

import (
	"fmt"
	"strconv"

	"repro/internal/cell"
	"repro/internal/formula"
)

// Sheet is one worksheet: a grid of displayed values, the formulae behind
// formula cells, per-cell styles, and per-row visibility (set by filters).
// The grid always holds the *displayed* value of every cell; for a formula
// cell that is its cached result, mirroring how all three benchmarked
// systems materialize formula results in the cell (§2.1).
type Sheet struct {
	// Name is the worksheet's tab name.
	Name string

	grid      Grid
	formulas  map[cell.Addr]Formula
	volatiles map[cell.Addr]bool // formula cells that recompute every pass
	externals map[cell.Addr]bool // formula cells with cross-sheet references
	styles    map[cell.Addr]cell.Style
	hidden    []bool // hidden[r] == true when row r is filtered out
}

// Formula is a compiled formula attached to a cell, together with the
// address its text was authored at. When the hosting cell moves (sort,
// copy-paste) the compiled code is untouched; evaluation translates
// relative references by the displacement from Origin — the R1C1 trick real
// engines use instead of rewriting formula text.
type Formula struct {
	Code   *formula.Compiled
	Origin cell.Addr
}

// DeltaAt returns the displacement of the formula when hosted at a.
func (f Formula) DeltaAt(a cell.Addr) (dr, dc int) {
	return a.Row - f.Origin.Row, a.Col - f.Origin.Col
}

// New returns an empty sheet with a row-major grid of the given size.
func New(name string, rows, cols int) *Sheet {
	return NewWithGrid(name, NewRowGrid(rows, cols))
}

// NewWithGrid returns an empty sheet over a caller-supplied grid; the
// layout experiment passes a ColGrid here.
func NewWithGrid(name string, g Grid) *Sheet {
	return &Sheet{
		Name:      name,
		grid:      g,
		formulas:  make(map[cell.Addr]Formula),
		volatiles: make(map[cell.Addr]bool),
		externals: make(map[cell.Addr]bool),
		styles:    make(map[cell.Addr]cell.Style),
	}
}

// Grid returns the underlying grid.
func (s *Sheet) Grid() Grid { return s.grid }

// Rows returns the number of materialized rows.
func (s *Sheet) Rows() int { return s.grid.Rows() }

// Cols returns the number of materialized columns.
func (s *Sheet) Cols() int { return s.grid.Cols() }

// Value implements formula.Source: the displayed value at a.
func (s *Sheet) Value(a cell.Addr) cell.Value { return s.grid.Value(a) }

// SetValue stores a plain value, clearing any formula previously at a.
func (s *Sheet) SetValue(a cell.Addr, v cell.Value) {
	delete(s.formulas, a)
	delete(s.volatiles, a)
	delete(s.externals, a)
	s.grid.SetValue(a, v)
}

// SetFormula attaches a compiled formula at a, recording a as its origin.
// The displayed value is NOT computed here; the engine evaluates and caches
// it via SetCachedValue so that computation is metered.
func (s *Sheet) SetFormula(a cell.Addr, f *formula.Compiled) {
	s.AttachFormula(a, Formula{Code: f, Origin: a})
}

// AttachFormula places an existing Formula (keeping its origin) at a; paste
// uses this so relative references shift by the displacement naturally.
func (s *Sheet) AttachFormula(a cell.Addr, f Formula) {
	s.formulas[a] = f
	if f.Code.Volatile {
		s.volatiles[a] = true
	} else {
		delete(s.volatiles, a)
	}
	if f.Code.External {
		s.externals[a] = true
	} else {
		delete(s.externals, a)
	}
	if s.grid.Value(a).IsEmpty() {
		s.grid.SetValue(a, cell.Value{}) // materialize the cell
	}
}

// SetCachedValue stores the evaluated result of the formula at a without
// disturbing the formula itself.
func (s *Sheet) SetCachedValue(a cell.Addr, v cell.Value) { s.grid.SetValue(a, v) }

// Formula returns the formula at a; ok is false for a value cell.
func (s *Sheet) Formula(a cell.Addr) (Formula, bool) {
	f, ok := s.formulas[a]
	return f, ok
}

// FormulaCount returns the number of formula cells on the sheet.
func (s *Sheet) FormulaCount() int { return len(s.formulas) }

// EachFormula visits every formula cell. Iteration order is unspecified.
func (s *Sheet) EachFormula(f func(a cell.Addr, fc Formula) bool) {
	for a, c := range s.formulas {
		if !f(a, c) {
			return
		}
	}
}

// ClearFormula removes the formula at a, keeping the displayed value (used
// by the Formula-value -> Value-only conversion of §3.2).
func (s *Sheet) ClearFormula(a cell.Addr) {
	delete(s.formulas, a)
	delete(s.volatiles, a)
	delete(s.externals, a)
}

// VolatileCells returns the formula cells containing volatile functions
// (NOW, RAND, ...), which every calculation pass must refresh.
func (s *Sheet) VolatileCells() []cell.Addr {
	if len(s.volatiles) == 0 {
		return nil
	}
	out := make([]cell.Addr, 0, len(s.volatiles))
	for a := range s.volatiles {
		out = append(out, a)
	}
	return out
}

// ExternalCount returns the number of formula cells with cross-sheet
// references — the allocation-free guard for the post-operation refresh.
func (s *Sheet) ExternalCount() int { return len(s.externals) }

// ExternalCells returns the formula cells containing cross-sheet
// references, which the engine refreshes after every value-mutating
// operation (their precedents are invisible to the sheet-local graph).
func (s *Sheet) ExternalCells() []cell.Addr {
	if len(s.externals) == 0 {
		return nil
	}
	out := make([]cell.Addr, 0, len(s.externals))
	for a := range s.externals {
		out = append(out, a)
	}
	return out
}

// Style returns the style at a (zero style when unset).
func (s *Sheet) Style(a cell.Addr) cell.Style { return s.styles[a] }

// SetStyle stores the style at a; setting the zero style removes the entry.
func (s *Sheet) SetStyle(a cell.Addr, st cell.Style) {
	if st.IsZero() {
		delete(s.styles, a)
		return
	}
	s.styles[a] = st
}

// StyledCellCount returns the number of cells with a non-default style.
func (s *Sheet) StyledCellCount() int { return len(s.styles) }

// RowHidden reports whether row r is hidden by a filter.
func (s *Sheet) RowHidden(r int) bool { return r < len(s.hidden) && s.hidden[r] }

// SetRowHidden hides or shows row r.
func (s *Sheet) SetRowHidden(r int, hidden bool) {
	if r < 0 {
		return
	}
	for r >= len(s.hidden) {
		s.hidden = append(s.hidden, false)
	}
	s.hidden[r] = hidden
}

// UnhideAll clears every filter mark.
func (s *Sheet) UnhideAll() { s.hidden = s.hidden[:0] }

// VisibleRows returns the number of rows not hidden by filters.
func (s *Sheet) VisibleRows() int {
	n := s.Rows()
	for r := 0; r < len(s.hidden) && r < s.Rows(); r++ {
		if s.hidden[r] {
			n--
		}
	}
	return n
}

// ApplyRowPerm reorders rows (grid, formulae, styles, visibility) so new
// row i holds what was at row perm[i]. Sort uses this after computing the
// permutation.
func (s *Sheet) ApplyRowPerm(perm []int) {
	s.grid.ApplyRowPerm(perm)

	inv := make([]int, len(perm))
	for i, p := range perm {
		inv[p] = i
	}
	move := func(a cell.Addr) cell.Addr {
		if a.Row < len(inv) {
			return cell.Addr{Row: inv[a.Row], Col: a.Col}
		}
		return a
	}
	if len(s.formulas) > 0 {
		nf := make(map[cell.Addr]Formula, len(s.formulas))
		for a, c := range s.formulas {
			nf[move(a)] = c
		}
		s.formulas = nf
	}
	if len(s.volatiles) > 0 {
		nv := make(map[cell.Addr]bool, len(s.volatiles))
		for a := range s.volatiles {
			nv[move(a)] = true
		}
		s.volatiles = nv
	}
	if len(s.externals) > 0 {
		ne := make(map[cell.Addr]bool, len(s.externals))
		for a := range s.externals {
			ne[move(a)] = true
		}
		s.externals = ne
	}
	if len(s.styles) > 0 {
		ns := make(map[cell.Addr]cell.Style, len(s.styles))
		for a, st := range s.styles {
			ns[move(a)] = st
		}
		s.styles = ns
	}
	if len(s.hidden) > 0 {
		// The hidden array is ragged — only as long as the highest row a
		// filter ever marked — but a flag can move to any permuted index,
		// so the reordered array spans the whole permutation.
		nh := make([]bool, len(perm))
		for r, h := range s.hidden {
			if r < len(inv) {
				nh[inv[r]] = h
			}
		}
		s.hidden = nh
	}
}

// Workbook is an ordered collection of named worksheets.
type Workbook struct {
	sheets []*Sheet
	byName map[string]*Sheet
	// nextSuffix remembers, per UniqueName base, the suffix below which
	// every name is taken. Only Remove frees a name, and it forgets the
	// memo.
	nextSuffix map[string]int
}

// NewWorkbook returns an empty workbook.
func NewWorkbook() *Workbook {
	return &Workbook{byName: make(map[string]*Sheet)}
}

// Add appends a sheet; duplicate names are an error.
func (w *Workbook) Add(s *Sheet) error {
	if _, dup := w.byName[s.Name]; dup {
		return fmt.Errorf("sheet: workbook already has a sheet named %q", s.Name)
	}
	w.sheets = append(w.sheets, s)
	w.byName[s.Name] = s
	return nil
}

// Sheet returns the sheet with the given name, or nil.
func (w *Workbook) Sheet(name string) *Sheet { return w.byName[name] }

// Sheets returns the sheets in tab order; the caller must not mutate the
// slice.
func (w *Workbook) Sheets() []*Sheet { return w.sheets }

// Len returns the number of sheets.
func (w *Workbook) Len() int { return len(w.sheets) }

// First returns the first sheet, or nil for an empty workbook.
func (w *Workbook) First() *Sheet {
	if len(w.sheets) == 0 {
		return nil
	}
	return w.sheets[0]
}

// Remove deletes the named sheet; it reports whether it existed.
func (w *Workbook) Remove(name string) bool {
	s, ok := w.byName[name]
	if !ok {
		return false
	}
	delete(w.byName, name)
	w.nextSuffix = nil
	for i := range w.sheets {
		if w.sheets[i] == s {
			w.sheets = append(w.sheets[:i], w.sheets[i+1:]...)
			break
		}
	}
	return true
}

// UniqueName returns base if free, otherwise base2, base3, ...; used when
// pivot tables insert result worksheets.
func (w *Workbook) UniqueName(base string) string {
	if _, taken := w.byName[base]; !taken {
		return base
	}
	if w.nextSuffix == nil {
		w.nextSuffix = make(map[string]int)
	}
	for i := max(w.nextSuffix[base], 2); ; i++ {
		name := base + strconv.Itoa(i)
		if _, taken := w.byName[name]; !taken {
			w.nextSuffix[base] = i
			return name
		}
	}
}
