package engine

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cell"
	"repro/internal/costmodel"
	"repro/internal/formula"
	"repro/internal/iolib"
	"repro/internal/obs"
	"repro/internal/sheet"
)

// bytesPerCell approximates the serialized size of one cell for network
// payload accounting, matching the SVF/xlsx per-row footprint used in
// calibration.
const bytesPerCell = 10

// Open loads a workbook file, replacing the engine's current workbook —
// the data-load experiment of §4.1. Desktop profiles parse the file, build
// the calculation chain, recompute every formula (Recalc.OnOpen), and
// render the first window. The web profile's file was converted server-side
// beforehand (as in §3.3); opening resolves formula dependencies on the
// server, then ships and renders only the visible window, lazily loading
// the rest on scroll (§4.1). The optimized profile's LazyOpen prioritizes
// parsing and computing the first window, deferring the remainder (§6).
func (e *Engine) Open(path string) (Result, error) {
	t := e.begin(OpOpen)
	psp := obs.Start("open.parse")
	res, err := iolib.LoadWorkbook(path)
	if err != nil {
		psp.End()
		return t.finish(), err
	}
	psp.Int("bytes", res.Bytes).Int("cells", res.Cells).End()
	e.wb = res.Workbook
	e.resetDerived()

	lazyValueOnly := (e.prof.Web && e.prof.LazyViewport || e.prof.Opt.LazyOpen) &&
		res.Formulas == 0
	window := int64(e.prof.WindowRows)

	switch {
	case lazyValueOnly:
		// Only the visible window is shipped and rendered now; the rest
		// loads on demand. For the desktop LazyOpen case the window's
		// share of the file is parsed eagerly.
		wsp := obs.Start("open.window")
		first := e.wb.First()
		cols := int64(1)
		if first != nil {
			cols = int64(first.Cols())
		}
		winCells := window * cols
		if !e.prof.Web {
			rows := int64(1)
			if first != nil && first.Rows() > 0 {
				rows = int64(first.Rows())
			}
			e.meter.Add(costmodel.ParseByte, res.Bytes*minI64(window, rows)/maxI64(rows, 1))
		}
		e.meter.Add(costmodel.RenderCell, winCells)
		err := e.netCall(winCells * bytesPerCell)
		wsp.End()
		if err != nil {
			return t.finish(), err
		}

	default:
		if !e.prof.Web {
			e.meter.Add(costmodel.ParseByte, res.Bytes)
			e.meter.Add(costmodel.CellWrite, res.Cells)
		}
		e.meter.Add(costmodel.FormulaCompile, res.Formulas)
		bsp := obs.Start("open.build").Int("formulas", res.Formulas)
		for _, s := range e.wb.Sheets() {
			e.rebuildGraph(s, &e.meter)
			if e.prof.Recalc.OnOpen {
				e.evalAll(s, &e.meter)
			}
		}
		bsp.End()
		// Render the first window.
		first := e.wb.First()
		cols := int64(1)
		if first != nil {
			cols = int64(first.Cols())
		}
		e.meter.Add(costmodel.RenderCell, window*cols)
		if err := e.netCall(window * cols * bytesPerCell); err != nil {
			return t.finish(), err
		}
	}

	if e.prof.Opt.Any() {
		// Optimization structures build in the background (§6 asynchrony);
		// they are constructed for real but not charged to the open.
		osp := obs.Start("open.opt_state")
		for _, s := range e.wb.Sheets() {
			e.buildOptState(s)
		}
		osp.End()
	}
	e.refreshExternals(&e.meter)
	return t.finish(), nil
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Sort reorders the sheet's rows by the given column (§4.2.1). Rows
// [headerRows, Rows) participate; pass headerRows=1 to keep a header line.
// The sort is stable on the column's values. Per the recalculation policy,
// the calculation chain is then rebuilt and every formula recomputed —
// "often unnecessary" work the paper highlights; the optimized profile's
// SortRecalcAnalysis skips re-evaluating row-local formulae (§6).
func (e *Engine) Sort(s *sheet.Sheet, col int, ascending bool, headerRows int) (Result, error) {
	if s == nil {
		return Result{}, errSheet("Sort")
	}
	t := e.begin(OpSort)
	rows := s.Rows()
	if headerRows < 0 {
		headerRows = 0
	}
	n := rows - headerRows
	if n <= 1 {
		return t.finish(), nil
	}

	// Extract keys (one touch per row), then sort a permutation with
	// metered comparisons.
	psp := obs.Start("sort.permute").Int("rows", int64(n))
	keys := make([]cell.Value, n)
	for i := 0; i < n; i++ {
		keys[i] = s.Value(cell.Addr{Row: headerRows + i, Col: col})
	}
	e.meter.Add(costmodel.CellTouch, int64(n))
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	compares := 0
	sort.SliceStable(perm, func(i, j int) bool {
		compares++
		c := keys[perm[i]].Compare(keys[perm[j]])
		if ascending {
			return c < 0
		}
		return c > 0
	})
	e.meter.Add(costmodel.Compare, int64(compares))

	full := make([]int, rows)
	for i := 0; i < headerRows; i++ {
		full[i] = i
	}
	for i, p := range perm {
		full[headerRows+i] = headerRows + p
	}
	s.ApplyRowPerm(full)
	e.meter.Add(costmodel.CellWrite, int64(rows)*int64(s.Cols()))
	psp.End()

	if e.prof.Web {
		if err := e.netCall(int64(e.prof.WindowRows) * int64(s.Cols()) * bytesPerCell); err != nil {
			return t.finish(), err
		}
	}

	if !e.prof.Recalc.OnSort || s.FormulaCount() == 0 {
		e.rowsMoved(s)
	} else {
		rsp := obs.Start("sort.recalc")
		e.rowsMoved(s)
		if e.prof.Opt.SortRecalcAnalysis {
			e.evalNonRowLocal(s, &e.meter)
		} else {
			e.evalAll(s, &e.meter)
		}
		rsp.End()
	}
	e.refreshExternals(&e.meter)
	return t.finish(), nil
}

// evalNonRowLocal re-evaluates only formulae whose value can change under a
// row reordering — the recalculation-necessity analysis of §6.
func (e *Engine) evalNonRowLocal(s *sheet.Sheet, meter *costmodel.Meter) {
	recalc := make(map[cell.Addr]bool)
	s.EachFormula(func(a cell.Addr, fc sheet.Formula) bool {
		meter.Add(costmodel.DepOp, 1) // the per-formula locality test
		if !fc.Code.RowLocal(fc.Origin) {
			recalc[a] = true
		}
		return true
	})
	if len(recalc) == 0 {
		return
	}
	// A non-row-local formula can read another one (an aggregate over a
	// column holding moved formulas), so the survivors of the necessity
	// analysis must evaluate in dependency order, not discovery order.
	order, cyclic := e.fullChain(s, meter)
	env := e.env(s, meter, false, true)
	var changed []cell.Addr
	evalAt := func(a cell.Addr) {
		fc, ok := s.Formula(a)
		if !ok {
			return
		}
		env.DR, env.DC = fc.DeltaAt(a)
		v := formula.Eval(fc.Code, env)
		if v != s.Value(a) {
			changed = append(changed, a)
		}
		e.setCached(s, a, v)
	}
	for _, a := range order {
		if recalc[a] {
			evalAt(a)
		}
	}
	for _, a := range cyclic {
		if recalc[a] {
			// Match evalAll: cells on a reference cycle display #CYCLE!,
			// they are never plainly re-evaluated (that would make their
			// value depend on evaluation history).
			e.setCached(s, a, cell.Errorf(cell.ErrCycle))
		}
	}
	// The necessity analysis exempts row-local formulae because their
	// same-row inputs move with them — but when a re-evaluated survivor
	// (say a cross-sheet lookup) lands on a NEW value, its dependents'
	// caches are stale no matter how local they are. Propagate exactly
	// those changes.
	if len(changed) > 0 {
		e.recalcDirty(s, changed, meter)
	}
}

// Filter hides the rows of the used range whose value in the given column
// fails the criterion (§4.3.1); it returns the number of visible (kept)
// data rows. Excel's policy additionally re-sequences the calculation chain
// (the superlinear trend of Figure 5a).
func (e *Engine) Filter(s *sheet.Sheet, col int, criterion cell.Value, headerRows int) (int, Result, error) {
	if s == nil {
		return 0, Result{}, errSheet("Filter")
	}
	t := e.begin(OpFilter)
	ssp := obs.Start("filter.scan").Int("rows", int64(s.Rows()-headerRows))
	crit := formula.CompileCriterion(criterion)
	kept := 0
	for r := headerRows; r < s.Rows(); r++ {
		v := s.Value(cell.Addr{Row: r, Col: col})
		e.meter.Add(costmodel.CellTouch, 1)
		e.meter.Add(costmodel.Compare, 1)
		match := crit.Match(v)
		if match {
			kept++
		}
		if s.RowHidden(r) == match {
			e.meter.Add(costmodel.StyleWrite, 1)
		}
		s.SetRowHidden(r, !match)
	}
	ssp.Int("kept", int64(kept)).End()
	if e.prof.Web {
		if err := e.netCall(int64(e.prof.WindowRows) * int64(s.Cols()) * bytesPerCell); err != nil {
			return kept, t.finish(), err
		}
	}
	if e.prof.Recalc.OnFilter && s.FormulaCount() > 0 {
		e.resequence(s, &e.meter)
	}
	return kept, t.finish(), nil
}

// ClearFilter unhides all rows (unmetered convenience for experiment
// teardown).
func (e *Engine) ClearFilter(s *sheet.Sheet) {
	if s != nil {
		s.UnhideAll()
	}
}

// ConditionalFormat applies the style to every cell of the range matching
// the criterion (§4.2.2). The web profile formats lazily: only the visible
// window is processed when the range holds no formulae. Under
// Recalc.OnCondFormat (Calc, Sheets) each formula cell in the range is
// first re-evaluated — the unnecessary recomputation Figure 4 exposes.
// Returns the number of cells styled.
func (e *Engine) ConditionalFormat(s *sheet.Sheet, rng cell.Range, criterion cell.Value, style cell.Style) (int, Result, error) {
	if s == nil {
		return 0, Result{}, errSheet("ConditionalFormat")
	}
	t := e.begin(OpCondFormat)
	crit := formula.CompileCriterion(criterion)

	// Detect embedded formulae in the range.
	hasFormulas := false
	if s.FormulaCount() > 0 {
		s.EachFormula(func(a cell.Addr, _ sheet.Formula) bool {
			if rng.Contains(a) {
				hasFormulas = true
				return false
			}
			return true
		})
	}

	endRow := rng.End.Row
	if e.prof.Web && e.prof.LazyViewport && !hasFormulas {
		if w := rng.Start.Row + e.prof.WindowRows - 1; w < endRow {
			endRow = w
		}
	}

	env := e.env(s, &e.meter, true, false) // inner: no read-through recursion
	ssp := obs.Start("condformat.scan").Int("rows", int64(endRow-rng.Start.Row+1))
	matched := 0
	for r := rng.Start.Row; r <= endRow; r++ {
		for c := rng.Start.Col; c <= rng.End.Col; c++ {
			a := cell.Addr{Row: r, Col: c}
			if hasFormulas && e.prof.Recalc.OnCondFormat {
				if fc, ok := s.Formula(a); ok {
					env.DR, env.DC = fc.DeltaAt(a)
					e.setCached(s, a, formula.Eval(fc.Code, env))
				}
			}
			v := s.Value(a)
			e.meter.Add(costmodel.CellTouch, 1)
			e.meter.Add(costmodel.Compare, 1)
			if crit.Match(v) {
				st := s.Style(a)
				st.Fill = style.Fill
				if style.Bold {
					st.Bold = true
				}
				if style.Italic {
					st.Italic = true
				}
				s.SetStyle(a, st)
				e.meter.Add(costmodel.StyleWrite, 1)
				matched++
			}
		}
	}
	ssp.Int("matched", int64(matched)).End()
	if e.prof.Web {
		if err := e.netCall(int64(matched) * 4); err != nil {
			return matched, t.finish(), err
		}
	}
	if hasFormulas && e.prof.Recalc.OnCondFormat {
		// The in-range re-evaluation above rewrote formula caches; settle
		// any cross-sheet readers of those cells.
		e.refreshExternals(&e.meter)
	}
	return matched, t.finish(), nil
}

// PivotRow is one output row of a pivot table.
type PivotRow struct {
	Key   string
	Sum   float64
	Count int
}

// PivotTable groups the data rows by the dimension column and sums the
// measure column (§4.3.2: "the sum of storms per state"), writing the
// summary into a new worksheet appended to the workbook. Under
// Recalc.OnNewSheet (Excel, Sheets) inserting the worksheet triggers a full
// recomputation of the source sheet's formulae.
func (e *Engine) PivotTable(s *sheet.Sheet, dimCol, measureCol, headerRows int) (*sheet.Sheet, Result, error) {
	if s == nil {
		return nil, Result{}, errSheet("PivotTable")
	}
	t := e.begin(OpPivot)
	ssp := obs.Start("pivot.scan")
	groups := make(map[string]*PivotRow)
	var order []string
	for r := headerRows; r < s.Rows(); r++ {
		if s.RowHidden(r) {
			continue
		}
		key := s.Value(cell.Addr{Row: r, Col: dimCol}).AsString()
		mv := s.Value(cell.Addr{Row: r, Col: measureCol})
		e.meter.Add(costmodel.CellTouch, 2)
		g, ok := groups[key]
		if !ok {
			g = &PivotRow{Key: key}
			groups[key] = g
			order = append(order, key)
		}
		if x, numeric := mv.AsNumber(); numeric && !mv.IsEmpty() {
			g.Sum += x
		}
		g.Count++
	}
	ssp.Int("groups", int64(len(order))).End()
	sort.Strings(order)

	out := sheet.New(e.wb.UniqueName("Pivot"), len(order)+1, 2)
	out.SetValue(cell.Addr{Row: 0, Col: 0}, cell.Str("key"))
	out.SetValue(cell.Addr{Row: 0, Col: 1}, cell.Str("sum"))
	for i, key := range order {
		out.SetValue(cell.Addr{Row: i + 1, Col: 0}, cell.Str(key))
		out.SetValue(cell.Addr{Row: i + 1, Col: 1}, cell.Num(groups[key].Sum))
		e.meter.Add(costmodel.CellWrite, 2)
	}
	if err := e.wb.Add(out); err != nil {
		return nil, t.finish(), err
	}
	if e.prof.Web {
		if err := e.netCall(int64(len(order)) * 2 * bytesPerCell); err != nil {
			return out, t.finish(), err
		}
	}
	if e.prof.Recalc.OnNewSheet && s.FormulaCount() > 0 {
		// Unmultiplied: the recomputation is ordinary calc-chain work,
		// not pivot machinery (see opTimer.finish).
		e.evalAll(s, &e.recalcMeter)
	}
	e.refreshExternals(&e.meter)
	return out, t.finish(), nil
}

// FindReplace scans the used range for text cells containing the search
// string and replaces every occurrence (§5.1.2); it returns the number of
// cells changed. Dependent formulae recompute. With the optimized inverted
// index, a single-token search probes the index instead of scanning — and a
// nonexistent value is rejected in near-constant time.
func (e *Engine) FindReplace(s *sheet.Sheet, find, replace string) (int, Result, error) {
	if s == nil {
		return 0, Result{}, errSheet("FindReplace")
	}
	if find == "" {
		return 0, Result{}, fmt.Errorf("engine: FindReplace: empty search string")
	}
	t := e.begin(OpFindReplace)

	var changed []cell.Addr
	st := e.state(s).opt
	indexed := st != nil && e.prof.Opt.InvertedIndex && len(indexTokens(find)) == 1
	scanName := "find.scan"
	if indexed {
		scanName = "find.index_probe"
	}
	ssp := obs.Start(scanName)
	if indexed {
		ix := st.invertedFor(e, s)
		// Substring semantics (what the naive scan implements) via a
		// dictionary scan: O(vocabulary), not O(cells).
		hits, probes := ix.LookupSubstring(find)
		e.meter.Add(costmodel.IndexProbe, int64(probes))
		// Copy: replacement mutates the posting list under us otherwise.
		for _, a := range append([]cell.Addr(nil), hits...) {
			v := s.Value(a)
			e.meter.Add(costmodel.CellTouch, 1)
			if v.Kind != cell.Text || !strings.Contains(v.Str, find) {
				continue
			}
			nv := cell.Str(strings.ReplaceAll(v.Str, find, replace))
			e.removeFormula(s, a)
			st.noteCellChange(e, s, a, v, nv)
			s.SetValue(a, nv)
			e.meter.Add(costmodel.CellWrite, 1)
			changed = append(changed, a)
		}
	} else {
		rows, cols := s.Rows(), s.Cols()
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				a := cell.Addr{Row: r, Col: c}
				v := s.Value(a)
				e.meter.Add(costmodel.CellTouch, 1)
				e.meter.Add(costmodel.Compare, 1)
				if v.Kind != cell.Text || !strings.Contains(v.Str, find) {
					continue
				}
				nv := cell.Str(strings.ReplaceAll(v.Str, find, replace))
				e.removeFormula(s, a)
				if st != nil {
					st.noteCellChange(e, s, a, v, nv)
				}
				s.SetValue(a, nv)
				e.meter.Add(costmodel.CellWrite, 1)
				changed = append(changed, a)
			}
		}
	}
	ssp.Int("changed", int64(len(changed))).End()
	if e.prof.Web {
		if err := e.netCall(int64(len(changed)) * bytesPerCell); err != nil {
			return len(changed), t.finish(), err
		}
	}
	if len(changed) > 0 && s.FormulaCount() > 0 {
		e.recalcDirty(s, changed, &e.meter)
	}
	if len(changed) > 0 {
		e.refreshExternals(&e.meter)
	}
	return len(changed), t.finish(), nil
}

// indexTokens mirrors the inverted index's tokenizer for query eligibility.
func indexTokens(q string) []string {
	return indexTokenize(q)
}

// CopyPaste copies the source range to the destination (top-left anchor),
// duplicating values and formulae; relative references shift by the
// displacement, as in all three systems. Pasted formulae are registered and
// evaluated. Returns the destination range.
func (e *Engine) CopyPaste(s *sheet.Sheet, src cell.Range, dst cell.Addr) (cell.Range, Result, error) {
	if s == nil {
		return cell.Range{}, Result{}, errSheet("CopyPaste")
	}
	t := e.begin(OpCopyPaste)
	dr := dst.Row - src.Start.Row
	dc := dst.Col - src.Start.Col
	if dr == 0 && dc == 0 {
		return src, t.finish(), nil
	}
	ss := e.state(s)
	g, st := ss.g, ss.opt
	csp := obs.Start("paste.copy").Int("cells", int64(src.Cells()))
	var pasted, changed []cell.Addr
	for r := src.Start.Row; r <= src.End.Row; r++ {
		for c := src.Start.Col; c <= src.End.Col; c++ {
			from := cell.Addr{Row: r, Col: c}
			to := cell.Addr{Row: r + dr, Col: c + dc}
			e.meter.Add(costmodel.CellTouch, 1)
			e.meter.Add(costmodel.CellWrite, 1)
			if fc, ok := s.Formula(from); ok {
				s.AttachFormula(to, fc)
				if st != nil {
					// As for an inserted formula (noteFormulaResult): the
					// column's typed-value certificate no longer holds.
					delete(st.typed, to.Col)
				}
				fdr, fdc := fc.DeltaAt(to)
				g.SetFormula(to, fc.Code.PrecedentRanges(fdr, fdc))
				pasted = append(pasted, to)
				continue
			}
			// A literal lands on to: exactly the SetCell write path — an
			// overwritten formula leaves the graph, and the optimized
			// profile's maintained structures see the change (a raw
			// SetValue would leave its indexes serving stale postings).
			old := s.Value(to)
			v := s.Value(from)
			e.removeFormula(s, to)
			if st != nil {
				st.noteCellChange(e, s, to, old, v)
			}
			s.SetValue(to, v)
			if old != v {
				changed = append(changed, to)
			}
		}
	}
	e.meter.Add(costmodel.DepOp, g.Ops())
	g.ResetOps()
	csp.End()

	esp := obs.Start("paste.eval").Int("formulas", int64(len(pasted)))
	env := e.env(s, &e.meter, false, true)
	for _, a := range pasted {
		fc, _ := s.Formula(a)
		env.DR, env.DC = fc.DeltaAt(a)
		v := formula.Eval(fc.Code, env)
		if old := s.Value(a); old != v {
			if st != nil {
				st.noteCellChange(e, s, a, old, v)
			}
			changed = append(changed, a)
		}
		s.SetCachedValue(a, v)
	}
	esp.End()
	if len(changed) > 0 && s.FormulaCount() > 0 {
		e.recalcDirty(s, changed, &e.meter)
	}
	e.refreshExternals(&e.meter)
	out := cell.RangeOf(dst, cell.Addr{Row: src.End.Row + dr, Col: src.End.Col + dc})
	if e.prof.Web {
		if err := e.netCall(int64(out.Cells()) * bytesPerCell); err != nil {
			return out, t.finish(), err
		}
	}
	return out, t.finish(), nil
}

// InsertFormula compiles the formula text, attaches it at the given cell,
// registers its dependencies, and evaluates it — the query-operation probe
// used by the BCT aggregate/lookup experiments (§4.3.3–4) and all of the
// OOT formula experiments (§5). The optimized profile first consults the
// redundant-computation cache (§5.4) and the shared prefix-sum / index fast
// paths (§5.3, §5.1).
func (e *Engine) InsertFormula(s *sheet.Sheet, a cell.Addr, text string) (cell.Value, Result, error) {
	if s == nil {
		return cell.Value{}, Result{}, errSheet("InsertFormula")
	}
	compiled, err := formula.Compile(text)
	kind := OpAggregate
	if err == nil {
		kind = classifyFormula(compiled)
	}
	t := e.begin(kind)
	if err != nil {
		return cell.Value{}, t.finish(), err
	}
	// Interactive inserts pay text parsing, not the heavyweight load-time
	// compile-and-sequence cost (FormulaCompile) that Open charges.
	e.meter.Add(costmodel.ParseByte, int64(len(text)))

	s.SetFormula(a, compiled)
	g := e.graph(s)
	g.ResetOps()
	g.SetFormula(a, compiled.PrecedentRanges(0, 0))
	e.meter.Add(costmodel.DepOp, g.Ops())
	g.ResetOps()

	esp := obs.Start("insert.eval")
	var v cell.Value
	computed := false
	st := e.state(s).opt
	if st != nil {
		v, computed = st.fastEval(e, s, compiled)
	}
	if computed {
		e.met.fastEvalHits.Add(1)
		esp.Str("source", "fast_path")
	} else {
		env := e.env(s, &e.meter, false, false)
		e.driftArm()
		v = formula.Eval(compiled, env)
		e.driftClose()
		esp.Str("source", "eval")
	}
	esp.End()
	e.setCached(s, a, v)
	if st != nil {
		st.noteFormulaResult(e, s, a, compiled, v)
	}
	e.refreshExternals(&e.meter)
	if e.prof.Web {
		if err := e.netCall(64); err != nil {
			return v, t.finish(), err
		}
	}
	return v, t.finish(), nil
}

// BatchItem is one formula of a bulk fill.
type BatchItem struct {
	At   cell.Addr
	Text string
}

// InsertFormulaBatch fills many cells with formulae in one scripted call —
// how macro code populates a whole column (Range.setFormulas in Apps
// Script, Range.Formula over an area in VBA). Unlike per-cell
// InsertFormula, the batch pays one network round trip total (web) plus one
// API dispatch per cell, and the evaluations run as a native calc pass —
// the §5.3 shared-computation experiment fills its cumulative-sum columns
// this way. Formulae evaluate in item order; the optimized profile's
// fast paths (prefix sums, fingerprint cache, indexes) apply per item.
func (e *Engine) InsertFormulaBatch(s *sheet.Sheet, items []BatchItem) (Result, error) {
	if s == nil {
		return Result{}, errSheet("InsertFormulaBatch")
	}
	t := e.begin(OpBatchInsert)
	bsp := obs.Start("batch.fill").Int("items", int64(len(items)))
	ss := e.state(s)
	g, st := ss.g, ss.opt
	env := e.env(s, &e.meter, false, true)
	for _, it := range items {
		compiled, err := formula.Compile(it.Text)
		if err != nil {
			bsp.End()
			return t.finish(), fmt.Errorf("engine: batch insert at %s: %w", it.At, err)
		}
		e.meter.Add(costmodel.ParseByte, int64(len(it.Text)))
		e.meter.Add(costmodel.APICall, 1)
		s.SetFormula(it.At, compiled)
		g.ResetOps()
		g.SetFormula(it.At, compiled.PrecedentRanges(0, 0))
		e.meter.Add(costmodel.DepOp, g.Ops())
		g.ResetOps()

		var v cell.Value
		computed := false
		if st != nil {
			v, computed = st.fastEval(e, s, compiled)
		}
		if computed {
			e.met.fastEvalHits.Add(1)
		} else {
			e.driftArm()
			v = formula.Eval(compiled, env)
			e.driftClose()
		}
		e.setCached(s, it.At, v)
		if st != nil {
			st.noteFormulaResult(e, s, it.At, compiled, v)
		}
	}
	bsp.End()
	e.refreshExternals(&e.meter)
	if e.prof.Web {
		if err := e.netCall(int64(len(items)) * bytesPerCell); err != nil {
			return t.finish(), err
		}
	}
	return t.finish(), nil
}

// SetCell writes a plain value into a cell and brings every dependent
// formula up to date — the incremental-update probe of §5.5. The three
// system profiles recompute dependent formulae from scratch; the optimized
// profile applies O(1) deltas to its materialized aggregates.
func (e *Engine) SetCell(s *sheet.Sheet, a cell.Addr, v cell.Value) (Result, error) {
	if s == nil {
		return Result{}, errSheet("SetCell")
	}
	t := e.begin(OpSetCell)
	old := s.Value(a)
	e.removeFormula(s, a)
	st := e.state(s).opt
	if st != nil {
		// Plan-drift: noteCellChange is the edit's maintenance work — index
		// replacements plus the O(1) aggregate deltas the plan's maintenance
		// choice priced per column.
		rec, pred, snap := e.driftMaintBegin(s, a.Col)
		st.noteCellChange(e, s, a, old, v)
		if rec {
			e.driftRecord(gateDeltaMaint, pred, e.meter.Sub(snap))
		}
	}
	s.SetValue(a, v)
	e.meter.Add(costmodel.CellWrite, 1)
	if e.prof.Web {
		if err := e.netCall(bytesPerCell); err != nil {
			return t.finish(), err
		}
	}

	if st != nil && e.prof.Opt.IncrementalAggregates && e.plannedDeltas(s) {
		dsp := obs.Start("setcell.deltas")
		st.applyDeltas(e, s, a, old, v)
		dsp.End()
	} else if s.FormulaCount() > 0 {
		e.recalcDirty(s, []cell.Addr{a}, &e.meter)
	}
	e.refreshExternals(&e.meter)
	return t.finish(), nil
}

// CellValue reads one cell through the scripting API — the access pattern
// of the in-memory layout experiment (§5.2), one API call per cell.
func (e *Engine) CellValue(s *sheet.Sheet, a cell.Addr) (cell.Value, Result) {
	t := e.begin(OpRead)
	e.meter.Add(costmodel.APICall, 1)
	e.meter.Add(costmodel.CellTouch, 1)
	return s.Value(a), t.finish()
}

// ReadColumn reads rows [r0, r1] of a column. The three system profiles
// expose only cell-at-a-time API access (one APICall per cell, §5.2); the
// optimized profile's columnar layout serves the scan as one bulk call over
// contiguous memory.
func (e *Engine) ReadColumn(s *sheet.Sheet, col, r0, r1 int) ([]cell.Value, Result) {
	t := e.begin(OpRead)
	n := r1 - r0 + 1
	if n < 0 {
		n = 0
	}
	out := make([]cell.Value, 0, n)
	if e.prof.Opt.ColumnarLayout {
		e.meter.Add(costmodel.APICall, 1)
		e.meter.Add(costmodel.CellTouch, int64(n))
		if cg, ok := s.Grid().(*sheet.ColGrid); ok {
			column := cg.Column(col)
			for r := r0; r <= r1 && r < len(column); r++ {
				out = append(out, column[r])
			}
			return out, t.finish()
		}
	} else {
		e.meter.Add(costmodel.APICall, int64(n))
		e.meter.Add(costmodel.CellTouch, int64(n))
	}
	for r := r0; r <= r1; r++ {
		out = append(out, s.Value(cell.Addr{Row: r, Col: col}))
	}
	return out, t.finish()
}

// Recalculate forces a full recomputation of a sheet's formulae (the F9 key
// in Excel), charged as a SetCell-class operation.
func (e *Engine) Recalculate(s *sheet.Sheet) (Result, error) {
	if s == nil {
		return Result{}, errSheet("Recalculate")
	}
	t := e.begin(OpSetCell)
	e.evalAll(s, &e.meter)
	e.refreshExternals(&e.meter)
	return t.finish(), nil
}
