package engine

import (
	"cmp"
	"slices"

	"repro/internal/cell"
	"repro/internal/costmodel"
	"repro/internal/formula"
	"repro/internal/obs"
	"repro/internal/sheet"
)

// Cross-sheet settling. Cross-sheet precedents are invisible to the
// per-sheet dependency graphs, so after every value-mutating operation the
// engine brings the readers of other sheets up to date. The naive profiles
// do it by rounds (refreshExternals): every cross-sheet formula of the
// workbook, round after round, whatever was written. Under RegionGraph the
// operation's writes are logged per sheet (noteChange, noteAll), and settle
// re-evaluates only the readers whose foreign rectangle covers a logged
// cell, visiting sheets in topological order of the sheet-level reader
// graph. A workbook whose sheets read one another in a cycle keeps the
// rounds: their bounded result depends on history.

// readerGroup is one (foreign sheet, rectangle) of a host sheet's
// cross-sheet formulas: the host cells, row-major, whose formulas read rect
// on the sheet named sheet.
type readerGroup struct {
	sheet string
	rect  cell.Range
	cells []cell.Addr
}

// readerIndex is one host sheet's part of the workbook reader index, a
// formula-set artifact of its sheetState (lifecycle in docs/ANALYSIS.md).
type readerIndex struct {
	groups   []readerGroup // by foreign sheet name, then rectangle
	foreign  []string      // the distinct foreign sheet names, sorted
	volatile []cell.Addr   // volatile cross-sheet formulas, row-major
}

// buildReaders groups the sheet's cross-sheet formulas by the foreign
// rectangle each reference reads from its host, extracting each distinct
// compiled formula's references once.
func buildReaders(s *sheet.Sheet) *readerIndex {
	type key struct {
		sheet string
		rect  cell.Range
	}
	ix := &readerIndex{}
	slot := make(map[key]int)
	refs := make(map[*formula.Compiled][]formula.ExtRefNode)
	ext := s.ExternalCells()
	slices.SortFunc(ext, cmpAddr)
	for _, a := range ext {
		fc, _ := s.Formula(a)
		nodes, ok := refs[fc.Code]
		if !ok {
			formula.Walk(fc.Code.Root, func(n formula.Node) {
				if x, isExt := n.(formula.ExtRefNode); isExt {
					nodes = append(nodes, x)
				}
			})
			refs[fc.Code] = nodes
		}
		if fc.Code.Volatile {
			ix.volatile = append(ix.volatile, a)
		}
		dr, dc := fc.DeltaAt(a)
		for _, n := range nodes {
			k := key{n.Sheet, n.Shift(dr, dc)}
			i, seen := slot[k]
			if !seen {
				i = len(ix.groups)
				slot[k] = i
				ix.groups = append(ix.groups, readerGroup{sheet: k.sheet, rect: k.rect})
			}
			g := &ix.groups[i]
			if n := len(g.cells); n == 0 || g.cells[n-1] != a {
				g.cells = append(g.cells, a)
			}
		}
	}
	slices.SortFunc(ix.groups, func(x, y readerGroup) int {
		return cmp.Or(cmp.Compare(x.sheet, y.sheet),
			cmpAddr(x.rect.Start, y.rect.Start), cmpAddr(x.rect.End, y.rect.End))
	})
	for i, g := range ix.groups {
		if i == 0 || g.sheet != ix.groups[i-1].sheet {
			ix.foreign = append(ix.foreign, g.sheet)
		}
	}
	return ix
}

// cmpAddr orders addresses row-major.
func cmpAddr(a, b cell.Addr) int {
	return cmp.Or(cmp.Compare(a.Row, b.Row), cmp.Compare(a.Col, b.Col))
}

// readers returns the host sheet's reader index, building it when the
// formula set moved since the last build. Like the parallel certificate,
// the build is a static derivation and is not charged; the settle charges
// its probes.
func (e *Engine) readers(s *sheet.Sheet) *readerIndex {
	ss := e.state(s).current()
	if ss.readers == nil {
		sp := obs.Start("engine.build_readers")
		ss.readers = buildReaders(s)
		sp.Int("groups", int64(len(ss.readers.groups))).End()
	}
	return ss.readers
}

// hasExternals reports whether any sheet hosts a cross-sheet formula.
func hasExternals(wb *sheet.Workbook) bool {
	return slices.ContainsFunc(wb.Sheets(), func(s *sheet.Sheet) bool { return s.ExternalCount() > 0 })
}

// noteChange logs a changed cell for the settle when the operation tracks.
func (e *Engine) noteChange(ss *sheetState, a cell.Addr) {
	if !e.track || ss.all {
		return
	}
	if len(ss.changed) == 0 {
		ss.box = cell.SingleCell(a)
	} else {
		ss.box = cell.Range{
			Start: cell.Addr{Row: min(ss.box.Start.Row, a.Row), Col: min(ss.box.Start.Col, a.Col)},
			End:   cell.Addr{Row: max(ss.box.End.Row, a.Row), Col: max(ss.box.End.Col, a.Col)},
		}
	}
	ss.changed = append(ss.changed, a)
}

// noteAll logs that any cell of the sheet may have changed: a row move or a
// full recalculation. (A sheet appended since the last settle, a pivot's
// output, counts as wholly changed through seeSheets.)
func (e *Engine) noteAll(s *sheet.Sheet) {
	if e.track {
		ss := e.state(s)
		ss.all, ss.changed = true, nil
	}
}

// clearChanges empties every sheet's change log, releasing it: one
// operation's log can run to thousands of cells.
func (e *Engine) clearChanges() {
	for _, s := range e.wb.Sheets() {
		if ss := e.sheets[s]; ss != nil {
			ss.all, ss.changed = false, nil
		}
	}
}

// seeSheets records the workbook's sheet list as settled. It reports false
// when a sheet left or moved since the last record; the sheets appended
// since (a pivot's output) are kept in e.fresh as wholly changed.
func (e *Engine) seeSheets() bool {
	cur := e.wb.Sheets()
	ok := len(cur) >= len(e.seen) && slices.Equal(cur[:len(e.seen)], e.seen)
	e.fresh = nil
	if ok {
		e.fresh = cur[len(e.seen):]
	}
	e.seen = append(e.seen[:0], cur...)
	return ok
}

// settle is every operation's last step: it brings the cross-sheet readers
// up to date with what the operation wrote. Workbooks without cross-sheet
// formulas return at once. Under RegionGraph the readers of logged cells
// are re-evaluated sheet by sheet in reader order; otherwise — a naive
// profile, an operation that began with no cross-sheet formula to track, a
// sheet removed behind the engine, or a sheet-level reference cycle — the
// rounds of refreshExternals run.
func (e *Engine) settle(meter *costmodel.Meter) {
	tracked := e.track
	defer func() {
		if tracked {
			e.clearChanges()
		}
		e.track = false
	}()
	if !hasExternals(e.wb) {
		return
	}
	var why string
	switch {
	case !e.prof.Opt.RegionGraph:
		why = "profile"
	case !tracked:
		why = "untracked"
	case !e.seeSheets():
		why = "sheets"
	}
	var hosts []*sheet.Sheet
	if why == "" {
		hosts, why = e.readerOrder()
	}
	if why != "" {
		e.track = false
		e.refreshExternals(meter, why)
		return
	}
	sp := obs.Start("engine.refresh_externals").Str("source", "readers")
	n := 0
	for _, h := range hosts {
		n += e.settleHost(h, meter)
	}
	sp.Int("readers", int64(n)).End()
}

// readerOrder returns the sheets hosting cross-sheet formulas, each after
// every host it reads (tab order among the ready ones), or why none exists:
// "cycle" when hosts read one another in a cycle or a sheet reads itself
// by name.
func (e *Engine) readerOrder() ([]*sheet.Sheet, string) {
	var hosts []*sheet.Sheet
	for _, s := range e.wb.Sheets() {
		if s.ExternalCount() > 0 {
			hosts = append(hosts, s)
		}
	}
	reads := func(h, f *sheet.Sheet) bool {
		_, found := slices.BinarySearch(e.readers(h).foreign, f.Name)
		return found
	}
	order := make([]*sheet.Sheet, 0, len(hosts))
	done := make([]bool, len(hosts))
	for len(order) < len(hosts) {
		progress := false
		for i, h := range hosts {
			if done[i] {
				continue
			}
			if reads(h, h) {
				return nil, "cycle"
			}
			ready := true
			for j, f := range hosts {
				if !done[j] && j != i && reads(h, f) {
					ready = false
					break
				}
			}
			if ready {
				done[i], progress = true, true
				order = append(order, h)
			}
		}
		if !progress {
			return nil, "cycle"
		}
	}
	return order, ""
}

// settleHost re-evaluates the host's readers of logged cells, plus its
// volatile cross-sheet formulas, and returns how many it selected.
func (e *Engine) settleHost(h *sheet.Sheet, meter *costmodel.Meter) int {
	ix := e.readers(h)
	meter.Add(costmodel.DepOp, int64(len(ix.groups)))
	var hit []int
	n := len(ix.volatile)
	var fs *sheetState
	all := false
	for i, g := range ix.groups {
		if i == 0 || g.sheet != ix.groups[i-1].sheet {
			fs, all = nil, false
			if f := e.wb.Sheet(g.sheet); f != nil {
				fs = e.sheets[f]
				all = slices.Contains(e.fresh, f) || fs != nil && fs.all
			}
		}
		if all || fs != nil && fs.covers(g.rect) {
			hit = append(hit, i)
			n += len(g.cells)
		}
	}
	if n == 0 {
		return 0
	}
	need := make(map[cell.Addr]bool, n)
	for _, i := range hit {
		for _, a := range ix.groups[i].cells {
			need[a] = true
		}
	}
	for _, a := range ix.volatile {
		need[a] = true
	}
	e.evalPicked(h, need, meter)
	return len(need)
}

// covers reports whether a logged cell lies in rect.
func (ss *sheetState) covers(rect cell.Range) bool {
	if len(ss.changed) == 0 || !ss.box.Overlaps(rect) {
		return false
	}
	return slices.ContainsFunc(ss.changed, rect.Contains)
}
