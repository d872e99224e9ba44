package engine

import (
	"fmt"
	"reflect"
	"sort"

	"repro/internal/absint"
	"repro/internal/cell"
	"repro/internal/costmodel"
	"repro/internal/formula"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/interfere"
	"repro/internal/regions"
	"repro/internal/sheet"
)

// checkDerived is the derived-state coherence oracle: for every sheet it
// rebuilds each live artifact of the sheet's derived state from scratch
// and compares the two through their public queries. An artifact is live
// when the engine would consult it as it stands: formula-set artifacts at
// the current graph version, the value certificate while its cell-change
// key also holds, clean prefix sums, sortedness facts at their column's
// version. It reads the engine's state without changing it and returns the
// first incoherence.
func checkDerived(e *Engine) error {
	for _, s := range e.wb.Sheets() {
		ss := e.sheets[s]
		if ss == nil {
			continue
		}
		if err := checkSheetDerived(e, s, ss); err != nil {
			return fmt.Errorf("sheet %s: %w", s.Name, err)
		}
	}
	return nil
}

func checkSheetDerived(e *Engine, s *sheet.Sheet, ss *sheetState) error {
	fresh := graph.New()
	s.EachFormula(func(a cell.Addr, fc sheet.Formula) bool {
		dr, dc := fc.DeltaAt(a)
		fresh.SetFormula(a, fc.Code.PrecedentRanges(dr, dc))
		return true
	})
	if err := checkGraph(s, ss.g, fresh); err != nil {
		return err
	}
	if ss.ver == ss.g.Version() {
		if err := checkFormulaSet(e, s, ss, fresh); err != nil {
			return err
		}
	}
	if ss.opt != nil {
		return checkOptState(e, s, ss.opt)
	}
	return nil
}

// checkGraph compares the dependency graph's formula set and registered
// precedents with a graph built from the sheet's formulas.
func checkGraph(s *sheet.Sheet, live, fresh *graph.Graph) error {
	if live.FormulaCount() != fresh.FormulaCount() {
		return fmt.Errorf("graph holds %d formulas, sheet %d", live.FormulaCount(), fresh.FormulaCount())
	}
	var err error
	s.EachFormula(func(a cell.Addr, _ sheet.Formula) bool {
		if got, want := live.Precedents(a), fresh.Precedents(a); !reflect.DeepEqual(got, want) {
			err = fmt.Errorf("graph precedents of %s = %v, want %v", a.A1(), got, want)
		}
		return err == nil
	})
	return err
}

// checkFormulaSet checks the artifacts derived from the formula set: the
// calc chain, the region inference and its graph, the parallel
// certificate, and the value certificate while it is valid.
func checkFormulaSet(e *Engine, s *sheet.Sheet, ss *sheetState, fresh *graph.Graph) error {
	sr := regions.Infer(s)
	rg := regions.Build(sr)
	if c := ss.chain; c != nil {
		order, cyclic := fresh.AllFormulas()
		perCell := addrsEqual(c.order, order) && addrsEqual(c.cyclic, cyclic)
		byRegion := len(c.cyclic) == 0 && rg.OK() && addrsEqual(c.order, rg.Order())
		if !perCell && !byRegion {
			return fmt.Errorf("calc chain (%d cells, %d cyclic) is neither the per-cell order (%d, %d) nor the region order",
				len(c.order), len(c.cyclic), len(order), len(cyclic))
		}
	}
	if live := ss.region; live != nil {
		if err := regionsEqual(live.Regions(), sr); err != nil {
			return err
		}
		if live.OK() != rg.OK() || !addrsEqual(live.Order(), rg.Order()) {
			return fmt.Errorf("region order (ok=%t, %d cells) differs from a fresh region graph (ok=%t, %d cells)",
				live.OK(), len(live.Order()), rg.OK(), len(rg.Order()))
		}
	}
	if c := ss.pcert; c != nil {
		want := interfere.Analyze(sr)
		if c.Version != ss.ver || c.OK != want.OK || c.Regions != want.Regions || c.Formulas != want.Formulas ||
			!reflect.DeepEqual(c.Stage, want.Stage) || !reflect.DeepEqual(c.Stages, want.Stages) ||
			len(c.Blockers) != len(want.Blockers) {
			return fmt.Errorf("parallel certificate (version %d, %d regions, %d stages, ok=%t) differs from a fresh one (version %d, %d regions, %d stages, ok=%t)",
				c.Version, c.Regions, c.StageCount(), c.OK, ss.ver, want.Regions, want.StageCount(), want.OK)
		}
	}
	if vc := ss.vcert; vc != nil && ss.opt != nil && ss.opt.version == vc.optVersion {
		want := absint.InferSheet(s).Certify()
		if !reflect.DeepEqual(vc.cert, want) {
			return fmt.Errorf("value certificate differs from a fresh inference")
		}
		skips := make(map[cell.Addr]cell.Value)
		for a, cv := range want.Consts {
			if s.Value(a) == cv {
				skips[a] = cv
			}
		}
		if !reflect.DeepEqual(vc.skips, skips) {
			return fmt.Errorf("value certificate skips %d constants, a fresh issuance %d", len(vc.skips), len(skips))
		}
	}
	return nil
}

// regionsEqual compares two inferences region by region, classes by their
// R1C1 text (class numbering follows discovery order, which a split in
// place does not preserve).
func regionsEqual(got, want *regions.SheetRegions) error {
	if got.Formulas != want.Formulas || len(got.Regions) != len(want.Regions) {
		return fmt.Errorf("region inference has %d regions over %d formulas, a fresh one %d over %d",
			len(got.Regions), got.Formulas, len(want.Regions), want.Formulas)
	}
	for i, r := range got.Regions {
		w := want.Regions[i]
		if r.Col != w.Col || r.Start != w.Start || r.End != w.End ||
			got.Classes[r.Class].Text != want.Classes[w.Class].Text {
			return fmt.Errorf("region %d = col %d rows %d-%d %q, fresh col %d rows %d-%d %q", i,
				r.Col, r.Start, r.End, got.Classes[r.Class].Text, w.Col, w.Start, w.End, want.Classes[w.Class].Text)
		}
	}
	return nil
}

// checkOptState checks the optimization structures: the column indexes,
// the inverted index, the materialized aggregates, and the typed-column
// and sortedness facts.
func checkOptState(e *Engine, s *sheet.Sheet, st *optState) error {
	rows := s.Rows()
	for _, col := range sortedKeys(st.hash) {
		live, want := st.hash[col], index.NewHash()
		for r := 0; r < rows; r++ {
			want.Add(r, s.Value(cell.Addr{Row: r, Col: col}))
		}
		if live.Len() != want.Len() || live.DistinctValues() != want.DistinctValues() {
			return fmt.Errorf("hash index on column %d holds %d rows / %d values, a fresh one %d / %d",
				col, live.Len(), live.DistinctValues(), want.Len(), want.DistinctValues())
		}
		for r := 0; r < rows; r++ {
			v := s.Value(cell.Addr{Row: r, Col: col})
			gotN, _ := live.Count(v, 0, rows-1)
			wantN, _ := want.Count(v, 0, rows-1)
			gotRow, _, _ := live.FirstRow(v, 0, rows-1)
			wantRow, _, _ := want.FirstRow(v, 0, rows-1)
			if gotN != wantN || gotRow != wantRow {
				return fmt.Errorf("hash index on column %d: %v counted %d first at row %d, fresh %d at %d",
					col, v, gotN, gotRow, wantN, wantRow)
			}
		}
	}
	for _, col := range sortedKeys(st.btree) {
		live, want := st.btree[col], index.NewBTree(32)
		for r := 0; r < rows; r++ {
			want.Add(r, s.Value(cell.Addr{Row: r, Col: col}))
		}
		if got, exp := btreeItems(live), btreeItems(want); !reflect.DeepEqual(got, exp) {
			return fmt.Errorf("B+-tree on column %d holds %d items, a fresh one %d (or they differ)", col, len(got), len(exp))
		}
	}
	for _, col := range sortedKeys(st.prefix) {
		live := st.prefix[col]
		if live.Dirty() {
			continue // rebuilt before its next use
		}
		vals := make([]float64, rows)
		present := make([]bool, rows)
		errs := make([]bool, rows)
		for r := 0; r < rows; r++ {
			v := s.Value(cell.Addr{Row: r, Col: col})
			if v.Kind == cell.Number {
				vals[r], present[r] = v.Num, true
			}
			errs[r] = v.IsError()
		}
		// An index shorter than a grown sheet is coherent when the rows it
		// misses are blank; the queries clamp, so comparing them says so.
		want := index.NewPrefixSums(vals, present, errs)
		for r := 0; r < rows; r++ {
			if live.Sum(0, r) != want.Sum(0, r) || live.Count(0, r) != want.Count(0, r) || live.Errors(0, r) != want.Errors(0, r) {
				return fmt.Errorf("prefix sums on column %d through row %d: sum %v count %d errors %d, fresh %v %d %d",
					col, r, live.Sum(0, r), live.Count(0, r), live.Errors(0, r), want.Sum(0, r), want.Count(0, r), want.Errors(0, r))
			}
		}
	}
	if live := st.inverted; live != nil {
		want := index.NewInverted()
		for r := 0; r < rows; r++ {
			for c := 0; c < s.Cols(); c++ {
				a := cell.Addr{Row: r, Col: c}
				if v := s.Value(a); v.Kind == cell.Text {
					want.Add(a, v.Str)
				}
			}
		}
		if live.Tokens() != want.Tokens() || live.DistinctTokens() != want.DistinctTokens() {
			return fmt.Errorf("inverted index holds %d tokens (%d distinct), a fresh one %d (%d)",
				live.Tokens(), live.DistinctTokens(), want.Tokens(), want.DistinctTokens())
		}
		for r := 0; r < rows; r++ {
			for c := 0; c < s.Cols(); c++ {
				v := s.Value(cell.Addr{Row: r, Col: c})
				if v.Kind != cell.Text {
					continue
				}
				for _, tok := range index.Tokenize(v.Str) {
					got, _ := live.Lookup(tok)
					exp, _ := want.Lookup(tok)
					if !addrsEqual(sortedAddrs(got), sortedAddrs(exp)) {
						return fmt.Errorf("inverted index posting of %q: %d cells, fresh %d", tok, len(got), len(exp))
					}
				}
			}
		}
	}
	for _, at := range sortedAddrKeys(st.aggs) {
		m := st.aggs[at]
		fc, ok := s.Formula(at)
		if !ok {
			return fmt.Errorf("materialized aggregate at %s hosts no formula", at.A1())
		}
		env := &formula.Env{Src: s, Meter: &costmodel.Meter{}, Now: e.nowFn, Lookup: e.prof.Lookup}
		env.DR, env.DC = fc.DeltaAt(at)
		want := formula.Eval(fc.Code, env)
		if got := m.value(); got != want || s.Value(at) != want {
			return fmt.Errorf("materialized aggregate at %s = %v (cached %v), fresh evaluation %v", at.A1(), got, s.Value(at), want)
		}
	}
	for _, col := range sortedKeys(st.typed) {
		if st.typed[col] != rows {
			continue // the sheet grew; the claim is no longer consulted
		}
		for r := 1; r < rows; r++ {
			a := cell.Addr{Row: r, Col: col}
			if _, isF := s.Formula(a); isF || s.Value(a).Kind != cell.Number {
				return fmt.Errorf("typed column %d breaks its all-numeric value contract at %s (%v)", col, a.A1(), s.Value(a))
			}
		}
	}
	for _, col := range sortedKeys(st.sorted) {
		sc := st.sorted[col]
		if sc.ver != st.colVer[col] || sc.epoch != st.sortedEpoch {
			continue // rescanned before its next use
		}
		if sc.r1 >= rows {
			return fmt.Errorf("sortedness fact on column %d covers rows %d-%d of %d", col, sc.r0, sc.r1, rows)
		}
		if want := absint.SortedAscRun(s, col, sc.r0, sc.r1); sc.ok != want {
			return fmt.Errorf("sortedness fact on column %d rows %d-%d says %t, a rescan %t", col, sc.r0, sc.r1, sc.ok, want)
		}
	}
	return nil
}

type btItemView struct {
	v   cell.Value
	row int
}

func btreeItems(t *index.BTree) []btItemView {
	var out []btItemView
	t.Each(func(v cell.Value, row int) bool {
		out = append(out, btItemView{v, row})
		return true
	})
	return out
}

func addrsEqual(a, b []cell.Addr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortedAddrs(in []cell.Addr) []cell.Addr {
	out := append([]cell.Addr(nil), in...)
	sortAddrs(out)
	return out
}

func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func sortedAddrKeys[V any](m map[cell.Addr]V) []cell.Addr {
	out := make([]cell.Addr, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sortAddrs(out)
	return out
}
