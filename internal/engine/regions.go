package engine

import (
	"repro/internal/cell"
	"repro/internal/costmodel"
	"repro/internal/obs"
	"repro/internal/regions"
	"repro/internal/sheet"
)

// The RegionGraph optimization: calc-chain sequencing and dirty propagation
// operate on inferred fill regions (internal/regions) instead of per-cell
// graph nodes. The region graph, with the inference it holds, is a
// formula-set artifact of the sheet's derived state (lifecycle in
// docs/ANALYSIS.md); its one incremental path is a formula overwrite on an
// otherwise unchanged sheet, where the hosting region splits in place
// (SplitAt) and only the O(#regions) graph is rebuilt.

// regionsFor returns the region graph of the sheet's current formula set,
// inferring it when stale. Under the RegionGraph optimization the
// inference and graph build are charged to DepOp — they replace the
// per-cell sequencing work the naive path would charge; on other profiles
// only the parallel certificate reads them, and that static analysis is
// uncharged.
func (e *Engine) regionsFor(s *sheet.Sheet, meter *costmodel.Meter) *regions.Graph {
	ss := e.state(s).current()
	if ss.region != nil {
		return ss.region
	}
	sp := obs.Start("regions.reinfer")
	defer sp.End()
	e.met.regionReinfer.Add(1)
	sr := regions.Infer(s)
	rg := regions.Build(sr)
	if e.prof.Opt.RegionGraph {
		meter.Add(costmodel.DepOp, sr.Ops()+rg.Ops())
	}
	sr.ResetOps()
	rg.ResetOps()
	ss.region = rg
	return rg
}

// removeFormula takes the formula at a, if any, out of the dependency
// graph before a literal lands on the cell (an edit, a paste, or a
// find-replace over a formula's text result). An aggregate materialized at
// a retires with it.
func (e *Engine) removeFormula(s *sheet.Sheet, a cell.Addr) {
	if _, ok := s.Formula(a); ok {
		ss := e.state(s)
		ss.version++
		if ss.g != nil {
			ss.g.RemoveFormula(a)
		}
		if ss.opt != nil {
			delete(ss.opt.aggs, a)
		}
		e.noteFormulaRemoved(s, a, &e.meter)
	}
}

// noteFormulaRemoved keeps the region chain valid across a formula
// overwrite — the uniformity-breaking edit. When the chain was current
// immediately before the removal, the hosting region splits around the
// cell and the region graph rebuilds in O(#regions); otherwise the stale
// chain is left for lazy re-inference.
func (e *Engine) noteFormulaRemoved(s *sheet.Sheet, a cell.Addr, meter *costmodel.Meter) {
	if !e.prof.Opt.RegionGraph {
		return
	}
	ss := e.state(s)
	if ss.region == nil || ss.ver != ss.version-1 {
		return
	}
	sp := obs.Start("regions.split")
	defer sp.End()
	sr := ss.region.Regions()
	sr.ResetOps()
	if !sr.SplitAt(a) {
		sp.Str("outcome", "dropped")
		return
	}
	e.met.regionsSplit.Add(1)
	sp.Str("outcome", "split")
	rg := regions.Build(sr)
	meter.Add(costmodel.DepOp, sr.Ops()+rg.Ops())
	sr.ResetOps()
	rg.ResetOps()
	// The other formula-set artifacts go with the old version; the split
	// chain is current at the new one.
	ss.current().region = rg
}

// dirtyOrder computes the evaluation order of the transitive dependents of
// the changed cells: over regions when the region chain applies, else over
// the per-cell graph. The region path returns a covering superset of the
// per-cell dirty set (sound: deterministic formulae re-evaluate to the same
// value) and never reports cyclic cells — region sequencing succeeds only
// on sheets whose per-cell graph is acyclic.
func (e *Engine) dirtyOrder(s *sheet.Sheet, changed []cell.Addr, meter *costmodel.Meter) (order, cyclic []cell.Addr) {
	// The planner veto runs before regionsFor so a vetoed path is not
	// charged for (re)inferring a chain it will not use.
	if e.plannedRegionChain(s) && e.prof.Opt.RegionGraph {
		if rg := e.regionsFor(s, meter); rg.OK() {
			rg.ResetOps()
			order = rg.DirtyFrom(changed)
			meter.Add(costmodel.DepOp, rg.Ops())
			rg.ResetOps()
			return order, nil
		}
	}
	g := e.graph(s, meter)
	g.ResetOps()
	order, cyclic = g.Dirty(changed)
	meter.Add(costmodel.DepOp, g.Ops())
	g.ResetOps()
	return order, cyclic
}

// RegionChainInfo exposes the sheet's current region chain for tests and
// diagnostics: region/formula counts and whether region-level sequencing is
// active (built, valid, and ordered). It never builds the chain.
func (e *Engine) RegionChainInfo(s *sheet.Sheet) (regionCount, formulaCount int, active bool) {
	ss := e.sheets[s]
	if ss == nil || ss.region == nil || !e.prof.Opt.RegionGraph {
		return 0, 0, false
	}
	sr := ss.region.Regions()
	return len(sr.Regions), sr.Formulas, ss.ver == ss.version && ss.region.OK()
}
