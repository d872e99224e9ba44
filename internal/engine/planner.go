package engine

import (
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sheet"
)

// This file is the consumption side of the cost-based planner
// (internal/plan). The plan is derived uncharged (planning is static
// analysis over stored values and formula ASTs — the same work a real
// engine's optimizer does off the metered path); its validity keys and the
// two guards that bound rebuilds (version check, once per operation) are in
// the lifecycle table of docs/ANALYSIS.md. A stale plan is safe — it is
// advisory for cost only; every fast path keeps its own soundness guard.
//
// A rebuild re-derives only what the triggering change invalidated: the
// engine's plan.Cache persists across rebuilds and keys column statistics
// and value-column certificates by (column version, graph version), the
// site inventory and region facts by graph version. The rebuilt plan
// equals a cold plan.Build.

// planEntry is one derived plan plus the versions it was built under.
type planEntry struct {
	plan *plan.Plan
	// sheets holds the workbook's sheets in order with their graph
	// versions and dimensions: a sheet added, removed or reordered, a
	// formula-set edit, or a write that grows a sheet invalidates the plan.
	sheets []sheetVersion
	// statVers invalidates on changes to the columns whose statistics the
	// plan consulted (colVer closed over the reorder epoch).
	statVers []plan.StatColumn
	// builtAt is the operation sequence number the plan was built during;
	// rebuilds are suppressed until the next operation.
	builtAt int64
	// validatedAt memoizes a successful (or suppressed) validity check per
	// operation, so per-lookup consults don't re-walk the version lists.
	validatedAt int64
}

// sheetVersion is one sheet with its formula-set (graph) version and
// dimensions, which the plan's statistics summary records.
type sheetVersion struct {
	s          *sheet.Sheet
	ver        int64
	rows, cols int
}

func (e *Engine) sheetVersion(s *sheet.Sheet) sheetVersion {
	return sheetVersion{s: s, ver: e.graph(s).Version(), rows: s.Rows(), cols: s.Cols()}
}

// colVersion is the statistics invalidation key for one column: the
// optState column version closed over the reorder epoch (a sort moves
// values between rows without routing them through noteCellChange, so the
// epoch is what retires a never-written column's statistics). A loaded
// sheet whose optimization state Install has not attached yet reads 0,
// the key a fresh optState starts from.
func (e *Engine) colVersion(name string, col int) int64 {
	s := e.wb.Sheet(name)
	if s == nil {
		return 0
	}
	st := e.state(s).opt
	if st == nil {
		return 0
	}
	return st.sortedEpoch<<32 | (st.colVer[col] & 0xffffffff)
}

// formulaVersion is the formula-set version of the named sheet: its
// dependency graph's version, which every formula insert, removal, move
// and rebuild bumps.
func (e *Engine) formulaVersion(name string) int64 {
	return e.graph(e.wb.Sheet(name)).Version()
}

// currentPlan returns a plan entry to consult, validating the cached one
// and rebuilding it when stale — at most once per operation.
func (e *Engine) currentPlan() *planEntry {
	if !e.prof.Opt.CostPlanner {
		return nil
	}
	pe := e.planEntry
	if pe != nil {
		if pe.validatedAt == e.opSeq {
			return pe
		}
		if e.planEntryValid(pe) || pe.builtAt == e.opSeq {
			pe.validatedAt = e.opSeq
			return pe
		}
	}
	return e.rebuildPlan()
}

// planEntryValid re-checks the versions a plan entry was derived under.
func (e *Engine) planEntryValid(pe *planEntry) bool {
	sheets := e.wb.Sheets()
	if len(sheets) != len(pe.sheets) {
		return false
	}
	for i, sv := range pe.sheets {
		if e.sheetVersion(sheets[i]) != sv {
			return false
		}
	}
	for _, sc := range pe.statVers {
		if e.colVersion(sc.Sheet, sc.Col) != sc.Version {
			return false
		}
	}
	return true
}

// rebuildPlan derives a fresh plan, reusing every cached derivation whose
// versions still hold.
func (e *Engine) rebuildPlan() *planEntry {
	sp := obs.Start("engine.plan_build")
	defer sp.End()
	if e.planCache == nil {
		e.planCache = plan.NewCache()
	}
	p := plan.Build(e.wb, plan.Options{
		Coeff:          e.prof.Coeff,
		Cache:          e.planCache,
		ColVersion:     e.colVersion,
		FormulaVersion: e.formulaVersion,
	})
	pe := &planEntry{
		plan:        p,
		sheets:      make([]sheetVersion, 0, e.wb.Len()),
		statVers:    p.StatColumns(),
		builtAt:     e.opSeq,
		validatedAt: e.opSeq,
	}
	for _, s := range e.wb.Sheets() {
		pe.sheets = append(pe.sheets, e.sheetVersion(s))
	}
	e.planEntry = pe
	e.met.planBuilds.Add(1)
	d := p.Derivation()
	e.met.notePlanReuse(d)
	sp.Int("choices", int64(len(p.Choices()))).
		Str("sites", reuseAttr(d.SitesReused, d.SitesBuilt)).
		Str("recalc", reuseAttr(d.RecalcReused, d.RecalcBuilt)).
		Str("cert", string(d.Cert)).
		Int("stats_collected", int64(d.StatsCollected))
	return pe
}

// reuseAttr renders one reuse span attribute: "build" when any sheet
// re-derived the part, "cache" when every sheet reused it, "none" when no
// sheet needed it.
func reuseAttr(reused, built int) string {
	switch {
	case built > 0:
		return "build"
	case reused > 0:
		return "cache"
	default:
		return "none"
	}
}

// SettledPlan returns the plan the next operation's first consult would
// see: the cached plan re-validated against the current versions and
// rebuilt when stale. Unlike Plan it ignores the once-per-operation
// rebuild guard, so it never returns a plan the current operation's own
// writes retired; plan-coherence checks compare it with a cold
// plan.Build. Nil when the profile has no planner.
func (e *Engine) SettledPlan() *plan.Plan {
	if !e.prof.Opt.CostPlanner {
		return nil
	}
	if pe := e.planEntry; pe != nil && e.planEntryValid(pe) {
		return pe.plan
	}
	return e.rebuildPlan().plan
}

// plannedSheet returns the sheet's plan section, or nil when the profile
// has no planner (callers then keep the hard-wired behavior).
func (e *Engine) plannedSheet(s *sheet.Sheet) *plan.SheetPlan {
	pe := e.currentPlan()
	if pe == nil {
		return nil
	}
	return pe.plan.SheetPlan(s.Name)
}

// Plan returns the engine's current cost-based plan, deriving or
// refreshing it as needed; nil when the profile has no planner. The CLI's
// plan command and tests read it.
func (e *Engine) Plan() *plan.Plan {
	pe := e.currentPlan()
	if pe == nil {
		return nil
	}
	return pe.plan
}

// plannedBinarySearch gates the sortedness-certificate fast path: when the
// planner chose a different strategy for this exact-lookup site, the
// binary search is vetoed and the lookup falls through to the scan. Sites
// the plan doesn't cover keep the hard-wired behavior. (Under the planned
// profile approximate lookups never reach the certificate — the
// ApproxBinarySearch policy short-circuits first — so the site is keyed
// exact.)
func (e *Engine) plannedBinarySearch(s *sheet.Sheet, col, r0, r1 int) bool {
	sp := e.plannedSheet(s)
	if sp == nil {
		return true
	}
	strat, ok := sp.LookupStrategy(col, r0, r1, true)
	return !ok || strat == plan.BinarySearch
}

// plannedHashProbe gates the column-index probe for an exact lookup site
// (formula.IndexAdvisor): a veto must land before the probe, because a
// probe miss is authoritative (#N/A) and never falls back to the scan.
func (e *Engine) plannedHashProbe(s *sheet.Sheet, col, r0, r1 int) bool {
	sp := e.plannedSheet(s)
	if sp == nil {
		return true
	}
	strat, ok := sp.LookupStrategy(col, r0, r1, true)
	return !ok || strat == plan.HashProbe
}

// plannedCountIfIndex gates COUNTIF's index service for one column.
func (e *Engine) plannedCountIfIndex(s *sheet.Sheet, col int) bool {
	sp := e.plannedSheet(s)
	return sp == nil || sp.CountIfIndexed(col)
}

// plannedPrefix gates the prefix-sum aggregate service for one column.
func (e *Engine) plannedPrefix(s *sheet.Sheet, col int) bool {
	sp := e.plannedSheet(s)
	return sp == nil || sp.PrefixServe(col)
}

// plannedRegionChain gates region-level recalculation sequencing.
func (e *Engine) plannedRegionChain(s *sheet.Sheet) bool {
	sp := e.plannedSheet(s)
	return sp == nil || sp.UseRegionChain()
}

// plannedDeltas gates O(1) aggregate maintenance on edits.
func (e *Engine) plannedDeltas(s *sheet.Sheet) bool {
	sp := e.plannedSheet(s)
	return sp == nil || sp.UseDeltas()
}

// plannedEagerCols returns the prefix-index columns the plan schedules for
// the install-time build (replacing the hard-wired shared-aggregate
// threshold).
func (e *Engine) plannedEagerCols(s *sheet.Sheet) []int {
	sp := e.plannedSheet(s)
	if sp == nil {
		return nil
	}
	return sp.EagerIndexCols()
}
