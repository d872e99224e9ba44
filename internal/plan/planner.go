package plan

import (
	"sort"

	"repro/internal/costmodel"
	"repro/internal/regions"
	"repro/internal/sheet"
)

// Options configures a plan build.
type Options struct {
	// Coeff scalarizes candidate meters to simulated time for comparison.
	// The zero value selects DefaultCoefficients.
	Coeff costmodel.Coefficients
	// SampleCap bounds the per-column distinct-count sample (default 256).
	SampleCap int
	// Cache, when non-nil, carries column statistics across plan builds,
	// invalidated per column by ColVersion.
	Cache *Cache
	// ColVersion supplies the current version of a column, keying cached
	// statistics the way the engine keys its sortedness certificates. Nil
	// means version 0 everywhere (immutable one-shot analysis).
	ColVersion func(sheetName string, col int) int64
	// FormulaVersion supplies a sheet's formula-set version (the engine's
	// per-sheet formula-set counter). While it holds, the Cache serves the
	// sheet's site inventory and recalc facts instead of re-deriving them.
	// Nil disables that reuse (one-shot analysis).
	FormulaVersion func(sheetName string) int64
}

// DefaultCoefficients is the planning coefficient set used when Options
// leaves Coeff zero: the Excel-scale per-op times from the engine's
// calibration (engine profiles pass their own coefficients instead, so this
// only backs standalone static analysis and the CLI).
func DefaultCoefficients() costmodel.Coefficients {
	var c costmodel.Coefficients
	c[costmodel.CellTouch] = 120
	c[costmodel.CellWrite] = 300
	c[costmodel.Compare] = 50
	c[costmodel.DepOp] = 1400
	c[costmodel.StaleCheck] = 40
	c[costmodel.FormulaEval] = 1000
	c[costmodel.IndexProbe] = 50
	return c
}

// lookupSite is one globally merged lookup site: every use across the
// workbook that probes the same (sheet, column, span, match kind).
type lookupSite struct {
	key      SiteKey
	fn       string
	mode     int
	count    int
	allLocal bool // every use hosted on the probed sheet (host index usable)
}

// Build derives a plan for the workbook: statistics for every column an
// operation site consults, priced candidates per site, and the chosen
// strategies with their predicted steady-state recalculation work. With a
// Cache, only what the versions say changed is re-derived; the plan is the
// same as a cold build's either way.
func Build(wb *sheet.Workbook, opt Options) *Plan {
	if opt.Coeff == (costmodel.Coefficients{}) {
		opt.Coeff = DefaultCoefficients()
	}
	pr := pricer{coeff: opt.Coeff}
	p := &Plan{}

	// Globally merged lookup sites, keyed by the sheet whose column they
	// probe (where the engine consults the plan).
	sites := make(map[string]map[SiteKey]*lookupSite)
	// A sheet is planned when it hosts formulas or a lookup site probes
	// it, in tab order; a formula-free sheet nothing reads (a pivot
	// output, say) costs a build nothing.
	hosts := make([]*sheetCtx, 0, len(wb.Sheets()))
	for _, s := range wb.Sheets() {
		if s.FormulaCount() == 0 {
			continue
		}
		ctx := p.newSheetCtx(s, opt)
		hosts = append(hosts, ctx)
		for _, uc := range ctx.set.uses {
			use := uc.use
			target, local := use.target, use.target == ""
			if local {
				target = s.Name
			}
			reg, ok := sites[target]
			if !ok {
				reg = make(map[SiteKey]*lookupSite)
				sites[target] = reg
			}
			site, ok := reg[use.key]
			if !ok {
				site = &lookupSite{key: use.key, fn: use.fn, mode: use.mode, allLocal: true}
				reg[use.key] = site
			}
			site.fn, site.mode = firstFnMode(site.fn, site.mode, use.fn, use.mode)
			site.count += int(uc.n)
			site.allLocal = site.allLocal && local
		}
	}
	// Merge the formula-free sheets a lookup probes into the hosts, which
	// are already in tab order.
	ctxs := make([]*sheetCtx, 0, len(hosts))
	for _, s := range wb.Sheets() {
		switch {
		case len(hosts) > 0 && hosts[0].s == s:
			ctxs, hosts = append(ctxs, hosts[0]), hosts[1:]
		case sites[s.Name] != nil:
			ctxs = append(ctxs, p.newSheetCtx(s, opt))
		}
	}

	plans := make(map[string]*SheetPlan)
	for _, ctx := range ctxs {
		ctx.sp = buildSheetPlan(ctx.s, ctx.set, ctx.recalc, ctx.coll, sites[ctx.s.Name], pr)
		p.Sheets = append(p.Sheets, ctx.sp)
		plans[ctx.s.Name] = ctx.sp
	}

	// Second pass: predict each sheet's steady-state recalculation work
	// under the chosen strategies. Lookup choices may live on other sheets,
	// so this runs only after every sheet plan exists.
	for _, ctx := range ctxs {
		predictSheet(ctx.sp, ctx.s.Name, ctx.set, plans)
	}

	// Record the statistics the plan rests on, with their versions — the
	// consumer's invalidation key.
	for _, ctx := range ctxs {
		var cols []int
		for col := range ctx.coll.cols {
			cols = append(cols, col)
		}
		sortInts(cols)
		for _, col := range cols {
			cs := ctx.coll.cols[col]
			ctx.sp.Stats.Columns = append(ctx.sp.Stats.Columns, *cs)
			p.statCols = append(p.statCols, StatColumn{Sheet: ctx.s.Name, Col: col, Version: cs.Version})
		}
		p.derived.StatsCollected += ctx.coll.collected
		p.derived.StatsReused += len(cols) - ctx.coll.collected
		p.derived.Cert.note(ctx.coll.certSrc)
	}
	return p
}

// sheetCtx is one planned sheet's inputs and, once built, its plan.
type sheetCtx struct {
	s      *sheet.Sheet
	set    *siteSet
	recalc *recalcFacts
	coll   *Collector
	sp     *SheetPlan
}

// newSheetCtx gathers one sheet's planning inputs: its cache entry, site
// inventory, statistics collector and (for a sheet hosting formulas)
// recalc facts, reusing cached derivations while their versions hold.
func (p *Plan) newSheetCtx(s *sheet.Sheet, opt Options) *sheetCtx {
	ver := func(col int) int64 { return 0 }
	if opt.ColVersion != nil {
		name := s.Name
		ver = func(col int) int64 { return opt.ColVersion(name, col) }
	}
	var fver int64
	if opt.FormulaVersion != nil {
		fver = opt.FormulaVersion(s.Name)
	}
	var sc *sheetCache
	if opt.Cache != nil {
		sc = opt.Cache.sheet(s)
	} else {
		sc = newSheetCache(s)
	}
	// Formula-derived analyses are reused only under a formula-set
	// version; otherwise they are derived afresh for this build.
	reuse := opt.Cache != nil && opt.FormulaVersion != nil
	if !reuse || sc.fver != fver {
		sc.fver, sc.sites, sc.recalc = fver, nil, nil
	}
	if sc.sites == nil {
		sc.sites = collectSites(s)
		p.derived.SitesBuilt++
	} else {
		p.derived.SitesReused++
	}
	ctx := &sheetCtx{
		s:    s,
		set:  sc.sites,
		coll: newCollector(s, ver, fver, sc, opt.SampleCap),
	}
	if s.FormulaCount() > 0 {
		if sc.recalc == nil {
			sc.recalc = inferRecalc(s)
			p.derived.RecalcBuilt++
		} else {
			p.derived.RecalcReused++
		}
		ctx.recalc = sc.recalc
	}
	return ctx
}

// buildSheetPlan makes every choice that executes against one sheet.
func buildSheetPlan(s *sheet.Sheet, set *siteSet, recalc *recalcFacts, coll *Collector, lookups map[SiteKey]*lookupSite, pr pricer) *SheetPlan {
	sp := &SheetPlan{
		Sheet: s.Name,
		Stats: SheetSummary{
			Rows:     s.Rows(),
			Cols:     s.Cols(),
			Formulas: s.FormulaCount(),
			External: s.ExternalCount(),
		},
	}

	var keys []SiteKey
	for key := range lookups {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	for _, key := range keys {
		c := planLookup(sp.Sheet, lookups[key], coll, pr)
		put(&sp.lookups, key, c)
		sp.Choices = append(sp.Choices, c)
	}

	for _, col := range sortedCols(set.countIf) {
		c := planCountIf(sp.Sheet, col, set.countIf[col], coll, pr)
		put(&sp.countIf, col, c)
		sp.Choices = append(sp.Choices, c)
	}
	for _, col := range sortedCols(set.aggs) {
		c := planAggregate(sp.Sheet, col, set.aggs[col], pr)
		put(&sp.aggs, col, c)
		sp.Choices = append(sp.Choices, c)
		if c.Chosen == PrefixSum {
			b := planBuild(sp.Sheet, col, set.aggs[col], pr)
			put(&sp.builds, col, b)
			sp.Choices = append(sp.Choices, b)
		}
	}

	if recalc != nil {
		c := planRecalc(s.Name, int64(s.FormulaCount()), recalc, pr)
		sp.recalc = c
		sp.Stats.Regions = recalc.regions
		sp.Choices = append(sp.Choices, c)
	}
	if c, loads := planMaintenance(sp.Sheet, set, pr); c != nil {
		sp.maint = c
		sp.maintLoads = loads
		sp.Choices = append(sp.Choices, c)
	}
	return sp
}

// planLookup prices scan vs binary search vs hash probe for one lookup
// site on the sheet holding the key column.
func planLookup(sheetName string, site *lookupSite, coll *Collector, pr pricer) *Choice {
	n := site.key.Span()
	cs := coll.Column(site.key.Col)
	sorted, static := coll.SortedAsc(site.key.Col, site.key.R0, site.key.R1)
	count := int64(site.count)

	cands := []Candidate{{
		Strategy: Scan,
		Work:     ScanLookupWork(site.fn, site.mode, n),
		Feasible: true,
	}}

	bs := Candidate{Strategy: BinarySearch}
	switch {
	case site.mode < 0:
		bs.Note = "descending match order"
	case !sorted:
		bs.Note = "key column not an ascending numeric run"
	default:
		bs.Feasible = true
		bs.Work = BinSearchLookupWork(site.fn, n, static, count)
		if !static {
			bs.Note = "first use pays a certification rescan (amortized)"
		}
	}
	cands = append(cands, bs)

	hp := Candidate{Strategy: HashProbe}
	switch {
	case !site.key.Exact:
		hp.Note = "approximate match needs ordered access"
	case !site.allLocal:
		hp.Note = "cross-sheet table: no host-sheet index"
	default:
		hp.Feasible = true
		hp.Work = hashLookupWork(n, cs.ExpectedMatches(n), count)
	}
	cands = append(cands, hp)

	c := choose(KindLookup, sheetName, site.fn, cands, pr)
	c.Site = site.key
	c.Count = site.count
	c.Basis = newBasis(siteID(sheetName, site.key)).num(" n=", n).num(" uses=", count).
		num(" distinct≈", int64(cs.Distinct)).flag(" sorted=", sorted).flag(" static=", static).String()
	switch c.Chosen {
	case BinarySearch:
		c.serveWork = BinSearchLookupWork(site.fn, n, true, 1)
		if !static {
			c.buildWork = mk(mTouch, n)
		}
	case HashProbe:
		c.serveWork = mk(mProbe, cs.ExpectedMatches(n), mTouch, 1)
		c.buildWork = mk(mTouch, n, mProbe, n)
	case Scan:
		c.serveWork = ScanLookupWork(site.fn, site.mode, n)
	}
	return c
}

// planCountIf prices full scan vs index probes for COUNTIF over one
// column.
func planCountIf(sheetName string, col int, agg *colSiteAgg, coll *Collector, pr pricer) *Choice {
	n := int64(agg.r1 - agg.r0 + 1)
	cs := coll.Column(col)
	count := int64(agg.count)

	cands := []Candidate{{Strategy: Scan, Work: scanCountWork(n), Feasible: true}}
	if agg.equality {
		cands = append(cands, Candidate{
			Strategy: HashProbe,
			Work:     hashCountWork(n, cs.ExpectedMatches(n), count),
			Feasible: true,
		})
	} else {
		cands = append(cands, Candidate{
			Strategy: BTreeCount,
			Work:     btreeCountWork(n, count),
			Feasible: true,
		})
	}

	c := choose(KindCountIf, sheetName, agg.fn, cands, pr)
	c.Site = SiteKey{Col: col, R0: agg.r0, R1: agg.r1, Exact: agg.equality}
	c.Count = agg.count
	c.Basis = newBasis(siteID(sheetName, c.Site)).num(" n=", n).num(" uses=", count).
		num(" distinct≈", int64(cs.Distinct)).flag(" equality=", agg.equality).String()
	switch c.Chosen {
	case HashProbe:
		c.serveWork = mk(mProbe, cs.ExpectedMatches(n), mEval, 1)
		c.buildWork = mk(mTouch, n, mProbe, n)
	case BTreeCount:
		c.serveWork = mk(mProbe, 2*(CeilLog2(n)+1), mEval, 1)
		c.buildWork = mk(mTouch, n, mProbe, n)
	case Scan:
		c.serveWork = scanCountWork(n)
	}
	return c
}

// planAggregate prices full scan vs prefix-sum service for SUM/COUNT/
// AVERAGE over one column. The prefix candidate is priced with a lazy
// (amortized) fill; the separate build choice then schedules it eagerly.
func planAggregate(sheetName string, col int, agg *colSiteAgg, pr pricer) *Choice {
	n := int64(agg.r1 - agg.r0 + 1)
	count := int64(agg.count)
	cands := []Candidate{
		{Strategy: Scan, Work: scanAggWork(n), Feasible: true},
		{Strategy: PrefixSum, Work: prefixAggWork(n, count, false), Feasible: true},
	}
	c := choose(KindAggregate, sheetName, agg.fn, cands, pr)
	c.Site = SiteKey{Col: col, R0: agg.r0, R1: agg.r1}
	c.Count = agg.count
	c.Basis = newBasis(siteID(sheetName, c.Site)).num(" n=", n).num(" uses=", count).String()
	if c.Chosen == PrefixSum {
		c.serveWork = mk(mProbe, 2, mEval, 1)
		c.buildWork = mk(mTouch, n)
	} else {
		c.serveWork = scanAggWork(n)
	}
	return c
}

// planBuild schedules a chosen prefix-sum index eagerly (install time,
// uncharged by the engine's accounting) or lazily (first use pays the
// fill). With even one instance the eager build dominates.
func planBuild(sheetName string, col int, agg *colSiteAgg, pr pricer) *Choice {
	n := int64(agg.r1 - agg.r0 + 1)
	count := int64(agg.count)
	cands := []Candidate{
		{Strategy: EagerBuild, Work: prefixAggWork(n, count, true), Feasible: true,
			Note: "install-time build, uncharged"},
		{Strategy: LazyBuild, Work: prefixAggWork(n, count, false), Feasible: true},
	}
	c := choose(KindIndexBuild, sheetName, agg.fn, cands, pr)
	c.Site = SiteKey{Col: col, R0: agg.r0, R1: agg.r1}
	c.Count = agg.count
	c.Basis = newBasis(siteID(sheetName, c.Site)).num(" n=", n).num(" uses=", count).String()
	return c
}

// recalcFacts are the region-inference results the recalc choice rests
// on. They depend on the formula set alone (region inference reads no
// values), so a Cache keeps them across value edits.
type recalcFacts struct {
	regions  int
	inferOps int64
	ok       bool
}

// inferRecalc runs the real region inference (planning is uncharged static
// analysis, so the measured op counts are free to consult).
func inferRecalc(s *sheet.Sheet) *recalcFacts {
	sr := regions.Infer(s)
	g := regions.Build(sr)
	return &recalcFacts{regions: len(sr.Regions), inferOps: sr.Ops() + g.Ops(), ok: g.OK()}
}

// planRecalc prices region-level vs per-cell recalculation sequencing for
// one sheet of f formulas.
func planRecalc(sheetName string, f int64, rf *recalcFacts, pr pricer) *Choice {
	cands := []Candidate{{Strategy: PerCell, Work: perCellSequenceWork(f), Feasible: true}}
	rc := Candidate{Strategy: RegionChain}
	if rf.ok {
		rc.Feasible = true
		rc.Work = regionSequenceWork(rf.inferOps, f)
	} else {
		rc.Note = "region graph not orderable (irregular dependencies)"
	}
	cands = append(cands, rc)

	c := choose(KindRecalc, sheetName, "", cands, pr)
	c.Count = int(f)
	c.Basis = newBasis(sheetName).num(" formulas=", f).num(" regions=", int64(rf.regions)).
		num(" inferOps=", rf.inferOps).flag(" ok=", rf.ok).String()
	if cand, ok := c.chosenCandidate(); ok {
		c.serveWork = cand.Work
		if c.Chosen == RegionChain {
			// Emission repeats every recalc; inference only when the engine's
			// region cache is stale (incremental maintenance usually keeps it
			// warm across formula edits).
			c.serveWork = mk(mDepOp, f)
			c.buildWork = mk(mDepOp, rf.inferOps)
		}
	}
	return c
}

// planMaintenance prices delta vs recompute maintenance of materialized
// aggregates through a cell edit, using the worst (most covered) column as
// the representative edit site. Sheets with no aggregate sites skip the
// choice (nothing to maintain either way). The second result carries the
// per-column aggregate counts backing MaintWork's per-edit predictions.
func planMaintenance(sheetName string, set *siteSet, pr pricer) (*Choice, map[int]int64) {
	type colLoad struct {
		aggs  int64
		cells int64
	}
	loads := make(map[int]*colLoad)
	note := func(col int, agg *colSiteAgg) {
		l, ok := loads[col]
		if !ok {
			l = &colLoad{}
			loads[col] = l
		}
		l.aggs += int64(agg.count)
		l.cells += int64(agg.count) * int64(agg.r1-agg.r0+1)
	}
	for col, agg := range set.countIf {
		note(col, agg)
	}
	for col, agg := range set.aggs {
		note(col, agg)
	}
	if len(loads) == 0 {
		return nil, nil
	}
	worstCol, worst := -1, &colLoad{}
	for col, l := range loads {
		if l.cells > worst.cells || (l.cells == worst.cells && (worstCol < 0 || col < worstCol)) {
			worstCol, worst = col, l
		}
	}

	cands := []Candidate{
		{Strategy: Delta, Work: deltaMaintWork(worst.aggs), Feasible: true},
		{Strategy: Recompute, Work: recomputeMaintWork(worst.cells), Feasible: true},
	}
	c := choose(KindMaint, sheetName, "", cands, pr)
	c.Site = SiteKey{Col: worstCol}
	c.Count = int(worst.aggs)
	c.Basis = newBasis(sheetName).num(" worst col=", int64(worstCol)).num(" aggregates=", worst.aggs).
		num(" covered cells=", worst.cells).String()
	perCol := make(map[int]int64, len(loads))
	for col, l := range loads {
		perCol[col] = l.aggs
	}
	return c, perCol
}

// choose scalarizes the candidates, orders feasible ones by ascending
// simulated time (infeasible ones trail), and picks the cheapest feasible.
func choose(kind, sheetName, fn string, cands []Candidate, pr pricer) *Choice {
	for i := range cands {
		if cands[i].Feasible {
			cands[i].Sim = pr.sim(cands[i].Work)
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].Feasible != cands[j].Feasible {
			return cands[i].Feasible
		}
		if !cands[i].Feasible {
			return false
		}
		return cands[i].Sim < cands[j].Sim
	})
	c := &Choice{Kind: kind, Sheet: sheetName, Fn: fn, Candidates: cands}
	if len(cands) > 0 && cands[0].Feasible {
		c.Chosen = cands[0].Strategy
	}
	return c
}

// predictSheet computes the sheet's Predicted, PredictedExt and
// PredictedReads meters: one
// evaluation of every hosted formula under the chosen strategies — the
// site set's lookup-free base plus, per lookup shape, its call count times
// the chosen strategy's work (a scan where no choice covers the site).
// COUNTIF and aggregate sites are charged as scans in the base — the
// engine's index and prefix services answer formula *insertion*, while
// full recalculation always re-scans (the plan's countif/aggregate choices
// are priced against insert-time work in the bench matrix instead).
func predictSheet(sp *SheetPlan, hostName string, set *siteSet, plans map[string]*SheetPlan) {
	pm, ext := set.base, set.extBase
	for _, uc := range set.uses {
		work := lookupWork(uc.use, hostName, plans)
		addMeterTimes(&pm, work, uc.n)
		addMeterTimes(&ext, work, uc.ext)
	}
	sp.Predicted = pm
	sp.PredictedExt = ext
	sp.PredictedReads = nil
	for name, r := range set.reads {
		m := r.base
		for use, n := range r.uses {
			addMeterTimes(&m, lookupWork(use, hostName, plans), n)
		}
		put(&sp.PredictedReads, name, m)
	}
}

// lookupWork is the work of one lookup call under the strategy chosen for
// its site (a scan where no choice covers it).
func lookupWork(use lookupUse, hostName string, plans map[string]*SheetPlan) costmodel.Meter {
	target := use.target
	if target == "" {
		target = hostName
	}
	if tp := plans[target]; tp != nil {
		if c, ok := tp.lookups[use.key]; ok {
			if cand, ok := c.chosenCandidate(); ok {
				return cand.Work
			}
		}
	}
	return ScanLookupWork(use.fn, use.mode, use.key.Span())
}

// sortedCols returns the map's keys ascending.
func sortedCols(m map[int]*colSiteAgg) []int {
	cols := make([]int, 0, len(m))
	for col := range m {
		cols = append(cols, col)
	}
	sortInts(cols)
	return cols
}
