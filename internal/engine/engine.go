package engine

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/cell"
	"repro/internal/costmodel"
	"repro/internal/formula"
	"repro/internal/graph"
	"repro/internal/interfere"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/regions"
	"repro/internal/sheet"
)

// Result reports one operation's cost on both clocks, plus the work-unit
// breakdown. Sim is comparable to the paper's measurements of the modeled
// system; Wall is the raw cost of this Go engine.
type Result struct {
	// Wall is the real elapsed time of the operation.
	Wall time.Duration
	// Sim is the calibrated simulated latency (DESIGN.md §4).
	Sim time.Duration
	// Work is the work-unit delta the operation metered.
	Work costmodel.Meter
	// Op is the operation kind.
	Op OpKind
}

// Engine is one spreadsheet system instance: a workbook, per-sheet
// dependency graphs, the system profile, work meters, and (for web
// profiles) a simulated network. Engines are single-threaded, like every
// experiment in the paper (§3.3).
type Engine struct {
	prof Profile
	wb   *sheet.Workbook

	// sheets holds each sheet's derived state (sheetState); state is the
	// one accessor.
	sheets map[*sheet.Sheet]*sheetState

	meter       costmodel.Meter // operation-attributed work
	recalcMeter costmodel.Meter // unmultiplied recalculation work (pivot)
	net         *netsim.Network
	netTime     time.Duration // simulated network time, cumulative
	netErr      error         // sticky quota error

	// Cost-based planner state (planner.go): the current plan entry with
	// its validity versions, the cross-rebuild statistics cache, and the
	// operation sequence number bounding rebuilds to one per operation.
	planEntry *planEntry
	planCache *plan.Cache
	opSeq     int64

	// driftPend is the plan-drift monitor's armed lookup observation
	// (drift.go); single-threaded like the engine itself.
	driftPend driftPending

	// Cross-sheet settle state (xsheet.go): track says the current
	// operation logs its writes; seen is the sheet list at the last settle
	// and fresh the sheets appended since.
	track bool
	seen  []*sheet.Sheet
	fresh []*sheet.Sheet

	nowFn func() time.Time
	met   engineMetrics
}

// New returns an engine with an empty workbook under the given profile.
func New(prof Profile) *Engine {
	e := &Engine{
		prof:  prof,
		wb:    sheet.NewWorkbook(),
		nowFn: time.Now,
		met:   newEngineMetrics(prof.Name),
	}
	e.resetDerived()
	if prof.Web {
		e.net = netsim.New(prof.Net)
	}
	return e
}

// Profile returns the engine's system profile.
func (e *Engine) Profile() Profile { return e.prof }

// Workbook returns the engine's current workbook.
func (e *Engine) Workbook() *sheet.Workbook { return e.wb }

// SetNow overrides the volatile-function clock; tests use it for
// determinism.
func (e *Engine) SetNow(now func() time.Time) { e.nowFn = now }

// Meter exposes the engine's cumulative operation meter (read-only use).
func (e *Engine) Meter() *costmodel.Meter { return &e.meter }

// sheetState is everything the engine derives from one sheet. The
// "Derived-state lifecycle" table in docs/ANALYSIS.md lists each artifact's
// validity key, the events that invalidate it, and its builder.
type sheetState struct {
	// g is the per-cell dependency graph, nil once a row move released it
	// under RegionGraph (graph() rebuilds it on demand).
	g *graph.Graph
	// version counts formula inserts, pastes, removals and row moves.
	version int64
	// opt is the optimization state of §6; nil on profiles without
	// optimizations, and on a loaded sheet until buildOptState runs.
	opt *optState
	// ver is the version the formula-set artifacts below were derived at;
	// current drops them once version moves past it.
	ver     int64
	chain   *chainCache
	region  *regions.Graph
	pcert   *interfere.Cert
	vcert   *valueCertEntry
	readers *readerIndex
	// changed logs the cells the current operation changed, box bounds
	// them, and all says any cell may have: the cross-sheet settle's input,
	// written only while the operation tracks (xsheet.go).
	changed []cell.Addr
	box     cell.Range
	all     bool
}

// current drops every formula-set artifact derived at an older version —
// the one validity check for the calc chain, the region inference, the
// parallel and value certificates, and the reader index — and returns ss.
func (ss *sheetState) current() *sheetState {
	if ss.version != ss.ver {
		ss.ver = ss.version
		ss.chain, ss.region, ss.pcert, ss.vcert, ss.readers = nil, nil, nil, nil, nil
	}
	return ss
}

// state returns the sheet's derived state, creating it on first use. A
// sheet first met after loading (a pivot's output) gets its optimization
// state here; loaded sheets get theirs from buildOptState once evaluated.
func (e *Engine) state(s *sheet.Sheet) *sheetState {
	ss := e.sheets[s]
	if ss == nil {
		ss = &sheetState{g: graph.New()}
		if e.prof.Opt.Any() {
			ss.opt = newOptState()
		}
		e.sheets[s] = ss
	}
	return ss
}

// graph returns the sheet's per-cell dependency graph, building it from
// the sheet's formulas, charged to meter, when a row move released it.
func (e *Engine) graph(s *sheet.Sheet, meter *costmodel.Meter) *graph.Graph {
	ss := e.state(s)
	if ss.g == nil {
		ss.g = e.buildGraph(s, meter)
	}
	return ss.g
}

// resetDerived drops every derived structure — per-sheet state, the plan
// and its cache — when a new workbook replaces the current one. The
// workbook's sheets start without optimization state: they are evaluated
// first, then buildOptState attaches it.
func (e *Engine) resetDerived() {
	e.sheets = make(map[*sheet.Sheet]*sheetState, e.wb.Len())
	for _, s := range e.wb.Sheets() {
		e.sheets[s] = &sheetState{g: graph.New()}
	}
	e.planEntry = nil
	e.planCache = nil
	e.track = false
	e.seen = append(e.seen[:0], e.wb.Sheets()...)
}

// Install adopts a prepared workbook without metering (experiment setup,
// not a benchmarked operation): formulas are registered in the dependency
// graphs and evaluated so the sheet starts consistent, and optimization
// structures are built for optimized profiles.
func (e *Engine) Install(wb *sheet.Workbook) error {
	sp := obs.StartRoot("engine.install").Str("profile", e.prof.Name)
	defer sp.End()
	e.wb = wb
	e.resetDerived()
	for _, s := range wb.Sheets() {
		g := e.state(s).g
		gsp := obs.Start("install.graph")
		s.EachFormula(func(a cell.Addr, fc sheet.Formula) bool {
			dr, dc := fc.DeltaAt(a)
			g.SetFormula(a, fc.Code.PrecedentRanges(dr, dc))
			return true
		})
		gsp.Int("formulas", int64(g.FormulaCount())).End()
		e.evalAll(s, &e.meter, 1, false, nil)
		if e.prof.Opt.Any() {
			osp := obs.Start("install.opt_state")
			e.buildOptState(s)
			osp.End()
		}
		if e.prof.Opt.RegionGraph {
			// Parallel-safety pre-flight: issue the certificate now so the
			// first staged recalculation finds it installed; edits that bump
			// the formula-set version invalidate it exactly like the region chain.
			csp := obs.Start("install.parallel_cert")
			e.parallelCertFor(s, &e.meter)
			csp.End()
		}
	}
	// Sheets were evaluated in tab order; cross-sheet references into
	// later sheets need the fixpoint pass to settle.
	e.refreshExternals(&e.meter, "install")
	if e.prof.Opt.ValueCerts {
		// Value-certificate pre-flight: issue after the external fixpoint,
		// when every cached value is settled, so the per-constant issuance
		// guard compares against the state calc passes will actually see.
		for _, s := range wb.Sheets() {
			e.issueValueCert(s)
		}
	}
	// Setup work is not part of any experiment: clear the meters.
	e.meter.Reset()
	e.recalcMeter.Reset()
	for _, ss := range e.sheets {
		ss.g.ResetOps()
	}
	return nil
}

// opTimer measures one operation on both clocks. When tracing is enabled it
// also carries the operation's root span ("op.<kind>"), under which every
// engine-internal span of the operation nests ambiently.
type opTimer struct {
	e          *Engine
	kind       OpKind
	wallStart  time.Time
	workSnap   costmodel.Meter
	recalcSnap costmodel.Meter
	netSnap    time.Duration
	span       obs.Span
}

func (e *Engine) begin(kind OpKind) opTimer {
	e.opSeq++
	// Writes are logged for the cross-sheet settle only where it reads
	// them, and only when there is a reader to settle.
	e.track = e.prof.Opt.RegionGraph && hasExternals(e.wb)
	return opTimer{
		e:          e,
		kind:       kind,
		wallStart:  time.Now(),
		workSnap:   e.meter.Snapshot(),
		recalcSnap: e.recalcMeter.Snapshot(),
		netSnap:    e.netTime,
		span:       obs.StartRoot("op."+kind.String()).Str("profile", e.prof.Name),
	}
}

// finish computes the operation's Result: fixed cost + multiplied variable
// work + unmultiplied recalculation work + simulated network time.
func (t opTimer) finish() Result {
	e := t.e
	work := e.meter.Sub(t.workSnap)
	recalc := e.recalcMeter.Sub(t.recalcSnap)
	sim := e.prof.OpTime(t.kind, &work) +
		e.prof.Coeff.Time(&recalc) +
		(e.netTime - t.netSnap)
	total := work
	for m := costmodel.Metric(0); int(m) < costmodel.NumMetrics; m++ {
		total.Add(m, recalc.Count(m))
	}
	e.met.opSimMS.ObserveDuration(sim)
	e.met.opLatency[t.kind].Observe(int64(sim))
	if t.span.Active() {
		// The simulated latency rides along as an attribute so SLO verdicts
		// can be judged on the modeled system's clock, deterministically.
		t.span.Int(obs.SimAttr, int64(sim)).
			Int("work_cells", total.Count(costmodel.CellTouch)).
			End()
	}
	return Result{
		Wall: time.Since(t.wallStart),
		Sim:  sim,
		Work: total,
		Op:   t.kind,
	}
}

// netCall routes one API round trip through the simulated network. Quota
// exhaustion is sticky, matching how Apps Script rejects further calls for
// the day.
func (e *Engine) netCall(payloadBytes int64) error {
	if e.net == nil {
		return nil
	}
	d, err := e.net.Call(payloadBytes)
	e.netTime += d
	e.meter.Add(costmodel.NetRTT, 1)
	e.meter.Add(costmodel.NetByte, payloadBytes)
	if err != nil {
		e.netErr = err
		return err
	}
	return e.netErr
}

// evalSource adapts a sheet to formula.Source, implementing the per-profile
// read-through behavior of §4.3.3: Calc and Sheets re-evaluate a formula
// cell whenever it is referenced; Excel pays a cheap staleness check.
type evalSource struct {
	e     *Engine
	s     *sheet.Sheet
	meter *costmodel.Meter
	// cached turns read-through off: in a calc pass values are fresh by
	// ordering; in a read-through re-evaluation it caps the depth at 1.
	cached bool
}

// Value implements formula.Source.
func (src evalSource) Value(a cell.Addr) cell.Value {
	if src.cached {
		return src.s.Value(a)
	}
	fc, isFormula := src.s.Formula(a)
	if !isFormula {
		return src.s.Value(a)
	}
	switch {
	case src.e.prof.Recalc.ReevalOnRead:
		dr, dc := fc.DeltaAt(a)
		env := src.e.env(src.s, src.meter, true)
		env.DR, env.DC = dr, dc
		v := formula.Eval(fc.Code, env)
		src.e.setCached(src.s, a, v)
		return v
	case src.e.prof.Recalc.StaleCheckOnRead:
		src.meter.Add(costmodel.StaleCheck, 1)
	}
	return src.s.Value(a)
}

// env builds a formula evaluation environment over a sheet; cached turns
// read-through off (evalSource).
func (e *Engine) env(s *sheet.Sheet, meter *costmodel.Meter, cached bool) *formula.Env {
	var src formula.Source = evalSource{e: e, s: s, meter: meter, cached: cached}
	if st := e.state(s).opt; st != nil && e.prof.Lookup.Indexed {
		src = indexedSrc{Source: src, e: e, s: s, st: st, meter: meter}
	}
	var sortedAsc func(formula.Source, int, int, int) bool
	if e.prof.Opt.ValueCerts && !e.prof.Recalc.ReevalOnRead {
		// Certified-ascending lookups read cached values, which under
		// read-through re-evaluation could change while being read; the
		// optimized profile never re-evaluates on read, so the rescan and
		// the linear scan observe identical state.
		sortedAsc = func(lookupSrc formula.Source, col, r0, r1 int) bool {
			return e.certSortedAsc(lookupSrc, meter, col, r0, r1)
		}
	}
	return &formula.Env{
		Src:    src,
		Meter:  meter,
		Now:    e.nowFn,
		Lookup: e.prof.Lookup,
		// Cross-sheet references read the foreign sheet's cached values
		// directly — no read-through re-evaluation — so a sheet!ref sees the
		// same state in every profile; settle keeps those caches current
		// after each value-mutating operation.
		Ext: func(name string) formula.Source {
			if fs := e.wb.Sheet(name); fs != nil {
				return fs
			}
			return nil
		},
		SortedAsc: sortedAsc,
	}
}

// refreshExternals brings every cross-sheet formula cell up to date, round
// by round, then propagates any changes to sheet-local dependents: the
// naive profiles' post-operation refresh, Install's and Open's, and the
// settle's fallback (why names the case). Cross-sheet precedents are
// invisible to the per-sheet dependency graphs (the footprint analyzer
// marks them unanalyzable) — this is a simplified form of the
// whole-workbook recalculation real systems run across sheet boundaries.
// Workbooks without cross-sheet formulae return immediately, keeping the
// meters of every existing single-sheet operation untouched.
func (e *Engine) refreshExternals(meter *costmodel.Meter, why string) {
	if !hasExternals(e.wb) {
		return
	}
	sp := obs.Start("engine.refresh_externals").Str("source", "rounds").Str("reason", why)
	defer sp.End()
	// A change propagates at most one sheet per round along an acyclic
	// cross-sheet chain, so Len()+1 rounds reach a fixpoint; cyclic
	// cross-sheet chains simply stop at the bound (deterministically, since
	// sheet order and per-sheet address order are fixed).
	rounds := e.wb.Len() + 1
	for i := 0; i < rounds; i++ {
		changedAny := false
		for _, s := range e.wb.Sheets() {
			ext := s.ExternalCells()
			if len(ext) == 0 {
				continue
			}
			sortAddrs(ext)
			// Cells on a reference cycle stay pinned to #CYCLE! (the
			// calc-chain pass wrote that); re-evaluating them here would
			// overwrite the error with a history-dependent number.
			if _, cyclic := e.fullChain(s, meter); len(cyclic) > 0 {
				onCycle := make(map[cell.Addr]bool, len(cyclic))
				for _, a := range cyclic {
					onCycle[a] = true
				}
				ext = slices.DeleteFunc(ext, func(a cell.Addr) bool { return onCycle[a] })
			}
			var changed []cell.Addr
			e.calc(s, ext, nil, meter, false, &changed)
			if len(changed) > 0 {
				changedAny = true
				e.recalcDirty(s, changed, meter, false)
			}
		}
		if !changedAny {
			return
		}
	}
}

// sortAddrs orders addresses row-major for deterministic iteration.
func sortAddrs(addrs []cell.Addr) {
	sort.Slice(addrs, func(i, j int) bool {
		if addrs[i].Row != addrs[j].Row {
			return addrs[i].Row < addrs[j].Row
		}
		return addrs[i].Col < addrs[j].Col
	})
}

// chainCache memoizes a sheet's full calculation order for the current
// graph generation — real engines reuse the calculation sequence until the
// formula set changes [6], so repeated full recalculations (e.g. after a
// worksheet insertion) pay evaluation cost only.
type chainCache struct {
	order  []cell.Addr
	cyclic []cell.Addr
}

// fullChain returns the sheet's calculation order, re-sequencing only when
// the formula set changed since the cached order was built.
func (e *Engine) fullChain(s *sheet.Sheet, meter *costmodel.Meter) (order, cyclic []cell.Addr) {
	sp := obs.Start("chain.sequence")
	ss := e.state(s).current()
	if c := ss.chain; c != nil {
		meter.Add(costmodel.DepOp, 1) // cache validity check
		e.met.chainCacheHits.Add(1)
		sp.Str("source", "cache").Int("cells", int64(len(c.order))).End()
		return c.order, c.cyclic
	}
	// Plan-drift: cache misses pay the sequencing work the plan's recalc
	// choice priced (region inference + emission, or per-cell Kahn); hits
	// cost one staleness check the plan never modeled, so only misses are
	// comparable observations.
	driftRec := false
	var driftPred, driftSnap costmodel.Meter
	if e.driftOn() {
		if sheetPlan := e.plannedSheet(s); sheetPlan != nil {
			if w, b, ok := sheetPlan.RecalcWork(); ok {
				driftPred, driftRec = w, true
				// Inference is paid only when the region cache is stale —
				// mirror regionsFor's cache acceptance.
				if ss.region == nil {
					addWork(&driftPred, b)
				}
				driftSnap = meter.Snapshot()
			}
		}
	}
	// Region-level sequencing: O(#regions log #regions) ordering plus one
	// op per emitted cell, instead of per-cell Kahn with its sort-like
	// comparison cost. Valid only while the regions order cleanly (and, under
	// the planned profile, while the cost plan prefers it); the fallback
	// below is authoritative for everything else (cycles included).
	if e.plannedRegionChain(s) && e.prof.Opt.RegionGraph {
		if rg := e.regionsFor(s, meter); rg.OK() {
			rg.ResetOps()
			order = rg.Order()
			meter.Add(costmodel.DepOp, rg.Ops())
			rg.ResetOps()
			ss.chain = &chainCache{order: order}
			if driftRec {
				e.driftRecord(gateRecalcSeq, driftPred, meter.Sub(driftSnap))
			}
			sp.Str("source", "region").Int("cells", int64(len(order))).End()
			return order, nil
		}
	}
	order, cyclic = e.sequenceCells(s, meter)
	if driftRec {
		e.driftRecord(gateRecalcSeq, driftPred, meter.Sub(driftSnap))
	}
	sp.Str("source", "cell").Int("cells", int64(len(order))).End()
	return order, cyclic
}

// setCached stores a formula's freshly evaluated result and reports whether
// the value changed, by exact (case-sensitive) equality: Value.Equal folds
// text case, which would mask real changes to string results. A change is
// then routed through the optimized profile's structure maintenance:
// formula results live in indexed columns like any other cell, and a bare
// store would leave the indexes, the prefix sums and the aggregates
// materialized over the column serving the stale result.
func (e *Engine) setCached(s *sheet.Sheet, a cell.Addr, v cell.Value) bool {
	old, changed := store(s, a, v)
	if changed {
		e.noteResult(s, a, old, v)
	}
	return changed
}

// noteResult is setCached's bookkeeping for a changed result: the
// optimization structures' maintenance and the cross-sheet change log.
func (e *Engine) noteResult(s *sheet.Sheet, a cell.Addr, old, v cell.Value) {
	ss := e.state(s)
	if ss.opt != nil {
		ss.opt.noteCellChange(e, a, old, v)
	}
	e.noteChange(ss, a)
}

// store is setCached's raw half, which stage workers call concurrently on
// disjoint cells: it writes v and returns the value it replaced and whether
// that differs.
func store(s *sheet.Sheet, a cell.Addr, v cell.Value) (old cell.Value, changed bool) {
	old = s.Value(a)
	s.SetCachedValue(a, v)
	return old, old != v
}

// calc is the engine's one calc pass. It evaluates the formula cells of
// order in the given order, then writes #CYCLE! into every cyclic cell;
// every result goes through setCached, so the derived state follows each
// changed value. A cell the value certificate proves constant is skipped
// while its cached value still holds the constant. With deltas set, a
// materialized aggregate is not evaluated: the running state noteCellChange
// keeps is written instead (SetCell's incremental path). When changed is
// non-nil, the cells of order whose value changed are appended to it.
func (e *Engine) calc(s *sheet.Sheet, order, cyclic []cell.Addr, meter *costmodel.Meter, deltas bool, changed *[]cell.Addr) {
	env := e.env(s, meter, true)
	var aggs map[cell.Addr]*aggMat // nil map: nothing is served from deltas
	if deltas {
		aggs = e.state(s).opt.aggs
	}
	// A write inside the pass can retire the value certificate, so it is
	// checked per cell; versions only advance, so the first miss ends the
	// checks.
	fold := e.prof.Opt.ValueCerts
	drift := e.driftOn()
	for _, a := range order {
		fc, ok := s.Formula(a)
		if !ok {
			continue
		}
		var v cell.Value
		if m := aggs[a]; m != nil {
			v = m.value()
		} else {
			// Certified-constant fold: the inference proved the formula
			// always evaluates to this exact value under the installed
			// formula set and inputs, both still version-current; the
			// cached-value guard is the per-use soundness check on top.
			// Skipping is charged like the staleness check it amounts to.
			if fold {
				if ce := e.validValueCert(s); ce == nil {
					fold = false
				} else if cv, isConst := ce.skips[a]; isConst && s.Value(a) == cv {
					meter.Add(costmodel.StaleCheck, 1)
					continue
				}
			}
			env.DR, env.DC = fc.DeltaAt(a)
			// Arm/close the drift window around the evaluation, before
			// setCached: the structure maintenance a changed result triggers
			// is maintenance work, not part of the lookup the gate priced.
			if drift {
				e.driftArm()
			}
			v = formula.Eval(fc.Code, env)
			if drift {
				e.driftClose()
			}
		}
		if e.setCached(s, a, v) && changed != nil {
			*changed = append(*changed, a)
		}
	}
	for _, a := range cyclic {
		e.setCached(s, a, cell.Errorf(cell.ErrCycle))
	}
	e.met.cellsEvaluated.Add(int64(len(order) + len(cyclic)))
}

// rowsMoved is the one entry point for row and column moves (sort,
// structural inserts and deletes). Row-keyed optimization structures are
// stale the moment cells move, so they are dropped before any
// recalculation consults them, and the formula-set version advances. The
// naive profiles re-register every formula from its new position; under
// RegionGraph the per-cell graph is released for graph() to rebuild if a
// consumer asks. A delete that removed the last formulas still counts.
func (e *Engine) rowsMoved(s *sheet.Sheet) {
	e.noteAll(s)
	ss := e.state(s)
	if ss.opt != nil {
		ss.opt.rebuildAfterReorder()
	}
	if s.FormulaCount() == 0 && ss.g != nil && ss.g.FormulaCount() == 0 {
		return
	}
	ss.version++
	ss.g = nil
	if !e.prof.Opt.RegionGraph {
		ss.g = e.buildGraph(s, &e.meter)
	}
}

// buildGraph registers every formula's precedents from its current
// position in a fresh graph — the calc-chain re-sequencing that follows
// structural changes.
func (e *Engine) buildGraph(s *sheet.Sheet, meter *costmodel.Meter) *graph.Graph {
	sp := obs.Start("engine.rebuild_graph")
	defer sp.End()
	e.met.graphBuilds.Add(1)
	g := graph.New()
	s.EachFormula(func(a cell.Addr, fc sheet.Formula) bool {
		dr, dc := fc.DeltaAt(a)
		g.SetFormula(a, fc.Code.PrecedentRanges(dr, dc))
		return true
	})
	meter.Add(costmodel.DepOp, g.Ops())
	g.ResetOps()
	return g
}

// resequence recomputes the calculation order without evaluating — the
// invalidation pass Excel performs on filters (§4.3.1). Unlike fullChain it
// always reorders (the visibility change invalidates the cached chain);
// the ordering phase is where the paper's mysterious superlinear filter
// trend comes from in this model.
func (e *Engine) resequence(s *sheet.Sheet, meter *costmodel.Meter) {
	sp := obs.Start("engine.resequence")
	defer sp.End()
	e.sequenceCells(s, meter)
}

// sequenceCells orders the sheet's formulas over the per-cell graph, charged
// to meter, and caches the order as the sheet's calc chain.
func (e *Engine) sequenceCells(s *sheet.Sheet, meter *costmodel.Meter) (order, cyclic []cell.Addr) {
	g := e.graph(s, meter)
	g.ResetOps()
	order, cyclic = g.AllFormulas()
	meter.Add(costmodel.DepOp, g.Ops())
	g.ResetOps()
	e.state(s).current().chain = &chainCache{order: order, cyclic: cyclic}
	return order, cyclic
}

// recalcDirty evaluates the transitive dependents of the changed cells in
// dependency order, charging the given meter; deltas serves materialized
// aggregates from their running state (see calc).
func (e *Engine) recalcDirty(s *sheet.Sheet, changed []cell.Addr, meter *costmodel.Meter, deltas bool) {
	sp := obs.Start("engine.recalc_dirty").Int("seeds", int64(len(changed)))
	if deltas {
		sp.Str("source", "deltas")
	}
	// Volatile formulae (NOW, RAND, ...) refresh on every calculation
	// pass in all three systems; seed them alongside the real changes so
	// their dependents recompute too.
	if vol := s.VolatileCells(); len(vol) > 0 {
		e.calc(s, vol, nil, meter, false, nil)
		changed = append(append([]cell.Addr(nil), changed...), vol...)
	}
	order, cyclic := e.dirtyOrder(s, changed, meter)
	e.calc(s, order, cyclic, meter, deltas, nil)
	sp.Int("evaluated", int64(len(order)+len(cyclic))).End()
}

// classifyFormula maps a compiled formula to the operation kind used for
// cost accounting: lookups vs aggregates (everything else prices as an
// aggregate-style scan).
func classifyFormula(c *formula.Compiled) OpKind {
	if call, ok := c.Root.(formula.CallNode); ok {
		switch call.Name {
		case "VLOOKUP", "HLOOKUP", "MATCH", "INDEX", "SWITCH", "CHOOSE":
			return OpLookup
		}
	}
	return OpAggregate
}

// errSheet reports a nil sheet argument.
func errSheet(op string) error { return fmt.Errorf("engine: %s: nil sheet", op) }
