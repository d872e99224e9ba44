package engine

import (
	"repro/internal/costmodel"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sheet"
)

// This file is the plan-drift monitor's engine side: at each planner gate
// the engine consults, it captures the plan's predicted cost for the gated
// work, measures the meter delta the work actually charged, and records
// both into obs.DefaultDrift (scalarized to simulated nanoseconds under the
// profile's own coefficients, so both sides are in the same currency). A
// gate whose aggregate measured/predicted ratio leaves [0.5, 2.0] is
// miscalibrated — detected at run time, not at the next offline
// calibration pass.
//
// Predictions are build-state aware: the plan amortizes one-time structure
// builds over a site's uses, but any single observation either pays the
// build (structure cold/stale at consult time) or doesn't. The engine
// checks the backing structure's freshness at the consult and adds the
// plan's build meter to the prediction only when the work will actually
// pay it.

// Gate labels, one per planner gate.
const (
	gateLookupBinary = "lookup-binary"
	gateLookupHash   = "lookup-hash"
	gateCountIf      = "countif-index"
	gatePrefixAgg    = "prefix-agg"
	gateRecalcSeq    = "recalc-seq"
	gateDeltaMaint   = "delta-maint"
)

// driftPending is one armed lookup observation: the consult happens inside
// formula evaluation (certSortedAsc / IndexWorthwhile fire mid-Eval), so
// the site that called Eval closes the window when Eval returns. A later
// consult in the same evaluation overwrites the earlier one — the last
// gate consulted is the one whose strategy served the lookup.
type driftPending struct {
	active bool
	gate   string
	pred   costmodel.Meter
	snap   costmodel.Meter
	meter  *costmodel.Meter
}

// driftOn reports whether gate observations should be recorded: the obs
// layer is live and the profile actually plans (unplanned profiles have no
// predictions to compare).
func (e *Engine) driftOn() bool {
	return obs.Enabled() && e.prof.Opt.CostPlanner
}

// driftArm clears any pending observation before an instrumented Eval.
// Consults from uninstrumented evaluation sites (the external-refresh
// fixpoint, volatile re-seeding) leave a stale pending behind; arming
// drops it so it can never close against the wrong window.
func (e *Engine) driftArm() { e.driftPend = driftPending{} }

// driftClose records the pending lookup observation, measuring from the
// consult to now — the candidate work the plan priced (probe or scan),
// excluding the FormulaEval charge, which Eval charges on entry before any
// gate is consulted.
func (e *Engine) driftClose() {
	p := e.driftPend
	e.driftPend = driftPending{}
	if !p.active || p.meter == nil {
		return
	}
	e.driftRecord(p.gate, p.pred, p.meter.Sub(p.snap))
}

// driftRecord scalarizes one predicted/measured pair and records it.
func (e *Engine) driftRecord(gate string, pred, meas costmodel.Meter) {
	predNS := int64(e.prof.Coeff.Time(&pred))
	measNS := int64(e.prof.Coeff.Time(&meas))
	obs.DefaultDrift.Observe(e.prof.Name, gate, predNS, measNS)
	if predNS > 0 {
		e.met.planDrift.Observe(float64(measNS) / float64(predNS))
	}
}

// driftNoteLookup arms a pending observation at a lookup gate consult.
// fallbackGate labels the observation when the plan chose the scan — the
// consulting gate vetoed, so the measured work is the linear scan the plan
// priced for this site.
func (e *Engine) driftNoteLookup(s *sheet.Sheet, st *optState, meter *costmodel.Meter, col, r0, r1 int, fallbackGate string) {
	if st == nil || meter == nil || !e.driftOn() {
		return
	}
	sp := e.plannedSheet(s)
	if sp == nil {
		return
	}
	serve, build, strat, ok := sp.LookupServeWork(col, r0, r1, true)
	if !ok {
		return
	}
	pred := serve
	gate := fallbackGate
	switch strat {
	case plan.BinarySearch:
		gate = gateLookupBinary
		if _, hit := st.sortedCached(col, r0, r1); !hit {
			addWork(&pred, build)
		}
	case plan.HashProbe:
		gate = gateLookupHash
		if _, built := st.hash[col]; !built {
			addWork(&pred, build)
		}
	}
	e.driftPend = driftPending{active: true, gate: gate, pred: pred, snap: meter.Snapshot(), meter: meter}
}

// driftAggBegin starts a prefix-aggregate observation: prediction plus a
// meter snapshot, taken before prefixFor so a lazy fill lands inside the
// measured window exactly when the prediction includes the build.
func (e *Engine) driftAggBegin(s *sheet.Sheet, st *optState, col int) (bool, costmodel.Meter, costmodel.Meter) {
	if !e.driftOn() {
		return false, costmodel.Meter{}, costmodel.Meter{}
	}
	sp := e.plannedSheet(s)
	if sp == nil {
		return false, costmodel.Meter{}, costmodel.Meter{}
	}
	serve, build, ok := sp.AggServeWork(col)
	if !ok {
		return false, costmodel.Meter{}, costmodel.Meter{}
	}
	pred := serve
	if p, built := st.prefix[col]; !built || p.Dirty() {
		addWork(&pred, build)
	}
	return true, pred, e.meter.Snapshot()
}

// driftCountIfBegin starts a COUNTIF observation. equality selects which
// backing structure's freshness decides the build charge (hash for
// equality criteria, B-tree for relational ones).
func (e *Engine) driftCountIfBegin(s *sheet.Sheet, st *optState, col int, equality bool) (bool, costmodel.Meter, costmodel.Meter) {
	if !e.driftOn() {
		return false, costmodel.Meter{}, costmodel.Meter{}
	}
	sp := e.plannedSheet(s)
	if sp == nil {
		return false, costmodel.Meter{}, costmodel.Meter{}
	}
	serve, build, ok := sp.CountIfServeWork(col)
	if !ok {
		return false, costmodel.Meter{}, costmodel.Meter{}
	}
	pred := serve
	var built bool
	if equality {
		_, built = st.hash[col]
	} else {
		_, built = st.btree[col]
	}
	if !built {
		addWork(&pred, build)
	}
	return true, pred, e.meter.Snapshot()
}

// driftMaintBegin starts a delta-maintenance observation for one edit: the
// per-column prediction from the plan's maintenance loads, measured across
// noteCellChange (index maintenance plus the materialized-aggregate
// deltas). It runs before the edit lands, so it reads the current plan
// entry without validating it: validation would pin the pre-edit plan for
// the whole operation and defer the edit's own rebuild. No entry yet means
// no observation.
func (e *Engine) driftMaintBegin(s *sheet.Sheet, col int) (bool, costmodel.Meter, costmodel.Meter) {
	if !e.driftOn() || !e.prof.Opt.IncrementalAggregates || e.planEntry == nil {
		return false, costmodel.Meter{}, costmodel.Meter{}
	}
	sp := e.planEntry.plan.SheetPlan(s.Name)
	if sp == nil {
		return false, costmodel.Meter{}, costmodel.Meter{}
	}
	pred, ok := sp.MaintWork(col)
	if !ok {
		return false, costmodel.Meter{}, costmodel.Meter{}
	}
	return true, pred, e.meter.Snapshot()
}

// addWork accumulates src into dst metric by metric.
func addWork(dst *costmodel.Meter, src costmodel.Meter) {
	for i := costmodel.Metric(0); int(i) < costmodel.NumMetrics; i++ {
		if c := src.Count(i); c > 0 {
			dst.Add(i, c)
		}
	}
}
