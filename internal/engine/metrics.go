package engine

import (
	"repro/internal/obs"
	"repro/internal/plan"
)

// engineMetrics holds the engine's per-profile metric handles, registered in
// obs.Default under the profile name as label so BCT/OOT runs comparing
// systems side by side export separable series. Handles are registered once
// at engine construction; every update is gated (and dropped) inside the obs
// layer while tracing is off.
type engineMetrics struct {
	// cellsEvaluated counts the formula cells every calc pass (calc)
	// visits: full and dirty recalculation, volatile re-seeding, the
	// external refresh, sort re-evaluation and pasted formulas — the recalc
	// attribution denominator.
	cellsEvaluated *obs.Counter
	// opSimMS is the simulated latency distribution of metered operations,
	// with the paper's 500 ms interactivity bound as a bucket boundary.
	opSimMS *obs.Histogram
	// fastEvalHits counts formula inserts answered by an optimization fast
	// path (prefix sums, indexes, fingerprint cache) without evaluation.
	fastEvalHits *obs.Counter
	// regionsSplit counts in-place fill-region splits (formula overwrite on
	// an otherwise-unchanged sheet); regionReinfer counts full lazy
	// re-inference passes of the region chain.
	regionsSplit  *obs.Counter
	regionReinfer *obs.Counter
	// graphBuilds counts per-cell dependency graph builds (Open, and after
	// row moves: eager on the naive profiles, on demand under RegionGraph).
	graphBuilds *obs.Counter
	// chainCacheHits counts full-recalc sequencing requests served by the
	// memoized calculation chain.
	chainCacheHits *obs.Counter
	// planBuilds counts cost-based plan derivations (internal/plan); the
	// once-per-operation rebuild guard keeps this near the operation count.
	planBuilds *obs.Counter
	// planReuse counts, per plan build and sheet, whether each cached plan
	// input was reused ("hit") or derived ("build"): the site inventory,
	// the recalc facts, and the column statistics (counted per column).
	// Indexed [part][event], labeled "<profile>/<part>/<event>".
	planReuse [3][2]*obs.Counter
	// opLatency holds one log-bucketed latency histogram per operation kind,
	// recording the simulated nanoseconds of every finished operation —
	// the percentile-SLO substrate, labeled "<profile>/<kind>". Registration
	// covers all kinds; snapshots export only instruments that observed
	// something.
	opLatency [numOpKinds]*obs.Latency
	// planDrift buckets per-observation measured/predicted ratios from the
	// drift monitor's gates against obs.DriftRatioBounds (the bounds are
	// dimensionless ratios, not milliseconds).
	planDrift *obs.Histogram
}

func newEngineMetrics(label string) engineMetrics {
	m := engineMetrics{
		cellsEvaluated: obs.Default.Counter("engine_cells_evaluated", label),
		opSimMS:        obs.Default.Histogram("engine_op_sim_ms", label, nil),
		fastEvalHits:   obs.Default.Counter("engine_fast_eval_hits", label),
		regionsSplit:   obs.Default.Counter("engine_regions_split", label),
		regionReinfer:  obs.Default.Counter("engine_region_reinfer", label),
		graphBuilds:    obs.Default.Counter("engine_graph_builds", label),
		chainCacheHits: obs.Default.Counter("engine_chain_cache_hits", label),
		planBuilds:     obs.Default.Counter("engine_plan_builds", label),
		planDrift:      obs.Default.Histogram("engine_plan_drift", label, obs.DriftRatioBounds),
	}
	for k := OpKind(0); k < numOpKinds; k++ {
		m.opLatency[k] = obs.Default.Latency("engine_op_latency", label+"/"+k.String())
	}
	for i, part := range [...]string{"sites", "recalc", "stats"} {
		for j, ev := range [...]string{"hit", "build"} {
			m.planReuse[i][j] = obs.Default.Counter("engine_plan_reuse", label+"/"+part+"/"+ev)
		}
	}
	return m
}

// notePlanReuse records one plan build's reuse counts.
func (m *engineMetrics) notePlanReuse(d plan.Derivation) {
	counts := [3][2]int{
		{d.SitesReused, d.SitesBuilt},
		{d.RecalcReused, d.RecalcBuilt},
		{d.StatsReused, d.StatsCollected},
	}
	for i, byEvent := range counts {
		for j, n := range byEvent {
			m.planReuse[i][j].Add(int64(n))
		}
	}
}
