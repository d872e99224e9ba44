package engine

import (
	"repro/internal/sheet"
)

// RecalculateParallel recomputes every formula using the given number of
// workers — the multi-threaded recalculation §3.3 notes Excel 2016 supports
// but ships disabled ("the default setting is to evaluate a formula on the
// main thread"), which is why the benchmark proper never uses it.
//
// Scheduling is certificate-driven: when the sheet's parallel-safety
// certificate (internal/interfere) stages cleanly and the region graph can
// sequence it, regions within one certified stage evaluate concurrently via
// the runtime-checked scheduler. Sheets that cannot be certified — volatile
// or computed references, region cycles, per-cell cycles — recalculate
// serially through the calc chain, which keeps the derived state (indexes,
// prefix sums, materialized aggregates) in step with every changed result.
// The certified path is version-keyed to the formula set, so no edit
// (including a region SplitAt) can ever replay a stale schedule.
//
// Results are identical to Recalculate; only wall time changes. The
// simulated clock is unaffected by parallelism (simulated time models the
// single-threaded systems under test), so the returned Result's Sim equals
// the serial cost while Wall reflects the speedup.
func (e *Engine) RecalculateParallel(s *sheet.Sheet, workers int) (Result, error) {
	if s == nil {
		return Result{}, errSheet("RecalculateParallel")
	}
	if workers < 1 {
		workers = 1
	}
	t := e.begin(OpSetCell)
	order, cyclic := e.fullChain(s, &e.meter)
	if cert, rg := e.parallelCertFor(s, &e.meter); len(cyclic) == 0 && cert.OK && rg.OK() {
		if err := e.runStages(s, cert, rg, workers); err != nil {
			return Result{}, err
		}
		return t.finish(), nil
	}
	e.calc(s, order, cyclic, &e.meter, false, nil)
	return t.finish(), nil
}
