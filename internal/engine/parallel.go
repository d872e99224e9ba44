package engine

import (
	"sync"

	"repro/internal/cell"
	"repro/internal/costmodel"
	"repro/internal/formula"
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
// or computed references, region cycles, per-cell cycles — fall back to
// conservative per-cell dependency leveling. Both paths are version-keyed
// to the formula set, so no edit (including a region SplitAt) can ever
// replay a stale schedule.
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
	e.recalcLevels(s, order, cyclic, workers)
	return t.finish(), nil
}

// recalcLevels is the uncertified fallback: formulae are grouped into
// per-cell dependency levels; within a level all formulae are independent
// and evaluate concurrently, with per-worker meters merged at the end.
func (e *Engine) recalcLevels(s *sheet.Sheet, order, cyclic []cell.Addr, workers int) {
	// Assign dependency levels: a formula evaluates one level after the
	// deepest formula it reads. Small ranges resolve exactly; a formula
	// with a large-range precedent is conservatively placed after
	// everything seen so far (correct, loses some parallelism — the
	// benchmark's huge aggregates depend on whole columns anyway).
	level := make(map[cell.Addr]int, len(order))
	g := e.graph(s)
	maxLevel := 0
	seenMax := 0
	for _, at := range order {
		lv := 0
		for _, r := range g.Precedents(at) {
			if r.Cells() > 64 {
				if seenMax > lv-1 {
					lv = seenMax + 1
				}
				continue
			}
			for row := r.Start.Row; row <= r.End.Row; row++ {
				for col := r.Start.Col; col <= r.End.Col; col++ {
					if plv, ok := level[cell.Addr{Row: row, Col: col}]; ok && plv+1 > lv {
						lv = plv + 1
					}
				}
			}
		}
		level[at] = lv
		if lv > maxLevel {
			maxLevel = lv
		}
		if lv > seenMax {
			seenMax = lv
		}
	}
	buckets := make([][]cell.Addr, maxLevel+1)
	for _, at := range order {
		lv := level[at]
		buckets[lv] = append(buckets[lv], at)
	}

	meters := make([]costmodel.Meter, workers)
	for _, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		var wg sync.WaitGroup
		chunk := (len(bucket) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * chunk
			if lo >= len(bucket) {
				break
			}
			hi := lo + chunk
			if hi > len(bucket) {
				hi = len(bucket)
			}
			wg.Add(1)
			go func(w int, part []cell.Addr) {
				defer wg.Done()
				env := &formula.Env{
					Src:    s, // raw sheet: calc-pass semantics, no read-through
					Meter:  &meters[w],
					Now:    e.nowFn,
					Lookup: e.prof.Lookup,
				}
				for _, at := range part {
					fc, ok := s.Formula(at)
					if !ok {
						continue
					}
					env.DR, env.DC = fc.DeltaAt(at)
					s.SetCachedValue(at, formula.Eval(fc.Code, env))
				}
			}(w, bucket[lo:hi])
		}
		wg.Wait()
	}
	for _, at := range cyclic {
		s.SetCachedValue(at, cell.Errorf(cell.ErrCycle))
	}
	for w := range meters {
		for m := costmodel.Metric(0); int(m) < costmodel.NumMetrics; m++ {
			if n := meters[w].Count(m); n != 0 {
				e.meter.Add(m, n)
			}
		}
	}
}
