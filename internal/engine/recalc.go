package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cell"
	"repro/internal/costmodel"
	"repro/internal/formula"
	"repro/internal/interfere"
	"repro/internal/obs"
	"repro/internal/regions"
	"repro/internal/sheet"
)

// Recalculate forces a full recomputation of a sheet's formulae (the F9 key
// in Excel), charged as a SetCell-class operation. It is the serial
// reference the other entry points below are tested against.
func (e *Engine) Recalculate(s *sheet.Sheet) (Result, error) {
	if s == nil {
		return Result{}, errSheet("Recalculate")
	}
	return e.recalculate(s, 1, false, nil)
}

// RecalculateParallel recomputes every formula using the given number of
// workers — the multi-threaded recalculation §3.3 notes Excel 2016 supports
// but ships disabled ("the default setting is to evaluate a formula on the
// main thread"), which is why the benchmark proper never uses it.
//
// Scheduling is certificate-driven: with more than one worker, when the
// sheet's parallel-safety certificate (internal/interfere) stages cleanly
// and the region graph can sequence it, regions within one certified stage
// evaluate concurrently via the runtime-checked scheduler (runStages).
// Sheets that cannot be certified — volatile or computed references, region
// cycles, per-cell cycles — recalculate serially through the calc chain.
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
	return e.recalculate(s, workers, false, nil)
}

// RecalculateStaged is the certificate-checked scheduler shim: it
// recomputes every formula stage-by-stage on one worker, after asserting
// that no dependency edge crosses stages backward. It errors when the sheet
// is not certified (unstageable) and on any runtime certificate violation;
// it never falls back, which is what makes it a soundness instrument rather
// than a scheduler.
func (e *Engine) RecalculateStaged(s *sheet.Sheet) (Result, error) {
	if s == nil {
		return Result{}, errSheet("RecalculateStaged")
	}
	return e.recalculate(s, 1, true, nil)
}

// AsyncRecalc is a background recalculation in progress — the §6 "Additional
// Optimizations" direction drawn from the paper's citation [22] (Bendre et
// al., "Anti-freeze for large and complex spreadsheets: asynchronous formula
// computation"): instead of freezing until every formula is recomputed, the
// engine returns control immediately, prioritizes the visible window, and
// exposes progress so a UI can draw a progress bar over in-flight cells.
type AsyncRecalc struct {
	total     int64
	done      atomic.Int64
	windowHot atomic.Bool // window formulae finished
	err       error
	wg        sync.WaitGroup
}

// Progress reports completed and total formula evaluations so far: the
// window's chain prefix counts once WindowReady, the rest at the end.
func (a *AsyncRecalc) Progress() (done, total int64) {
	return a.done.Load(), a.total
}

// WindowReady reports whether every formula in the visible window has been
// recomputed — the moment a UI can unfreeze the viewport.
func (a *AsyncRecalc) WindowReady() bool { return a.windowHot.Load() }

// Wait blocks until the recalculation finishes and returns its error.
func (a *AsyncRecalc) Wait() error {
	a.wg.Wait()
	return a.err
}

// RecalculateAsync runs Recalculate's executor on one background
// goroutine, visible window first, and returns a progress handle. The
// goroutine owns the engine: nothing on it may be called until Wait
// returns. The work is metered like Recalculate's — asynchrony changes
// responsiveness, not total work (the paper's point about progress
// indicators).
func (e *Engine) RecalculateAsync(s *sheet.Sheet) (*AsyncRecalc, error) {
	if s == nil {
		return nil, errSheet("RecalculateAsync")
	}
	a := &AsyncRecalc{total: int64(s.FormulaCount())}
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				a.err = fmt.Errorf("engine: async recalc: %v", r)
			}
		}()
		_, a.err = e.recalculate(s, 1, false, a)
		a.done.Store(a.total)
	}()
	return a, nil
}

// recalculate wraps evalAll in one SetCell-class operation ending with
// the cross-sheet settle, so cross-sheet readers see the new values; the
// whole sheet counts as changed.
func (e *Engine) recalculate(s *sheet.Sheet, workers int, strict bool, bg *AsyncRecalc) (Result, error) {
	t := e.begin(OpSetCell)
	e.noteAll(s)
	err := e.evalAll(s, &e.meter, workers, strict, bg)
	if err == nil {
		e.settle(&e.meter)
	}
	return t.finish(), err
}

// evalAll is the full-recalculation executor: every formula in fullChain's
// order, charged to meter, #CYCLE! in cyclic cells. With workers > 1 or
// strict it runs the certificate's stages if the sheet is certified
// (unstageable); strict refuses where the others fall back to calc. With
// bg, calc first covers the chain's prefix through the window's last
// formula (a topological prefix holds all its precedents), then marks the
// window ready. Full recomputations inside other operations call it
// serially.
func (e *Engine) evalAll(s *sheet.Sheet, meter *costmodel.Meter, workers int, strict bool, bg *AsyncRecalc) error {
	sp := obs.Start("engine.eval_all")
	defer sp.End()
	order, cyclic := e.fullChain(s, meter)
	sp.Int("cells", int64(len(order)+len(cyclic)))
	if workers > 1 || strict {
		cert, rg := e.parallelCertFor(s, meter)
		why := unstageable(cert, rg, cyclic)
		switch {
		case why == nil:
			return e.runStages(s, cert, rg, workers, meter)
		case strict:
			return fmt.Errorf("engine: RecalculateStaged: %w", why)
		}
	}
	split := 0
	if bg != nil {
		split = len(order)
		for split > 0 && order[split-1].Row >= e.prof.WindowRows {
			split--
		}
		e.calc(s, order[:split], nil, meter, false, nil)
		bg.done.Store(int64(split))
		bg.windowHot.Store(true)
	}
	e.calc(s, order[split:], cyclic, meter, false, nil)
	return nil
}

// parallelCertFor returns the sheet's parallel-safety certificate with the
// region graph it stages, deriving the certificate when missing or stale
// (a formula-set artifact: lifecycle in docs/ANALYSIS.md). Staged
// scheduling is an engine extension available on every profile; the
// certificate reads the sheet's shared region inference. The analysis
// itself is never charged to the meter: like install-time optimization
// builds, a static certification pass is not work the modeled system
// performs.
func (e *Engine) parallelCertFor(s *sheet.Sheet, meter *costmodel.Meter) (*interfere.Cert, *regions.Graph) {
	ss := e.state(s).current()
	if ss.pcert != nil {
		return ss.pcert, ss.region
	}
	sp := obs.Start("interfere.analyze")
	defer sp.End()
	rg := e.regionsFor(s, meter)
	cert := interfere.Analyze(rg.Regions())
	cert.ResetOps()
	cert.Version = ss.version
	ss.pcert = cert
	sp.Int("regions", int64(cert.Regions)).
		Int("stages", int64(cert.StageCount())).
		Int("blockers", int64(len(cert.Blockers)))
	return cert, rg
}

// ParallelCert returns the sheet's current parallel-safety certificate,
// deriving it if needed. Returns nil for a nil sheet.
func (e *Engine) ParallelCert(s *sheet.Sheet) *interfere.Cert {
	if s == nil {
		return nil
	}
	cert, _ := e.parallelCertFor(s, &e.meter)
	return cert
}

// unstageable says why the certified schedule cannot run the sheet, or
// returns nil when it can.
func unstageable(cert *interfere.Cert, rg *regions.Graph, cyclic []cell.Addr) error {
	switch {
	case !cert.OK: // OK means no blockers
		b := cert.Blockers[0]
		return fmt.Errorf("sheet not certified (%d blockers, first: %s %s: %s)",
			len(cert.Blockers), b.Cell.A1(), b.Text, b.Reason)
	case !rg.OK():
		return errors.New("region graph not sequencable")
	case len(cyclic) > 0:
		return fmt.Errorf("%d cyclic cells under a certified schedule", len(cyclic))
	}
	return nil
}

// cellChange is a formula result a stage worker changed.
type cellChange struct {
	at     cell.Addr
	old, v cell.Value
}

// runStages executes the certified schedule: stages in certificate order,
// regions within a stage split across at most as many workers as the
// widest stage has regions, rows within a region in the region graph's
// required direction. Workers read the raw sheet and store each result at
// once (rows of a region read earlier rows); after each stage's barrier the
// scheduling goroutine runs the maintenance setCached would have. First the
// certificate is checked against the region graph's independently derived
// cross-region edges: both must agree that every dependency spans strictly
// increasing stages, or the certificate is unsound and nothing runs.
func (e *Engine) runStages(s *sheet.Sheet, cert *interfere.Cert, rg *regions.Graph, workers int, meter *costmodel.Meter) error {
	if bad := cert.CheckStages(rg.CrossEdges()); len(bad) > 0 {
		return fmt.Errorf("engine: parallel certificate violation: %d cross-stage edges not strictly staged (first: region %d -> %d)",
			len(bad), bad[0][0], bad[0][1])
	}
	widest := 0
	for _, stage := range cert.Stages {
		widest = max(widest, len(stage))
	}
	workers = min(workers, widest)
	meters := make([]costmodel.Meter, workers)
	parts := make([][]cell.Addr, workers)
	changes := make([][]cellChange, workers)
	for _, stage := range cert.Stages {
		// Work lists are materialized on the scheduler goroutine:
		// RegionCells charges the region graph's op counter, which is not
		// goroutine-safe.
		for w := range parts {
			parts[w], changes[w] = parts[w][:0], changes[w][:0]
		}
		for i, ri := range stage {
			parts[i%workers] = rg.RegionCells(parts[i%workers], ri)
		}
		var wg sync.WaitGroup
		for w, part := range parts {
			if len(part) == 0 {
				continue
			}
			e.met.cellsEvaluated.Add(int64(len(part)))
			wg.Add(1)
			go func() {
				defer wg.Done()
				env := &formula.Env{Src: s, Meter: &meters[w], Now: e.nowFn, Lookup: e.prof.Lookup}
				for _, at := range part {
					fc, ok := s.Formula(at)
					if !ok {
						continue
					}
					env.DR, env.DC = fc.DeltaAt(at)
					v := formula.Eval(fc.Code, env)
					if old, changed := store(s, at, v); changed {
						changes[w] = append(changes[w], cellChange{at, old, v})
					}
				}
			}()
		}
		wg.Wait()
		for _, cs := range changes {
			for _, c := range cs {
				e.noteResult(s, c.at, c.old, c.v)
			}
		}
	}
	for _, m := range meters {
		addWork(meter, m)
	}
	return nil
}
