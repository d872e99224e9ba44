package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cell"
	"repro/internal/costmodel"
	"repro/internal/formula"
	"repro/internal/sheet"
)

// AsyncRecalc is a background recalculation in progress — the §6 "Additional
// Optimizations" direction drawn from the paper's citation [22] (Bendre et
// al., "Anti-freeze for large and complex spreadsheets: asynchronous formula
// computation"): instead of freezing until every formula is recomputed, the
// engine returns control immediately, prioritizes the visible window, and
// exposes progress so a UI can draw a progress bar over in-flight cells.
//
// The sheet must not be mutated until Wait returns; the engine's other
// operations remain single-threaded, matching the paper's experimental
// setup.
type AsyncRecalc struct {
	total     int64
	done      atomic.Int64
	windowHot atomic.Bool // window formulae finished
	err       error
	wg        sync.WaitGroup
}

// Progress reports completed and total formula evaluations so far.
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

// RecalculateAsync starts a full recalculation of the sheet in the
// background, evaluating visible-window formulae first. The returned handle
// reports progress; the work is metered into the engine's meters when it
// completes (simulated time still accrues — asynchrony changes
// responsiveness, not total work, which is the paper's point about covering
// computation with progress indicators rather than eliminating it).
func (e *Engine) RecalculateAsync(s *sheet.Sheet) (*AsyncRecalc, error) {
	if s == nil {
		return nil, errSheet("RecalculateAsync")
	}
	var local costmodel.Meter
	order, cyclic := e.fullChain(s, &local)
	g := e.graph(s, &local) // built here: the worker must not build it

	// Partition: window formulae first, preserving topological order
	// within each partition. A formula is "in window" when its host cell
	// is; dependencies flowing out of the window are still respected
	// because the full order is topological and we only stably partition
	// cells whose relative order within a partition is preserved —
	// cross-partition dependencies (window formula reading a non-window
	// formula) are handled by evaluating precedents on demand below.
	window := e.prof.WindowRows
	inWindow := func(a cell.Addr) bool { return a.Row < window }
	prioritized := make([]cell.Addr, 0, len(order))
	var rest []cell.Addr
	for _, a := range order {
		if inWindow(a) {
			prioritized = append(prioritized, a)
		} else {
			rest = append(rest, a)
		}
	}

	a := &AsyncRecalc{total: int64(len(order) + len(cyclic))}
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				a.err = fmt.Errorf("engine: async recalc: %v", r)
			}
		}()
		env := &formula.Env{Src: s, Meter: &local, Now: e.nowFn, Lookup: e.prof.Lookup}
		evaluated := make(map[cell.Addr]bool, len(order))
		var eval func(at cell.Addr)
		eval = func(at cell.Addr) {
			if evaluated[at] {
				return
			}
			evaluated[at] = true
			fc, ok := s.Formula(at)
			if !ok {
				return
			}
			// Evaluate any not-yet-computed formula precedents first
			// (cross-partition dependencies).
			for _, r := range g.Precedents(at) {
				if r.Cells() > 64 {
					continue // large ranges: covered by topological rest order
				}
				for row := r.Start.Row; row <= r.End.Row; row++ {
					for col := r.Start.Col; col <= r.End.Col; col++ {
						p := cell.Addr{Row: row, Col: col}
						if _, isF := s.Formula(p); isF && !evaluated[p] {
							eval(p)
						}
					}
				}
			}
			env.DR, env.DC = fc.DeltaAt(at)
			// Raw writes here and below: the background goroutine cannot
			// touch the shared optState that setCached maintains.
			s.SetCachedValue(at, formula.Eval(fc.Code, env))
			a.done.Add(1)
		}
		for _, at := range prioritized {
			eval(at)
		}
		a.windowHot.Store(true)
		for _, at := range rest {
			eval(at)
		}
		for _, at := range cyclic {
			if !evaluated[at] {
				s.SetCachedValue(at, cell.Errorf(cell.ErrCycle))
				a.done.Add(1)
			}
		}
		// Fold the background work into the engine's meter on completion;
		// callers observing Result costs around async work see it all.
		for m := costmodel.Metric(0); int(m) < costmodel.NumMetrics; m++ {
			if n := local.Count(m); n != 0 {
				e.meter.Add(m, n)
			}
		}
	}()
	return a, nil
}
