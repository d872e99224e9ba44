package engine

import (
	"fmt"
	"sync"

	"repro/internal/cell"
	"repro/internal/costmodel"
	"repro/internal/formula"
	"repro/internal/interfere"
	"repro/internal/obs"
	"repro/internal/regions"
	"repro/internal/sheet"
)

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

// RecalculateStaged is the certificate-checked scheduler shim: it
// recomputes every formula stage-by-stage — still sequentially — under the
// sheet's certificate, after asserting that no dependency edge crosses
// stages backward. It errors when the sheet is not certified (blockers, or
// a region set the region graph cannot sequence) and on any runtime
// certificate violation; it never falls back, which is what makes it a
// soundness instrument rather than a scheduler.
func (e *Engine) RecalculateStaged(s *sheet.Sheet) (Result, error) {
	if s == nil {
		return Result{}, errSheet("RecalculateStaged")
	}
	t := e.begin(OpSetCell)
	_, cyclic := e.fullChain(s, &e.meter)
	cert, rg := e.parallelCertFor(s, &e.meter)
	if !cert.OK {
		return Result{}, fmt.Errorf("engine: RecalculateStaged: sheet not certified (%d blockers, first: %s)",
			len(cert.Blockers), describeBlocker(cert.Blockers))
	}
	if !rg.OK() {
		return Result{}, fmt.Errorf("engine: RecalculateStaged: region graph not sequencable")
	}
	if len(cyclic) > 0 {
		return Result{}, fmt.Errorf("engine: RecalculateStaged: %d cyclic cells under a certified schedule", len(cyclic))
	}
	if err := e.runStages(s, cert, rg, 1); err != nil {
		return Result{}, err
	}
	return t.finish(), nil
}

func describeBlocker(bs []interfere.Blocker) string {
	if len(bs) == 0 {
		return "none"
	}
	b := bs[0]
	return fmt.Sprintf("%s %s: %s", b.Cell.A1(), b.Text, b.Reason)
}

// runStages executes the certified schedule: stages in certificate order,
// regions within a stage split across workers, rows within a region in the
// region graph's required direction. Before anything runs the certificate
// is checked against the region graph's independently derived cross-region
// edges — the footprint analysis and the interval-edge sequencer must agree
// that every dependency spans strictly increasing stages, or the
// certificate is unsound and the recalculation aborts.
func (e *Engine) runStages(s *sheet.Sheet, cert *interfere.Cert, rg *regions.Graph, workers int) error {
	if bad := cert.CheckStages(rg.CrossEdges()); len(bad) > 0 {
		return fmt.Errorf("engine: parallel certificate violation: %d cross-stage edges not strictly staged (first: region %d -> %d)",
			len(bad), bad[0][0], bad[0][1])
	}
	meters := make([]costmodel.Meter, workers)
	for _, stage := range cert.Stages {
		// Work lists are materialized on the scheduler goroutine:
		// RegionCells charges the region graph's op counter, which is not
		// goroutine-safe.
		parts := make([][]cell.Addr, workers)
		for i, ri := range stage {
			w := i % workers
			parts[w] = rg.RegionCells(parts[w], ri)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			if len(parts[w]) == 0 {
				continue
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
					// A raw write: workers cannot touch the shared optState
					// that setCached maintains.
					s.SetCachedValue(at, formula.Eval(fc.Code, env))
				}
			}(w, parts[w])
		}
		wg.Wait()
	}
	for w := range meters {
		for m := costmodel.Metric(0); int(m) < costmodel.NumMetrics; m++ {
			if n := meters[w].Count(m); n != 0 {
				e.meter.Add(m, n)
			}
		}
	}
	return nil
}
