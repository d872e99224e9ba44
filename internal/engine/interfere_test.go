package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cell"
	"repro/internal/sheet"
	"repro/internal/workload"
)

// corrupt invalidates every cached formula value so a recalculation must
// actually recompute everything.
func corrupt(s *sheet.Sheet) {
	s.EachFormula(func(a cell.Addr, _ sheet.Formula) bool {
		s.SetCachedValue(a, cell.Num(-1234567))
		return true
	})
}

// TestStagedDifferential is the acceptance gate for the certificate-checked
// scheduler: across the weather size matrix, the staged recalculation —
// which executes certified stage-by-stage with the runtime cross-stage
// assertion armed — must reproduce the naive engine's values byte for byte.
func TestStagedDifferential(t *testing.T) {
	for _, rows := range workload.SizesUpTo(25000) {
		t.Run(fmt.Sprintf("rows=%d", rows), func(t *testing.T) {
			naive := New(Profiles()["excel"])
			opt := New(Profiles()["optimized"])
			naive.SetNow(typedColsClock)
			opt.SetNow(typedColsClock)
			wbN := workload.Weather(workload.Spec{Rows: rows, Seed: 7, Formulas: true})
			wbO := workload.Weather(workload.Spec{Rows: rows, Seed: 7, Formulas: true,
				Columnar: Profiles()["optimized"].Opt.ColumnarLayout})
			if err := naive.Install(wbN); err != nil {
				t.Fatal(err)
			}
			if err := opt.Install(wbO); err != nil {
				t.Fatal(err)
			}
			sO := wbO.First()
			cert := opt.ParallelCert(sO)
			if !cert.OK {
				t.Fatalf("weather sheet not certified: %+v", cert.Blockers)
			}
			if cert.StageCount() != 1 || cert.Widest() != 7 {
				t.Errorf("cert = %d stages, widest %d; want 1 stage of 7 independent columns",
					cert.StageCount(), cert.Widest())
			}
			corrupt(sO)
			if _, err := opt.RecalculateStaged(sO); err != nil {
				t.Fatal(err)
			}
			regionsCompare(t, "staged full recalc", wbN.First(), sO)
		})
	}
}

// TestStagedDifferentialEdits drives the region-breaking edits through a
// naive and a staged engine; after each edit the certificate is re-derived
// (version-keyed, like the region chain) and a staged recalculation with
// the runtime assertion must stay byte-identical to the naive engine.
func TestStagedDifferentialEdits(t *testing.T) {
	const rows = 300
	naive := New(Profiles()["excel"])
	opt := New(Profiles()["optimized"])
	naive.SetNow(typedColsClock)
	opt.SetNow(typedColsClock)
	wbN := workload.Weather(workload.Spec{Rows: rows, Seed: 7, Formulas: true})
	wbO := workload.Weather(workload.Spec{Rows: rows, Seed: 7, Formulas: true,
		Columnar: Profiles()["optimized"].Opt.ColumnarLayout})
	if err := naive.Install(wbN); err != nil {
		t.Fatal(err)
	}
	if err := opt.Install(wbO); err != nil {
		t.Fatal(err)
	}
	sN, sO := wbN.First(), wbO.First()

	both := func(label string, f func(e *Engine, s *sheet.Sheet) error) {
		t.Helper()
		if err := f(naive, sN); err != nil {
			t.Fatalf("%s (naive): %v", label, err)
		}
		if err := f(opt, sO); err != nil {
			t.Fatalf("%s (staged): %v", label, err)
		}
		cert := opt.ParallelCert(sO)
		if !cert.OK {
			t.Fatalf("%s: sheet no longer certified: %+v", label, cert.Blockers)
		}
		corrupt(sO)
		if _, err := opt.RecalculateStaged(sO); err != nil {
			t.Fatalf("%s: staged recalc: %v", label, err)
		}
		regionsCompare(t, label, sN, sO)
	}

	both("formula overwrite in fill region", func(e *Engine, s *sheet.Sheet) error {
		_, _, err := e.InsertFormula(s, cell.Addr{Row: 50, Col: workload.ColFormula0},
			fmt.Sprintf("=COUNTIF(J2:J%d,1)", rows+1))
		return err
	})
	both("value overwrite splits region", func(e *Engine, s *sheet.Sheet) error {
		_, err := e.SetCell(s, cell.Addr{Row: 20, Col: workload.ColFormula0 + 3}, cell.Num(0))
		return err
	})
	both("fresh aggregate formula", func(e *Engine, s *sheet.Sheet) error {
		_, _, err := e.InsertFormula(s, cell.Addr{Row: 0, Col: workload.NumCols + 1},
			fmt.Sprintf("=SUM(K2:K%d)", rows+1))
		return err
	})
	// The aggregate reads the K region: the certificate must now carry a
	// second stage.
	if cert := opt.ParallelCert(sO); cert.StageCount() < 2 {
		t.Errorf("cert = %d stages after dependent aggregate, want >= 2", cert.StageCount())
	}
	both("row insert", func(e *Engine, s *sheet.Sheet) error {
		_, err := e.InsertRows(s, 10, 3)
		return err
	})
	both("row delete", func(e *Engine, s *sheet.Sheet) error {
		_, err := e.DeleteRows(s, 10, 3)
		return err
	})
	both("sort by storm", func(e *Engine, s *sheet.Sheet) error {
		_, err := e.Sort(s, workload.ColStorm, false, 1)
		return err
	})
	both("find-replace event", func(e *Engine, s *sheet.Sheet) error {
		_, _, err := e.FindReplace(s, "STORM", "CALM")
		return err
	})
}

// TestStagedStaleScheduleAfterSplit pins the version-key fix: a SplitAt
// (value overwriting one formula cell) must invalidate the issued
// certificate, and the next staged pass must run on a fresh one — never a
// replay of the stale schedule.
func TestStagedStaleScheduleAfterSplit(t *testing.T) {
	eng, s := newTestEngine(t, "optimized", 200, true)
	before := eng.ParallelCert(s)
	if !before.OK {
		t.Fatalf("weather sheet not certified: %+v", before.Blockers)
	}
	if _, err := eng.SetCell(s, cell.Addr{Row: 60, Col: workload.ColFormula0 + 2}, cell.Num(9)); err != nil {
		t.Fatal(err)
	}
	after := eng.ParallelCert(s)
	if after == before || after.Version == before.Version {
		t.Fatalf("certificate not reissued after SplitAt: version %d -> %d", before.Version, after.Version)
	}
	if after.Regions != before.Regions+1 {
		t.Errorf("regions = %d after split, want %d", after.Regions, before.Regions+1)
	}
	corrupt(s)
	if _, err := eng.RecalculateStaged(s); err != nil {
		t.Fatal(err)
	}
	// The overwritten cell keeps its value; its old region's other cells
	// recompute correctly around it.
	if got := s.Value(cell.Addr{Row: 60, Col: workload.ColFormula0 + 2}).Num; got != 9 {
		t.Errorf("overwritten cell = %v, want 9", got)
	}
	if got := s.Value(cell.Addr{Row: 61, Col: workload.ColFormula0 + 2}).Num; got == -1234567 {
		t.Error("neighbor cell not recomputed by staged pass")
	}
}

// TestStagedRefusesUncertified: the shim must refuse a sheet with volatile
// and cyclic summary formulas, while RecalculateParallel falls back to
// per-cell leveling and still matches the serial engine.
func TestStagedRefusesUncertified(t *testing.T) {
	naive := New(Profiles()["excel"])
	par := New(Profiles()["excel"])
	naive.SetNow(typedColsClock)
	par.SetNow(typedColsClock)
	wbN := workload.Weather(workload.Spec{Rows: 120, Seed: 7, Formulas: true, Analysis: true})
	wbP := workload.Weather(workload.Spec{Rows: 120, Seed: 7, Formulas: true, Analysis: true})
	if err := naive.Install(wbN); err != nil {
		t.Fatal(err)
	}
	if err := par.Install(wbP); err != nil {
		t.Fatal(err)
	}
	sP := wbP.First()
	if _, err := par.RecalculateStaged(sP); err == nil {
		t.Fatal("RecalculateStaged accepted an uncertifiable sheet")
	}
	corrupt(sP)
	if _, err := par.RecalculateParallel(sP, 4); err != nil {
		t.Fatal(err)
	}
	regionsCompare(t, "fallback parallel recalc", wbN.First(), sP)
}

// TestParallelCertFuzz is the soundness-under-mutation property: random
// single-cell edits (value writes, formula overwrites, fill-region splits)
// must never leave a certificate whose stages disagree with the per-cell
// graph's transitive dependents — every dependent lives in the same region
// or a strictly later stage. Every few rounds the staged scheduler replays
// a full recalculation against a naive twin to pin values too.
func TestParallelCertFuzz(t *testing.T) {
	const rows = 120
	rng := rand.New(rand.NewSource(41))
	naive := New(Profiles()["excel"])
	opt := New(Profiles()["optimized"])
	naive.SetNow(typedColsClock)
	opt.SetNow(typedColsClock)
	wbN := workload.Weather(workload.Spec{Rows: rows, Seed: 7, Formulas: true})
	wbO := workload.Weather(workload.Spec{Rows: rows, Seed: 7, Formulas: true,
		Columnar: Profiles()["optimized"].Opt.ColumnarLayout})
	if err := naive.Install(wbN); err != nil {
		t.Fatal(err)
	}
	if err := opt.Install(wbO); err != nil {
		t.Fatal(err)
	}
	sN, sO := wbN.First(), wbO.First()

	edit := func(e *Engine, s *sheet.Sheet, round int) error {
		switch rng.Intn(3) {
		case 0: // data edit into a precedent column
			at := cell.Addr{Row: 1 + rng.Intn(rows), Col: workload.ColEvent0 + rng.Intn(7)}
			_, err := e.SetCell(s, at, cell.Str("STORM"))
			return err
		case 1: // value overwrite of a formula cell: SplitAt path
			at := cell.Addr{Row: 1 + rng.Intn(rows), Col: workload.ColFormula0 + rng.Intn(7)}
			_, err := e.SetCell(s, at, cell.Num(float64(round)))
			return err
		default: // deviant formula inside a fill region
			at := cell.Addr{Row: 1 + rng.Intn(rows), Col: workload.ColFormula0 + rng.Intn(7)}
			_, _, err := e.InsertFormula(s, at, fmt.Sprintf("=J%d+%d", 2+rng.Intn(rows), round))
			return err
		}
	}

	for round := 0; round < 60; round++ {
		// Drive both engines with the identical edit (shared rng state must
		// be sampled once).
		snap := rng.Int63()
		rng.Seed(snap)
		if err := edit(naive, sN, round); err != nil {
			t.Fatalf("round %d (naive): %v", round, err)
		}
		rng.Seed(snap)
		if err := edit(opt, sO, round); err != nil {
			t.Fatalf("round %d (staged): %v", round, err)
		}

		cert, rg := opt.parallelCertFor(sO, &opt.meter)
		sr := rg.Regions()
		g := opt.graph(sO)
		if cert.Version != g.Version() {
			t.Fatalf("round %d: certificate version %d, graph version %d", round, cert.Version, g.Version())
		}
		if !cert.OK {
			t.Fatalf("round %d: certificate lost: %+v", round, cert.Blockers)
		}
		// Soundness vs the per-cell graph: sample formula cells and check
		// every transitive dependent is staged no earlier.
		for i := 0; i < 12; i++ {
			from := cell.Addr{Row: 1 + rng.Intn(rows), Col: workload.ColFormula0 + rng.Intn(7)}
			fromRegion := sr.RegionFor(from)
			if fromRegion < 0 {
				continue // overwritten by a value edit
			}
			for _, dep := range g.TransitiveDependents(from) {
				depRegion := sr.RegionFor(dep)
				if depRegion < 0 {
					t.Fatalf("round %d: dependent %s of %s not in any region", round, dep.A1(), from.A1())
				}
				if depRegion == fromRegion {
					continue // intra-region order is the region graph's
				}
				if cert.Stage[fromRegion] >= cert.Stage[depRegion] {
					t.Fatalf("round %d: %s (region %d, stage %d) feeds %s (region %d, stage %d): not strictly staged",
						round, from.A1(), fromRegion, cert.Stage[fromRegion],
						dep.A1(), depRegion, cert.Stage[depRegion])
				}
			}
		}
		if round%10 == 9 {
			corrupt(sO)
			if _, err := opt.RecalculateStaged(sO); err != nil {
				t.Fatalf("round %d: staged recalc: %v", round, err)
			}
			regionsCompare(t, fmt.Sprintf("fuzz round %d", round), sN, sO)
		}
	}
}
