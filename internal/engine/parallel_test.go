package engine

import (
	"fmt"
	"testing"

	"repro/internal/cell"
	"repro/internal/sheet"
	"repro/internal/workload"
)

func TestParallelRecalcMatchesSerial(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		eng, s := newTestEngine(t, "excel", 400, true)
		// A dependency chain on top of the embedded formulae, to exercise
		// multi-level scheduling.
		mustInsert(t, eng, s, "S1", "=SUM(K2:K401)")
		mustInsert(t, eng, s, "T1", "=S1*2")
		mustInsert(t, eng, s, "U1", "=T1+S1")

		// Corrupt all cached values.
		s.EachFormula(func(a cell.Addr, _ sheet.Formula) bool {
			s.SetCachedValue(a, cell.Num(-1))
			return true
		})
		if _, err := eng.RecalculateParallel(s, workers); err != nil {
			t.Fatal(err)
		}

		want := float64(countStorms(400))
		if got := s.Value(a("S1")).Num; got != want {
			t.Errorf("workers=%d: S1 = %v, want %v", workers, got, want)
		}
		if got := s.Value(a("U1")).Num; got != want*3 {
			t.Errorf("workers=%d: U1 = %v, want %v", workers, got, want*3)
		}
		for dr := 1; dr <= 400; dr++ {
			at := cell.Addr{Row: dr, Col: workload.ColFormula0}
			wantK := 0.0
			if workload.EventAt(workload.DefaultSeed, dr, 0) == "STORM" {
				wantK = 1
			}
			if got := s.Value(at).Num; got != wantK {
				t.Fatalf("workers=%d: K%d = %v, want %v", workers, dr+1, got, wantK)
			}
		}
	}
}

func TestParallelRecalcWorkEqualsSerial(t *testing.T) {
	// Parallelism must not change the work-unit accounting.
	work := func(parallel bool) int64 {
		eng, s := newTestEngine(t, "excel", 300, true)
		snap := eng.Meter().Snapshot()
		if parallel {
			if _, err := eng.RecalculateParallel(s, 4); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := eng.Recalculate(s); err != nil {
				t.Fatal(err)
			}
		}
		d := eng.Meter().Sub(snap)
		return d.Total()
	}
	serial, par := work(false), work(true)
	if serial != par {
		t.Errorf("work units differ: serial %d, parallel %d", serial, par)
	}
}

func TestParallelRecalcChain(t *testing.T) {
	// A 50-deep chain must still evaluate level by level.
	eng, s := newTestEngine(t, "excel", 60, false)
	mustInsert(t, eng, s, "S1", "=A2")
	for i := 2; i <= 50; i++ {
		mustInsert(t, eng, s, fmt.Sprintf("S%d", i), fmt.Sprintf("=S%d+1", i-1))
	}
	base := s.Value(a("A2")).Num
	s.EachFormula(func(at cell.Addr, _ sheet.Formula) bool {
		s.SetCachedValue(at, cell.Num(-7))
		return true
	})
	if _, err := eng.RecalculateParallel(s, 3); err != nil {
		t.Fatal(err)
	}
	if got := s.Value(a("S50")).Num; got != base+49 {
		t.Errorf("S50 = %v, want %v", got, base+49)
	}
}

func TestParallelRecalcNil(t *testing.T) {
	eng, _ := newTestEngine(t, "excel", 1, false)
	if _, err := eng.RecalculateParallel(nil, 2); err == nil {
		t.Error("nil sheet must error")
	}
}

// TestParallelRecalcKeepsIndexesCurrent is the regression test for the
// uncertified parallel path writing results behind the derived state's
// back: volatile fill formulas keep the sheet uncertified, so
// RecalculateParallel evaluates them through the serial chain, and a SUM
// inserted afterwards must read the recalculated values, not a prefix
// index built over the old ones.
func TestParallelRecalcKeepsIndexesCurrent(t *testing.T) {
	for _, profile := range []string{"optimized", "planned"} {
		t.Run(profile, func(t *testing.T) {
			s := sheet.New("p", 110, 6)
			for r := 1; r <= 100; r++ {
				s.SetValue(cell.Addr{Row: r, Col: 0}, cell.Num(float64(r)))
			}
			wb := sheet.NewWorkbook()
			if err := wb.Add(s); err != nil {
				t.Fatal(err)
			}
			eng := New(Profiles()[profile])
			if err := eng.Install(wb); err != nil {
				t.Fatal(err)
			}
			for r := 2; r <= 101; r++ {
				mustInsert(t, eng, s, fmt.Sprintf("B%d", r), fmt.Sprintf("=RAND()*100+A%d", r))
			}
			mustInsert(t, eng, s, "D1", "=SUM(B2:B101)")
			if _, err := eng.RecalculateParallel(s, 4); err != nil {
				t.Fatal(err)
			}
			want := 0.0
			for r := 1; r <= 100; r++ {
				want += s.Value(cell.Addr{Row: r, Col: 1}).Num
			}
			if got := mustInsert(t, eng, s, "E1", "=SUM(B2:B101)"); got.Num != want {
				t.Errorf("SUM after parallel recalc = %v, want %v (scan of cached values)", got.Num, want)
			}
			if err := checkDerived(eng); err != nil {
				t.Error(err)
			}
		})
	}
}
