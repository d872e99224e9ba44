package engine

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/cell"
	"repro/internal/formula"
	"repro/internal/obs"
	"repro/internal/sheet"
	"repro/internal/workload"
)

// recalcEntries are the full-recalculation entry points held to
// Recalculate, each with its own name.
var recalcEntries = []struct {
	name string
	run  func(e *Engine, s *sheet.Sheet) error
}{
	{"parallel1", func(e *Engine, s *sheet.Sheet) error { _, err := e.RecalculateParallel(s, 1); return err }},
	{"parallel2", func(e *Engine, s *sheet.Sheet) error { _, err := e.RecalculateParallel(s, 2); return err }},
	{"parallel4", func(e *Engine, s *sheet.Sheet) error { _, err := e.RecalculateParallel(s, 4); return err }},
	{"async", func(e *Engine, s *sheet.Sheet) error {
		a, err := e.RecalculateAsync(s)
		if err != nil {
			return err
		}
		if err := a.Wait(); err != nil {
			return err
		}
		if done, total := a.Progress(); done != total || !a.WindowReady() {
			return fmt.Errorf("async finished at %d/%d, window ready %v", done, total, a.WindowReady())
		}
		return nil
	}},
}

// clockEngine installs wb on a fresh engine of the profile with its clock
// stopped at a fixed instant, and returns the engine with a function that
// moves the clock on.
func clockEngine(t *testing.T, profile string, wb *sheet.Workbook) (*Engine, func(time.Duration)) {
	t.Helper()
	now := time.Date(2020, 6, 1, 12, 0, 0, 0, time.UTC)
	eng := New(Profiles()[profile])
	eng.SetNow(func() time.Time { return now })
	if err := eng.Install(wb); err != nil {
		t.Fatal(err)
	}
	return eng, func(d time.Duration) { now = now.Add(d) }
}

// withClockColumn adds a NOW() column right of the main sheet's data with a
// SUM over it beside, and, on a multi-sheet workbook, a cross-sheet SUM of
// that column on the last sheet.
func withClockColumn(wb *sheet.Workbook, rows int) {
	main := wb.First()
	col := main.Cols()
	for r := 1; r <= rows; r++ {
		main.SetFormula(cell.Addr{Row: r, Col: col}, formula.MustCompile(fmt.Sprintf("=NOW()+%d", r)))
	}
	rng := cell.ColRange(col, 1, rows).String()
	main.SetFormula(cell.Addr{Row: 0, Col: col + 1}, formula.MustCompile("=SUM("+rng+")"))
	if sheets := wb.Sheets(); len(sheets) > 1 {
		last := sheets[len(sheets)-1]
		last.SetFormula(cell.Addr{Row: 0, Col: last.Cols()}, formula.MustCompile("=SUM("+main.Name+"!"+rng+")"))
	}
}

// TestParallelAndAsyncMatchRecalculate holds RecalculateParallel (1, 2 and 4
// workers) and RecalculateAsync to Recalculate on every registry workload
// and fast profile: every cell of every sheet, the meter totals, and the
// derived state. The static variant certifies on weather, so 2 and 4
// workers run the certificate's stages; the clock variant adds a NOW()
// column (uncertifiable) with readers on its own and another sheet, and
// moves the clock before recalculating, so values change and cross-sheet
// readers must be refreshed.
func TestParallelAndAsyncMatchRecalculate(t *testing.T) {
	const rows = 120 // more than the 50-row window
	for _, g := range workload.Generators() {
		for _, profile := range []string{"excel", "optimized", "planned"} {
			for _, clock := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/clock=%v", g.Name, profile, clock), func(t *testing.T) {
					run := func(recalc func(*Engine, *sheet.Sheet) error) (*Engine, string) {
						wb := g.Build(workload.Spec{Rows: rows, Formulas: true, Columnar: Profiles()[profile].Opt.ColumnarLayout})
						if clock {
							withClockColumn(wb, rows)
						}
						eng, advance := clockEngine(t, profile, wb)
						advance(36 * time.Hour)
						snap := eng.Meter().Snapshot()
						if err := recalc(eng, wb.First()); err != nil {
							t.Fatal(err)
						}
						if err := checkDerived(eng); err != nil {
							t.Fatal(err)
						}
						return eng, meterText(eng.Meter().Sub(snap))
					}
					ref, refWork := run(func(e *Engine, s *sheet.Sheet) error { _, err := e.Recalculate(s); return err })
					for _, entry := range recalcEntries {
						eng, work := run(entry.run)
						if err := sameValues(eng.Workbook(), ref.Workbook()); err != nil {
							t.Errorf("%s: %v", entry.name, err)
						}
						if work != refWork {
							t.Errorf("%s meters:\n got %s\nwant %s", entry.name, work, refWork)
						}
					}
				})
			}
		}
	}
}

// TestAsyncWindowSumSeesWholeVolatileColumn: a SUM in the visible window
// over 200 NOW() cells, most of them below the window, must read every
// cell's new value once the clock moves.
func TestAsyncWindowSumSeesWholeVolatileColumn(t *testing.T) {
	for _, profile := range []string{"excel", "optimized", "planned"} {
		t.Run(profile, func(t *testing.T) {
			s := sheet.New("s", 200, 3)
			for r := 0; r < 200; r++ {
				s.SetValue(cell.Addr{Row: r, Col: 0}, cell.Num(float64(r+1)))
				s.SetFormula(cell.Addr{Row: r, Col: 1}, formula.MustCompile(fmt.Sprintf("=NOW()+A%d", r+1)))
			}
			s.SetFormula(a("C1"), formula.MustCompile("=SUM(B1:B200)"))
			wb := sheet.NewWorkbook()
			if err := wb.Add(s); err != nil {
				t.Fatal(err)
			}
			eng, advance := clockEngine(t, profile, wb)
			advance(24 * time.Hour)
			async, err := eng.RecalculateAsync(s)
			if err != nil {
				t.Fatal(err)
			}
			if err := async.Wait(); err != nil {
				t.Fatal(err)
			}
			want := 0.0
			for r := 0; r < 200; r++ {
				want += s.Value(cell.Addr{Row: r, Col: 1}).Num
			}
			if got := s.Value(a("C1")).Num; got != want {
				t.Errorf("C1 = %v, the B cells sum to %v", got, want)
			}
		})
	}
}

// TestCrossSheetReaderAfterParallelAndAsync: a second sheet's SUM over the
// recalculated sheet must see the new values after RecalculateParallel and
// after RecalculateAsync, as it does after Recalculate.
func TestCrossSheetReaderAfterParallelAndAsync(t *testing.T) {
	for _, profile := range []string{"excel", "optimized", "planned"} {
		t.Run(profile, func(t *testing.T) {
			src := sheet.New("a", 10, 2)
			for r := 0; r < 10; r++ {
				src.SetValue(cell.Addr{Row: r, Col: 0}, cell.Num(float64(r+1)))
				src.SetFormula(cell.Addr{Row: r, Col: 1}, formula.MustCompile(fmt.Sprintf("=NOW()+A%d", r+1)))
			}
			reader := sheet.New("b", 1, 1)
			reader.SetFormula(a("A1"), formula.MustCompile("=SUM(a!B1:B10)"))
			wb := sheet.NewWorkbook()
			for _, s := range []*sheet.Sheet{src, reader} {
				if err := wb.Add(s); err != nil {
					t.Fatal(err)
				}
			}
			eng, advance := clockEngine(t, profile, wb)
			for _, entry := range recalcEntries {
				advance(time.Hour)
				if err := entry.run(eng, src); err != nil {
					t.Fatal(err)
				}
				want := 0.0
				for r := 0; r < 10; r++ {
					want += src.Value(cell.Addr{Row: r, Col: 1}).Num
				}
				if got := reader.Value(a("A1")).Num; got != want {
					t.Errorf("%s: b!A1 = %v, a!B1:B10 sums to %v", entry.name, got, want)
				}
			}
		})
	}
}

// TestParallelWorkersBoundedByRegions: a worker count far above the
// certified stages' region count must not size the scheduler's per-worker
// state (weather certifies as one stage of seven regions).
func TestParallelWorkersBoundedByRegions(t *testing.T) {
	eng, s := newTestEngine(t, "optimized", 200, true)
	if cert := eng.ParallelCert(s); !cert.OK {
		t.Fatalf("weather not certified: %+v", cert.Blockers)
	}
	if _, err := eng.RecalculateParallel(s, 4); err != nil { // warm the chain
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := eng.RecalculateParallel(s, 1<<20); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("RecalculateParallel(s, 1<<20) allocated %d bytes", n)
	}
}

// TestAsyncRecalcBuildsNoGraph: under RegionGraph a sort releases the
// per-cell graph, and a background recalculation sequences over regions
// instead of rebuilding it.
func TestAsyncRecalcBuildsNoGraph(t *testing.T) {
	withEngineTracing(t)
	builds := obs.Default.Counter("engine_graph_builds", "optimized")
	eng, s := newTestEngine(t, "optimized", 200, true)
	if _, err := eng.Sort(s, workload.ColState, true, 1); err != nil {
		t.Fatal(err)
	}
	if eng.state(s).g != nil {
		t.Fatal("the sort kept the per-cell graph")
	}
	before := builds.Value()
	async, err := eng.RecalculateAsync(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := async.Wait(); err != nil {
		t.Fatal(err)
	}
	if n := builds.Value() - before; n != 0 {
		t.Errorf("RecalculateAsync built the per-cell graph %d times", n)
	}
}
