package spreadbench

// One benchmark per paper artifact (every table and figure of the
// evaluation), plus ablation benchmarks for each §6 optimization. These
// drive the same engine paths as the cmd/bct and cmd/oot sweeps at one
// representative size, so `go test -bench=.` exercises the full matrix
// quickly; the commands produce the complete curves.

import (
	"fmt"
	"io"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/absint"
	"repro/internal/analyze"
	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/formula"
	"repro/internal/interfere"
	"repro/internal/iolib"
	"repro/internal/plan"
	"repro/internal/regions"
	"repro/internal/report"
	"repro/internal/sheet"
	"repro/internal/workload"
)

const benchRows = 10_000

// benchEngine installs a benchRows-row dataset into a fresh engine.
func benchEngine(b *testing.B, system string, formulas bool) (*engine.Engine, *Sheet) {
	b.Helper()
	prof, ok := engine.Profiles()[system]
	if !ok {
		b.Fatalf("unknown system %q", system)
	}
	eng := engine.New(prof)
	wb := workload.Weather(workload.Spec{
		Rows: benchRows, Formulas: formulas, Columnar: prof.Opt.ColumnarLayout,
	})
	if err := eng.Install(wb); err != nil {
		b.Fatal(err)
	}
	return eng, wb.First()
}

func perSystem(b *testing.B, f func(b *testing.B, system string)) {
	for _, sys := range []string{"excel", "calc", "sheets", "optimized"} {
		b.Run(sys, func(b *testing.B) {
			b.ReportAllocs()
			f(b, sys)
		})
	}
}

// reportSim attaches the simulated latency of the last operation as a
// custom benchmark metric, so paper-comparable numbers appear beside wall
// times in the -bench output.
func reportSim(b *testing.B, sim time.Duration) {
	b.ReportMetric(float64(sim.Nanoseconds()), "sim-ns/op")
}

func BenchmarkTable1Taxonomy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.WriteTaxonomy(io.Discard)
	}
}

func BenchmarkFig2Open(b *testing.B) {
	dir := b.TempDir()
	path := filepath.Join(dir, "bench.svf")
	wb := workload.Weather(workload.Spec{Rows: benchRows, Formulas: true})
	if err := iolib.SaveWorkbook(path, wb); err != nil {
		b.Fatal(err)
	}
	perSystem(b, func(b *testing.B, sys string) {
		eng := engine.New(engine.Profiles()[sys])
		var last engine.Result
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := eng.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		reportSim(b, last.Sim)
	})
}

func BenchmarkFig3Sort(b *testing.B) {
	perSystem(b, func(b *testing.B, sys string) {
		eng, s := benchEngine(b, sys, true)
		var last engine.Result
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := eng.Sort(s, workload.ColID, i%2 == 0, 1)
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		reportSim(b, last.Sim)
	})
}

func BenchmarkFig4ConditionalFormat(b *testing.B) {
	perSystem(b, func(b *testing.B, sys string) {
		eng, s := benchEngine(b, sys, true)
		rng := cell.ColRange(workload.ColFormula0, 1, benchRows)
		style := cell.Style{Fill: cell.Green}
		var last engine.Result
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, res, err := eng.ConditionalFormat(s, rng, cell.Num(1), style)
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		reportSim(b, last.Sim)
	})
}

func BenchmarkFig5Filter(b *testing.B) {
	perSystem(b, func(b *testing.B, sys string) {
		eng, s := benchEngine(b, sys, true)
		var last engine.Result
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.ClearFilter(s)
			_, res, err := eng.Filter(s, workload.ColState, cell.Str("SD"), 1)
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		reportSim(b, last.Sim)
	})
}

func BenchmarkFig6Pivot(b *testing.B) {
	perSystem(b, func(b *testing.B, sys string) {
		eng, s := benchEngine(b, sys, true)
		var last engine.Result
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, res, err := eng.PivotTable(s, workload.ColState, workload.ColStorm, 1)
			if err != nil {
				b.Fatal(err)
			}
			eng.Workbook().Remove(out.Name)
			last = res
		}
		reportSim(b, last.Sim)
	})
}

func BenchmarkFig7Countif(b *testing.B) {
	text := fmt.Sprintf("=COUNTIF(K2:K%d,1)", benchRows+1)
	perSystem(b, func(b *testing.B, sys string) {
		eng, s := benchEngine(b, sys, true)
		at := cell.Addr{Row: 1, Col: workload.NumCols}
		var last engine.Result
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, res, err := eng.InsertFormula(s, at, text)
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		reportSim(b, last.Sim)
	})
}

func BenchmarkFig8Vlookup(b *testing.B) {
	for _, approx := range []bool{true, false} {
		text := fmt.Sprintf("=VLOOKUP(%d,A2:Q%d,2,%v)", benchRows*2/5, benchRows+1, approx)
		b.Run(fmt.Sprintf("sorted=%v", approx), func(b *testing.B) {
			perSystem(b, func(b *testing.B, sys string) {
				eng, s := benchEngine(b, sys, false)
				at := cell.Addr{Row: 1, Col: workload.NumCols}
				var last engine.Result
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, res, err := eng.InsertFormula(s, at, text)
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				reportSim(b, last.Sim)
			})
		})
	}
}

func BenchmarkTable2Derivation(b *testing.B) {
	// Synthetic BCT results at realistic scale, derived repeatedly.
	results := make(map[string]*core.Result)
	for _, exp := range core.Experiments() {
		if exp.Kind != "bct" {
			continue
		}
		res := &core.Result{ID: exp.ID, Title: exp.Title}
		for _, sys := range []string{"excel", "calc", "sheets"} {
			for _, variant := range []string{"F", "V"} {
				var pts []report.Point
				for _, m := range workload.SizesUpTo(500_000) {
					pts = append(pts, report.Point{Size: m, Sim: time.Duration(m) * time.Microsecond})
				}
				res.Series = append(res.Series, report.Series{Label: sys + "/" + variant, Points: pts})
			}
		}
		results[exp.ID] = res
	}
	systems := []string{"excel", "calc", "sheets"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := core.Table2(results, systems)
		if len(rows) != 7 {
			b.Fatal("rows")
		}
	}
}

func BenchmarkFig9FindReplace(b *testing.B) {
	perSystem(b, func(b *testing.B, sys string) {
		eng, s := benchEngine(b, sys, false)
		var last engine.Result
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			find, repl := "STORM", "TEMPEST"
			if i%2 == 1 {
				find, repl = repl, find
			}
			_, res, err := eng.FindReplace(s, find, repl)
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		reportSim(b, last.Sim)
	})
}

func BenchmarkFig10Layout(b *testing.B) {
	for _, mode := range []string{"sequential", "random"} {
		b.Run(mode, func(b *testing.B) {
			perSystem(b, func(b *testing.B, sys string) {
				eng, s := benchEngine(b, sys, false)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "sequential" {
						eng.ReadColumn(s, workload.ColID, 1, benchRows)
						continue
					}
					rng := uint64(i)*2862933555777941757 + 3037000493
					for k := 0; k < benchRows; k++ {
						rng ^= rng << 13
						rng ^= rng >> 7
						rng ^= rng << 17
						row := 1 + int(rng%benchRows)
						eng.CellValue(s, cell.Addr{Row: row, Col: workload.ColID})
					}
				}
			})
		})
	}
}

func BenchmarkFig11Shared(b *testing.B) {
	const m = 1000
	for _, mode := range []string{"repeated", "reusable"} {
		b.Run(mode, func(b *testing.B) {
			perSystem(b, func(b *testing.B, sys string) {
				prof := engine.Profiles()[sys]
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					eng := engine.New(prof)
					wb := workload.Weather(workload.Spec{Rows: m, Columnar: prof.Opt.ColumnarLayout})
					if err := eng.Install(wb); err != nil {
						b.Fatal(err)
					}
					s := wb.First()
					b.StartTimer()
					for k := 1; k <= m; k++ {
						var text string
						var at cell.Addr
						if mode == "repeated" {
							text = fmt.Sprintf("=SUM(A2:A%d)", k+1)
							at = cell.Addr{Row: k, Col: workload.NumCols}
						} else {
							at = cell.Addr{Row: k, Col: workload.NumCols + 1}
							if k == 1 {
								text = "=A2"
							} else {
								text = fmt.Sprintf("=A%d+%s%d", k+1, cell.ColName(workload.NumCols+1), k)
							}
						}
						if _, _, err := eng.InsertFormula(s, at, text); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		})
	}
}

func BenchmarkFig12Redundant(b *testing.B) {
	text := fmt.Sprintf(`=COUNTIF(J2:J%d,"1")`, benchRows+1)
	for _, instances := range []int{1, 5} {
		b.Run(fmt.Sprintf("instances=%d", instances), func(b *testing.B) {
			perSystem(b, func(b *testing.B, sys string) {
				eng, s := benchEngine(b, sys, false)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for k := 0; k < instances; k++ {
						at := cell.Addr{Row: 1 + k, Col: workload.NumCols}
						if _, _, err := eng.InsertFormula(s, at, text); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		})
	}
}

func BenchmarkFig13Incremental(b *testing.B) {
	perSystem(b, func(b *testing.B, sys string) {
		eng, s := benchEngine(b, sys, false)
		text := fmt.Sprintf(`=COUNTIF(J2:J%d,"1")`, benchRows+1)
		if _, _, err := eng.InsertFormula(s, cell.Addr{Row: 1, Col: workload.NumCols}, text); err != nil {
			b.Fatal(err)
		}
		j2 := cell.Addr{Row: 1, Col: workload.ColStorm}
		var last engine.Result
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := eng.SetCell(s, j2, cell.Num(float64(i%2)))
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		reportSim(b, last.Sim)
	})
}

func BenchmarkFig14MultiFormula(b *testing.B) {
	const instances = 100
	perSystem(b, func(b *testing.B, sys string) {
		eng, s := benchEngine(b, sys, false)
		text := fmt.Sprintf(`=COUNTIF(J2:J%d,"1")`, benchRows+1)
		for k := 0; k < instances; k++ {
			if _, _, err := eng.InsertFormula(s, cell.Addr{Row: 1 + k, Col: workload.NumCols}, text); err != nil {
				b.Fatal(err)
			}
		}
		j2 := cell.Addr{Row: 1, Col: workload.ColStorm}
		var last engine.Result
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := eng.SetCell(s, j2, cell.Num(float64(i%2)))
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		reportSim(b, last.Sim)
	})
}

// Ablation benchmarks: each §6 optimization toggled off against the full
// optimized profile, exercising the design choices DESIGN.md calls out.

func ablatedProfile(disable func(*engine.Optimizations)) engine.Profile {
	p := engine.OptimizedProfile()
	disable(&p.Opt)
	return p
}

func benchAblation(b *testing.B, p engine.Profile, formulas bool, run func(eng *engine.Engine, s *Sheet, i int) error) {
	eng := engine.New(p)
	wb := workload.Weather(workload.Spec{Rows: benchRows, Formulas: formulas, Columnar: p.Opt.ColumnarLayout})
	if err := eng.Install(wb); err != nil {
		b.Fatal(err)
	}
	s := wb.First()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(eng, s, i); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationHashIndexCountif(b *testing.B) {
	text := fmt.Sprintf(`=COUNTIF(B2:B%d,"SD")`, benchRows+1)
	run := func(eng *engine.Engine, s *Sheet, i int) error {
		_, _, err := eng.InsertFormula(s, cell.Addr{Row: 1, Col: workload.NumCols}, text)
		return err
	}
	b.Run("on", func(b *testing.B) {
		benchAblation(b, engine.OptimizedProfile(), false, run)
	})
	b.Run("off", func(b *testing.B) {
		benchAblation(b, ablatedProfile(func(o *engine.Optimizations) {
			o.HashIndex = false
			o.RedundantElimination = false // isolate the index effect
		}), false, run)
	})
}

func BenchmarkAblationIncrementalUpdate(b *testing.B) {
	mk := func(p engine.Profile) func(b *testing.B) {
		return func(b *testing.B) {
			eng := engine.New(p)
			wb := workload.Weather(workload.Spec{Rows: benchRows, Columnar: p.Opt.ColumnarLayout})
			if err := eng.Install(wb); err != nil {
				b.Fatal(err)
			}
			s := wb.First()
			text := fmt.Sprintf(`=COUNTIF(J2:J%d,"1")`, benchRows+1)
			if _, _, err := eng.InsertFormula(s, cell.Addr{Row: 1, Col: workload.NumCols}, text); err != nil {
				b.Fatal(err)
			}
			j2 := cell.Addr{Row: 1, Col: workload.ColStorm}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.SetCell(s, j2, cell.Num(float64(i%2))); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("on", mk(engine.OptimizedProfile()))
	b.Run("off", mk(ablatedProfile(func(o *engine.Optimizations) { o.IncrementalAggregates = false })))
}

func BenchmarkAblationInvertedIndexFind(b *testing.B) {
	run := func(eng *engine.Engine, s *Sheet, i int) error {
		_, _, err := eng.FindReplace(s, "QQABSENT", "X")
		return err
	}
	b.Run("on", func(b *testing.B) {
		benchAblation(b, engine.OptimizedProfile(), false, run)
	})
	b.Run("off", func(b *testing.B) {
		benchAblation(b, ablatedProfile(func(o *engine.Optimizations) { o.InvertedIndex = false }), false, run)
	})
}

func BenchmarkAblationSharedComputation(b *testing.B) {
	const m = 500
	mk := func(p engine.Profile) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng := engine.New(p)
				wb := workload.Weather(workload.Spec{Rows: m, Columnar: p.Opt.ColumnarLayout})
				if err := eng.Install(wb); err != nil {
					b.Fatal(err)
				}
				s := wb.First()
				b.StartTimer()
				for k := 1; k <= m; k++ {
					text := fmt.Sprintf("=SUM(A2:A%d)", k+1)
					at := cell.Addr{Row: k, Col: workload.NumCols}
					if _, _, err := eng.InsertFormula(s, at, text); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
	b.Run("on", mk(engine.OptimizedProfile()))
	b.Run("off", mk(ablatedProfile(func(o *engine.Optimizations) {
		o.SharedComputation = false
		o.RedundantElimination = false
	})))
}

func BenchmarkAblationSortRecalcAnalysis(b *testing.B) {
	mk := func(p engine.Profile) func(b *testing.B) {
		return func(b *testing.B) {
			eng := engine.New(p)
			wb := workload.Weather(workload.Spec{Rows: benchRows, Formulas: true, Columnar: p.Opt.ColumnarLayout})
			if err := eng.Install(wb); err != nil {
				b.Fatal(err)
			}
			s := wb.First()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Sort(s, workload.ColID, i%2 == 0, 1); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("on", mk(engine.OptimizedProfile()))
	b.Run("off", mk(ablatedProfile(func(o *engine.Optimizations) { o.SortRecalcAnalysis = false })))
}

// Substrate micro-benchmarks: the engine hot paths.

func BenchmarkFormulaCompile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := formula.Compile(`=COUNTIF(K2:K10001,1)+SUM(A1:A100)*2`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGridScan(b *testing.B) {
	wb := workload.Weather(workload.Spec{Rows: benchRows})
	s := wb.First()
	b.ReportAllocs()
	b.ResetTimer()
	var sum float64
	for i := 0; i < b.N; i++ {
		for r := 1; r <= benchRows; r++ {
			v := s.Value(cell.Addr{Row: r, Col: workload.ColStorm})
			sum += v.Num
		}
	}
	_ = sum
}

// BenchmarkAnalyzeWorkbook runs the static analyzer (internal/analyze)
// over the 50k-row Formula-value workload — the paper's real-world
// dataset size. The analyzer never evaluates, so its cost should scale
// with the formula count (seven COUNTIFs per row), not with recalc cost;
// b.N iterations over a fixed workbook make regressions in the per-formula
// constant visible.
func BenchmarkAnalyzeWorkbook(b *testing.B) {
	wb := workload.Weather(workload.Spec{Rows: 50_000, Formulas: true, Analysis: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := analyze.Workbook(wb, analyze.Options{})
		if rep.Formulas == 0 || rep.EstRecalcOps == 0 {
			b.Fatal("empty analysis report")
		}
	}
}

// BenchmarkTypecheckWorkbook measures the `sheetcli typecheck` report
// pipeline — the abstract interpreter's topological fixpoint, then the
// kind/error projection's column summaries, certificates and listings —
// on the 50k-row weather workbook. Like the analyzer, it never evaluates a
// formula, so cost should track the formula count.
func BenchmarkTypecheckWorkbook(b *testing.B) {
	wb := workload.Weather(workload.Spec{Rows: 50_000, Formulas: true, Analysis: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := absint.TypecheckWorkbook(wb, absint.TypeReportOptions{})
		if rep.Formulas == 0 || rep.ErrorCells == 0 {
			b.Fatal("empty typecheck report")
		}
	}
}

// BenchmarkAnalyzeScaling pins the O(formulas) claim: doubling the rows
// should roughly double the wall time (compare ns/op across sub-runs).
func BenchmarkAnalyzeScaling(b *testing.B) {
	for _, rows := range []int{10_000, 20_000, 40_000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			wb := workload.Weather(workload.Spec{Rows: rows, Formulas: true, Analysis: true})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rep := analyze.Workbook(wb, analyze.Options{}); rep.Formulas == 0 {
					b.Fatal("empty analysis report")
				}
			}
		})
	}
}

// BenchmarkRegionInference measures fill-region inference (internal/regions)
// over the 50k-row Formula-value workload: 350k formula cells canonicalized
// to R1C1 and coalesced into seven column regions. The srcKey fast path
// makes this O(formulas) with a small constant — the whole point of running
// it on every optimized-engine Install.
func BenchmarkRegionInference(b *testing.B) {
	wb := workload.Weather(workload.Spec{Rows: 50_000, Formulas: true})
	s := wb.First()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr := regions.Infer(s)
		if len(sr.Regions) != 7 {
			b.Fatalf("regions = %d, want 7", len(sr.Regions))
		}
	}
}

// BenchmarkRegionGraphBuild measures building and sequencing the compressed
// region-level dependency graph on top of a fixed inference result. With
// seven regions the graph work is trivially small; what this pins is that
// Build stays proportional to regions x references-per-class, not to the
// 350k formula cells a per-cell graph would walk.
func BenchmarkRegionGraphBuild(b *testing.B) {
	wb := workload.Weather(workload.Spec{Rows: 50_000, Formulas: true})
	sr := regions.Infer(wb.First())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := regions.Build(sr)
		if !g.OK() {
			b.Fatal("formula-only weather sheet must sequence")
		}
	}
}

// BenchmarkInterferenceAnalysis measures the parallel-safety certification
// (internal/interfere) on a fixed inference result for the 50k-row
// Formula-value workload: per-class read footprints, the region-pair
// interference relation, and the staged leveling. Like Build, the cost must
// scale with regions and classes, never with the 350k formula cells — the
// certificate is re-derived on every formula-set edit, so this is an
// editing-latency path, not a one-time install cost.
func BenchmarkInterferenceAnalysis(b *testing.B) {
	wb := workload.Weather(workload.Spec{Rows: 50_000, Formulas: true})
	sr := regions.Infer(wb.First())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cert := interfere.Analyze(sr)
		if !cert.OK || cert.StageCount() != 1 {
			b.Fatalf("cert: OK=%v stages=%d, want one certified stage", cert.OK, cert.StageCount())
		}
	}
}

// BenchmarkAbsintWorkbook measures the abstract interpreter's full
// pipeline — topological fixpoint over the interval/kind/error lattice,
// constant folding through the concrete mirror, certificate distillation —
// on the 50k-row weather workbook. It never evaluates a formula; the
// optimized engine pays exactly this once per Install when ValueCerts is
// on.
func BenchmarkAbsintWorkbook(b *testing.B) {
	wb := workload.Weather(workload.Spec{Rows: 50_000, Formulas: true, Analysis: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range wb.Sheets() {
			cert := absint.InferSheet(s).Certify()
			if cert.Formulas == 0 || len(cert.Columns) == 0 {
				b.Fatal("empty certificate set")
			}
		}
	}
}

// certifiedLookupWorkbook builds the certified-lookup benchmark sheet: an
// ascending numeric key column of n rows plus a block of exact MATCHes
// over it, half of them guaranteed misses (an exact miss defeats the
// early-exit scan, so the naive cost is the full column).
func certifiedLookupWorkbook(b *testing.B, rows, lookups int) *sheet.Workbook {
	b.Helper()
	s := sheet.New("lookup", rows+lookups, 4)
	for r := 0; r < rows; r++ {
		s.SetValue(cell.Addr{Row: r, Col: 0}, cell.Num(float64(r*2)))
	}
	for i := 0; i < lookups; i++ {
		key := (i * 61 * 2) % (rows * 2)
		if i%2 == 1 {
			key++ // odd: between stored even keys, a guaranteed miss
		}
		text := fmt.Sprintf("=MATCH(%d,A1:A%d,0)", key, rows)
		c, err := formula.Compile(text)
		if err != nil {
			b.Fatal(err)
		}
		s.SetFormula(cell.Addr{Row: rows + i, Col: 2}, c)
	}
	wb := sheet.NewWorkbook()
	if err := wb.Add(s); err != nil {
		b.Fatal(err)
	}
	return wb
}

// BenchmarkCertifiedLookupMatch pins the tentpole speedup of the value
// analysis: recalculating exact MATCHes over an ascending key column. The
// excel profile scans linearly (early exit on hits, full column on
// misses); the optimized profile holds an ascending certificate
// (internal/absint) and binary-searches. The gap must grow with the
// column: ~n/log2(n) per miss.
func BenchmarkCertifiedLookupMatch(b *testing.B) {
	const lookups = 32
	for _, rows := range []int{50_000, 200_000, 500_000} {
		for _, sys := range []string{"excel", "optimized"} {
			b.Run(fmt.Sprintf("rows=%d/%s", rows, sys), func(b *testing.B) {
				eng := engine.New(engine.Profiles()[sys])
				wb := certifiedLookupWorkbook(b, rows, lookups)
				if err := eng.Install(wb); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.Recalculate(wb.First()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPlanSelection measures the cost-based planner itself: statistics
// collection, candidate pricing, and strategy selection over each workload
// family (internal/plan). This is the latency the planned profile pays on
// the first operation after a plan-invalidating change, so it must stay
// far below the recalculation work it optimizes.
func BenchmarkPlanSelection(b *testing.B) {
	for _, gen := range workload.Generators() {
		b.Run(gen.Name, func(b *testing.B) {
			wb := gen.Build(workload.Spec{Rows: benchRows, Formulas: true})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := plan.Build(wb, plan.Options{})
				if len(p.Sheets) == 0 {
					b.Fatal("empty plan")
				}
			}
		})
	}
}

// BenchmarkPlanRebuildAfterEdit measures the rebuild the planned profile
// pays after a value edit: a warm plan cache keyed by column and formula-set
// versions, one edit to a column the plan consults, and a rebuild that
// recollects only that column's statistics (weather, 10k rows, with the
// analysis block's COUNTIF and lookup sites).
func BenchmarkPlanRebuildAfterEdit(b *testing.B) {
	wb := workload.Weather(workload.Spec{Rows: benchRows, Formulas: true, Analysis: true})
	s := wb.First()
	colVer := make(map[int]int64)
	opt := plan.Options{
		Cache:          plan.NewCache(),
		ColVersion:     func(_ string, col int) int64 { return colVer[col] },
		FormulaVersion: func(string) int64 { return 0 },
	}
	stats := plan.Build(wb, opt).StatColumns()
	if len(stats) == 0 {
		b.Fatal("plan consults no column statistics")
	}
	col := stats[0].Col
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SetValue(cell.Addr{Row: 1 + i%(benchRows-1), Col: col}, cell.Num(float64(i)))
		colVer[col]++
		if p := plan.Build(wb, opt); p.Derivation().StatsCollected != 1 {
			b.Fatalf("rebuild derivation %+v, want one column recollected", p.Derivation())
		}
	}
}

// BenchmarkRowEditPair times one row insert plus one row delete on
// 2,000-row weather under the optimized profile, after a warm-up pair. Fill
// groups survive the edits on one shared formula each, and the formulas
// that ride the edits are neither re-evaluated nor re-registered in a
// per-cell graph, so the allocation count is the tripwire for lost sharing,
// an eager graph rebuild or a full recomputation: each allocates several
// times as much.
func BenchmarkRowEditPair(b *testing.B) {
	const rows = 2000
	eng := engine.New(engine.OptimizedProfile())
	wb := workload.Weather(workload.Spec{Rows: rows, Formulas: true})
	if err := eng.Install(wb); err != nil {
		b.Fatal(err)
	}
	s := wb.First()
	pair := func(i int) {
		at := 1 + (i*97)%(rows-10)
		if _, err := eng.InsertRows(s, at, 1); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.DeleteRows(s, at+5, 1); err != nil {
			b.Fatal(err)
		}
	}
	pair(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pair(i + 1)
	}
}

// BenchmarkSortPair times one sort of 2,000-row weather by state (B) and
// one back by id (A) under the optimized profile, after a warm-up pair. The
// formulas are row-local, so the necessity analysis re-evaluates none of
// them and the per-cell graph is never rebuilt: the allocation count is
// the tripwire for a return to either.
func BenchmarkSortPair(b *testing.B) {
	const rows = 2000
	eng := engine.New(engine.OptimizedProfile())
	wb := workload.Weather(workload.Spec{Rows: rows, Formulas: true})
	if err := eng.Install(wb); err != nil {
		b.Fatal(err)
	}
	s := wb.First()
	pair := func() {
		if _, err := eng.Sort(s, workload.ColState, true, 1); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Sort(s, workload.ColID, true, 1); err != nil {
			b.Fatal(err)
		}
	}
	pair()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pair()
	}
}

// BenchmarkCrossSheetEdit is one ledger amount edit on the optimized
// profile: the cross-sheet settle re-evaluates only the summary's readers
// of the edited column, so its allocations are the tripwire for a return
// to re-evaluating every cross-sheet formula of the workbook.
func BenchmarkCrossSheetEdit(b *testing.B) {
	const rows = 2000
	eng := engine.New(engine.OptimizedProfile())
	wb := workload.Ledger(workload.Spec{Rows: rows, Formulas: true})
	if err := eng.Install(wb); err != nil {
		b.Fatal(err)
	}
	s := wb.Sheet("ledger")
	edit := func(i int) {
		at := cell.Addr{Row: 1 + (i*97)%rows, Col: workload.LedgerColAmount}
		if _, err := eng.SetCell(s, at, cell.Num(float64(1+i%500))); err != nil {
			b.Fatal(err)
		}
	}
	edit(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edit(i + 1)
	}
}

// BenchmarkCrossSheetLookupEdit is one accounts budget edit on a 2,000-row
// ledger, optimized profile: every ledger VLOOKUP reads the edited table,
// so the settle re-evaluates that whole reader group, then the ledger
// cells whose values changed and their dependents.
func BenchmarkCrossSheetLookupEdit(b *testing.B) {
	const rows = 2000
	eng := engine.New(engine.OptimizedProfile())
	wb := workload.Ledger(workload.Spec{Rows: rows, Formulas: true})
	if err := eng.Install(wb); err != nil {
		b.Fatal(err)
	}
	s := wb.Sheet("accounts")
	edit := func(i int) {
		at := cell.Addr{Row: 1 + i%len(workload.LedgerAccounts), Col: 2}
		if _, err := eng.SetCell(s, at, cell.Num(float64(100*(1+i%30)))); err != nil {
			b.Fatal(err)
		}
	}
	edit(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edit(i + 1)
	}
}

// BenchmarkPlannerVsFixed is the plan-quality series: steady-state
// recalculation under the planned profile against both fixed strategies
// (always-index optimized, scan-only). The planned series must track the
// better fixed strategy per workload; the EXPERIMENTS.md plan-quality
// table is the full matrix, this benchmark is its perf-trajectory record.
func BenchmarkPlannerVsFixed(b *testing.B) {
	scan := engine.OptimizedProfile()
	scan.Name = "scan-only"
	scan.Opt = engine.Optimizations{}
	profiles := []engine.Profile{engine.PlannedProfile(), engine.OptimizedProfile(), scan}
	for _, gen := range workload.Generators() {
		for _, prof := range profiles {
			b.Run(gen.Name+"/"+prof.Name, func(b *testing.B) {
				wb := gen.Build(workload.Spec{Rows: benchRows, Formulas: true})
				eng := engine.New(prof)
				if err := eng.Install(wb); err != nil {
					b.Fatal(err)
				}
				main := wb.First()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.Recalculate(main); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
