package engine

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/cell"
	"repro/internal/iolib"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sheet"
	"repro/internal/workload"
)

// checkPlanCoherent holds the engine's plan to a cold plan.Build of the
// same workbook (fresh cache, no versions). SettledPlan re-validates across
// the once-per-operation guard, so a plan the operation's own writes
// retired is rebuilt here rather than hidden.
func checkPlanCoherent(t *testing.T, e *Engine, step string) *plan.Plan {
	t.Helper()
	got := e.SettledPlan()
	want := plan.Build(e.Workbook(), plan.Options{Coeff: e.prof.Coeff})
	if d := plan.Diff(got, want); d != "" {
		t.Fatalf("after %s: engine plan differs from a cold build: %s", step, d)
	}
	return got
}

// oracleOp is one step of the plan-coherence op stream.
type oracleOp struct {
	name string
	run  func(e *Engine) error
}

// planOracleOps is an op stream over every mutation kind the planner's
// invalidation keys must track: value edits to every column the plan
// consults, formula inserts (including one that leaves the cell's value
// unchanged), formula overwrites, a write that grows the sheet, sorts, row inserts and deletes, paste,
// find-replace, filters, a pivot with formulas and edits on the new sheet,
// and a recalculation.
func planOracleOps(e *Engine) []oracleOp {
	wb := e.Workbook()
	s := wb.First()
	numCol, txtCol := -1, -1
	for c := 0; c < s.Cols(); c++ {
		a := cell.Addr{Row: 1, Col: c}
		if _, isF := s.Formula(a); isF {
			continue
		}
		switch s.Value(a).Kind {
		case cell.Number:
			if numCol < 0 {
				numCol = c
			}
		case cell.Text:
			if txtCol < 0 {
				txtCol = c
			}
		}
	}
	col := cell.ColName(numCol)
	scratch := s.Cols() + 1
	last := func() int { return s.Rows() }
	var ops []oracleOp
	for _, sc := range e.SettledPlan().StatColumns() {
		sc := sc
		ops = append(ops, oracleOp{fmt.Sprintf("edit %s col %d", sc.Sheet, sc.Col), func(e *Engine) error {
			_, err := e.SetCell(wb.Sheet(sc.Sheet), cell.Addr{Row: 2, Col: sc.Col}, cell.Num(7))
			return err
		}})
	}
	var pivot *sheet.Sheet
	ops = append(ops,
		oracleOp{"edit unconsulted column", func(e *Engine) error {
			_, err := e.SetCell(s, cell.Addr{Row: 3, Col: numCol}, cell.Num(11))
			return err
		}},
		oracleOp{"insert COUNTIF", func(e *Engine) error {
			_, _, err := e.InsertFormula(s, cell.Addr{Row: 1, Col: scratch}, fmt.Sprintf("=COUNTIF(%s2:%s%d,5)", col, col, last()))
			return err
		}},
		oracleOp{"insert exact MATCH", func(e *Engine) error {
			_, _, err := e.InsertFormula(s, cell.Addr{Row: 2, Col: scratch}, fmt.Sprintf("=MATCH(7,%s2:%s%d,0)", col, col, last()))
			return err
		}},
		oracleOp{"edit counted column", func(e *Engine) error {
			_, err := e.SetCell(s, cell.Addr{Row: 5, Col: numCol}, cell.Num(5))
			return err
		}},
		// The formula evaluates to the value already in the cell, so no
		// column version moves; the formula-set version must.
		oracleOp{"insert value-preserving formula", func(e *Engine) error {
			_, _, err := e.InsertFormula(s, cell.Addr{Row: 5, Col: numCol}, "=5")
			return err
		}},
		oracleOp{"overwrite formula", func(e *Engine) error {
			_, err := e.SetCell(s, cell.Addr{Row: 5, Col: numCol}, cell.Num(6))
			return err
		}},
		// The write lands in a column no site consults, so only the sheet's
		// dimensions change.
		oracleOp{"grow sheet", func(e *Engine) error {
			_, err := e.SetCell(s, cell.Addr{Row: s.Rows() + 2, Col: scratch + 2}, cell.Num(3))
			return err
		}},
		oracleOp{"insert AVERAGE beside SUM", func(e *Engine) error {
			if _, _, err := e.InsertFormula(s, cell.Addr{Row: 3, Col: scratch}, fmt.Sprintf("=SUM(%s2:%s%d)", col, col, last())); err != nil {
				return err
			}
			_, _, err := e.InsertFormula(s, cell.Addr{Row: 4, Col: scratch}, fmt.Sprintf("=AVERAGE(%s2:%s%d)", col, col, last()))
			return err
		}},
		oracleOp{"sort ascending", func(e *Engine) error {
			_, err := e.Sort(s, numCol, true, 1)
			return err
		}},
		oracleOp{"sort descending", func(e *Engine) error {
			_, err := e.Sort(s, numCol, false, 1)
			return err
		}},
		oracleOp{"insert rows", func(e *Engine) error {
			_, err := e.InsertRows(s, 3, 2)
			return err
		}},
		oracleOp{"delete rows", func(e *Engine) error {
			_, err := e.DeleteRows(s, 4, 1)
			return err
		}},
		oracleOp{"paste", func(e *Engine) error {
			src := cell.RangeOf(cell.Addr{Row: 2, Col: 0}, cell.Addr{Row: 4, Col: s.Cols() - 1})
			_, _, err := e.CopyPaste(s, src, cell.Addr{Row: 9, Col: 0})
			return err
		}},
		oracleOp{"find-replace", func(e *Engine) error {
			if txtCol < 0 {
				return nil
			}
			tok := s.Value(cell.Addr{Row: 6, Col: txtCol}).AsString()
			_, _, err := e.FindReplace(s, tok, tok+"x")
			return err
		}},
		oracleOp{"filter", func(e *Engine) error {
			if txtCol < 0 {
				return nil
			}
			_, _, err := e.Filter(s, txtCol, s.Value(cell.Addr{Row: 2, Col: txtCol}), 1)
			return err
		}},
		oracleOp{"clear filter", func(e *Engine) error {
			e.ClearFilter(s)
			return nil
		}},
		oracleOp{"pivot", func(e *Engine) error {
			dim := txtCol
			if dim < 0 {
				dim = numCol
			}
			var err error
			pivot, _, err = e.PivotTable(s, dim, numCol, 1)
			return err
		}},
		oracleOp{"insert COUNTIF on pivot sheet", func(e *Engine) error {
			_, _, err := e.InsertFormula(pivot, cell.Addr{Row: 1, Col: 3}, fmt.Sprintf("=COUNTIF(B2:B%d,0)", pivot.Rows()))
			return err
		}},
		oracleOp{"edit pivot sheet", func(e *Engine) error {
			// A pivot sheet has no optimization state, hence no column
			// versions; the text changes its numeric count.
			_, err := e.SetCell(pivot, cell.Addr{Row: 1, Col: 1}, cell.Str("x"))
			return err
		}},
		oracleOp{"recalculate", func(e *Engine) error {
			_, err := e.Recalculate(s)
			return err
		}},
	)
	return ops
}

// TestPlanCoherenceOracle: after every op of a planned op stream, on every
// registry workload, the engine's incrementally rebuilt plan equals a cold
// plan.Build — choices, statistics and predictions alike.
func TestPlanCoherenceOracle(t *testing.T) {
	for _, gen := range workload.Generators() {
		gen := gen
		t.Run(gen.Name, func(t *testing.T) {
			wb := gen.Build(workload.Spec{Rows: 120, Formulas: true, Seed: 3, Analysis: true})
			e := New(PlannedProfile())
			if err := e.Install(wb); err != nil {
				t.Fatal(err)
			}
			checkPlanCoherent(t, e, "install")
			for i, op := range planOracleOps(e) {
				if err := op.run(e); err != nil {
					t.Fatalf("op %d (%s): %v", i, op.name, err)
				}
				checkPlanCoherent(t, e, fmt.Sprintf("op %d (%s)", i, op.name))
			}
		})
	}
}

// TestPlanRebuildReusesFormulaAnalyses pins what a rebuild re-derives: a
// value edit to a consulted column recollects that column's statistics
// and nothing formula-derived, while a formula insert re-derives the
// edited sheet's site inventory and recalc facts.
func TestPlanRebuildReusesFormulaAnalyses(t *testing.T) {
	wb := workload.Weather(workload.Spec{Rows: 200, Formulas: true, Analysis: true})
	e := New(PlannedProfile())
	if err := e.Install(wb); err != nil {
		t.Fatal(err)
	}
	s := wb.First()
	if d := e.Plan().Derivation(); d.SitesBuilt != 1 || d.RecalcBuilt != 1 {
		t.Fatalf("first build derivation = %+v, want sites and recalc built", d)
	}
	// Column B (1) carries the analysis block's COUNTIF site.
	if _, err := e.SetCell(s, cell.Addr{Row: 5, Col: 1}, cell.Str("x")); err != nil {
		t.Fatal(err)
	}
	d := e.Plan().Derivation()
	if d.SitesBuilt != 0 || d.RecalcBuilt != 0 || d.SitesReused != 1 || d.RecalcReused != 1 {
		t.Errorf("value edit re-derived formula analyses: %+v", d)
	}
	if d.StatsCollected != 1 {
		t.Errorf("value edit recollected %d columns, want 1 (%+v)", d.StatsCollected, d)
	}
	if _, _, err := e.InsertFormula(s, cell.Addr{Row: 1, Col: 20}, "=SUM(J2:J200)"); err != nil {
		t.Fatal(err)
	}
	if d := e.Plan().Derivation(); d.SitesBuilt != 1 || d.RecalcBuilt != 1 {
		t.Errorf("formula insert reused formula analyses: %+v", d)
	}
	checkPlanCoherent(t, e, "formula insert")
}

// TestOpenResetsPlan: Open replaces the workbook, so the plan and its
// cache built over the previous one must not survive it.
func TestOpenResetsPlan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "weather.svf")
	if err := iolib.SaveWorkbook(path, workload.Weather(workload.Spec{Rows: 200, Formulas: true})); err != nil {
		t.Fatal(err)
	}
	e := New(PlannedProfile())
	if err := e.Install(workload.Weather(workload.Spec{Rows: 200})); err != nil {
		t.Fatal(err)
	}
	if n := len(e.Plan().Choices()); n != 0 {
		t.Fatalf("value-only workbook planned %d choices, want 0", n)
	}
	old := e.Workbook().First()
	if _, err := e.Open(path); err != nil {
		t.Fatal(err)
	}
	if _, kept := e.sheets[old]; kept {
		t.Error("Open kept derived state of the previous workbook")
	}
	got := e.Plan()
	if n := len(got.Choices()); n != 1 {
		t.Errorf("plan after Open has %d choices, want 1 (the recalc choice)", n)
	}
	checkPlanCoherent(t, e, "open")
}

// TestPlanTracksAddedSheets: a sheet added after the plan was built (a
// pivot) must invalidate it, so formulas inserted there get planned.
func TestPlanTracksAddedSheets(t *testing.T) {
	wb := workload.Weather(workload.Spec{Rows: 200, Formulas: true})
	e := New(PlannedProfile())
	if err := e.Install(wb); err != nil {
		t.Fatal(err)
	}
	s := wb.First()
	if n := len(e.Plan().Choices()); n != 1 {
		t.Fatalf("install plan has %d choices, want 1", n)
	}
	ps, _, err := e.PivotTable(s, 1, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.InsertFormula(ps, cell.Addr{Row: 1, Col: 3}, fmt.Sprintf("=COUNTIF(B2:B%d,0)", ps.Rows())); err != nil {
		t.Fatal(err)
	}
	if n := len(e.Plan().Choices()); n != 4 {
		t.Errorf("plan after pivot + COUNTIF has %d choices, want 4", n)
	}
	checkPlanCoherent(t, e, "pivot + COUNTIF")
}

// TestPivotSheetGetsOptState: a sheet a pivot adds gets optimization state
// on first use, so under optimized a COUNTIF inserted there is served by an
// index (engine_fast_eval_hits), and under planned, which prices one use on
// a small sheet as a scan, the plan resting on the sheet's statistics
// survives a later unrelated operation. Both answer as excel does.
func TestPivotSheetGetsOptState(t *testing.T) {
	withEngineTracing(t)
	var want cell.Value
	for _, name := range []string{"excel", "optimized", "planned"} {
		wb := workload.Weather(workload.Spec{Rows: 200, Formulas: true})
		e := New(Profiles()[name])
		if err := e.Install(wb); err != nil {
			t.Fatal(err)
		}
		s := wb.First()
		ps, _, err := e.PivotTable(s, 1, 9, 1)
		if err != nil {
			t.Fatal(err)
		}
		hits := e.met.fastEvalHits.Value()
		got, _, err := e.InsertFormula(ps, cell.Addr{Row: 1, Col: 3}, fmt.Sprintf("=COUNTIF(B2:B%d,0)", ps.Rows()))
		if err != nil {
			t.Fatal(err)
		}
		if name == "excel" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("%s: COUNTIF on the pivot sheet = %v, excel %v", name, got, want)
		}
		if name == "optimized" {
			if n := e.met.fastEvalHits.Value() - hits; n != 1 {
				t.Errorf("COUNTIF on the pivot sheet took %d fast paths, want 1", n)
			}
			continue
		}
		p, builds := e.Plan(), e.met.planBuilds.Value()
		if _, err := e.Recalculate(s); err != nil {
			t.Fatal(err)
		}
		if e.Plan() != p || e.met.planBuilds.Value() != builds {
			t.Errorf("an unrelated recalculation rebuilt the plan (%d builds, want %d)", e.met.planBuilds.Value(), builds)
		}
	}
}

// TestPlanReuseObservable: the engine.plan_build span says which inputs a
// rebuild reused, and engine_plan_reuse counts hits and builds per part.
func TestPlanReuseObservable(t *testing.T) {
	withEngineTracing(t)
	wb := workload.Weather(workload.Spec{Rows: 200, Formulas: true, Analysis: true})
	e := New(PlannedProfile())
	if err := e.Install(wb); err != nil {
		t.Fatal(err)
	}
	s := wb.First()
	// An exact MATCH over the formula-free column A asks a sortedness
	// question, answered from stored values.
	if _, _, err := e.InsertFormula(s, cell.Addr{Row: 1, Col: 20}, "=MATCH(5,A2:A200,0)"); err != nil {
		t.Fatal(err)
	}
	before := e.SettledPlan()
	obs.Reset()
	obs.Default.ResetValues()

	if _, err := e.SetCell(s, cell.Addr{Row: 5, Col: 1}, cell.Str("x")); err != nil {
		t.Fatal(err)
	}
	// The edit's own consults rebuild the plan inside the edit, traced or
	// not: the drift monitor's pre-edit read must not pin the old plan.
	if e.Plan() == before {
		t.Error("right after an edit to a consulted column, Plan() is still the pre-edit plan")
	}
	e.SettledPlan()

	var builds []map[string]string
	obs.Take().Walk(func(sp *obs.TraceSpan, _ int) {
		if sp.Name != "engine.plan_build" {
			return
		}
		attrs := make(map[string]string)
		for _, a := range sp.Attrs {
			if a.IsStr {
				attrs[a.Key] = a.Str
			} else {
				attrs[a.Key] = fmt.Sprint(a.Int)
			}
		}
		builds = append(builds, attrs)
	})
	if len(builds) != 1 {
		t.Fatalf("%d engine.plan_build spans after one value edit, want 1: %v", len(builds), builds)
	}
	for k, v := range map[string]string{"sites": "cache", "recalc": "cache", "cert": "value", "stats_collected": "1"} {
		if builds[0][k] != v {
			t.Errorf("plan build span %s=%q, want %q (%v)", k, builds[0][k], v, builds[0])
		}
	}

	counts := make(map[string]int64)
	for _, c := range obs.Default.Snapshot().Counters {
		if c.Name == "engine_plan_reuse" {
			counts[c.Label] = c.Value
		}
	}
	for label, n := range map[string]int64{
		"planned/sites/hit": 1, "planned/sites/build": 0,
		"planned/recalc/hit": 1, "planned/recalc/build": 0,
		"planned/stats/hit": 1, "planned/stats/build": 1,
	} {
		if counts[label] != n {
			t.Errorf("engine_plan_reuse{%s} = %d, want %d", label, counts[label], n)
		}
	}
}
