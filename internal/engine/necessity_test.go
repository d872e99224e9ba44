package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cell"
	"repro/internal/costmodel"
	"repro/internal/formula"
	"repro/internal/obs"
	"repro/internal/sheet"
	"repro/internal/workload"
)

// necessityCase is one workbook shape the structural-edit necessity
// analysis must get right, with the edits applied to its first sheet.
type necessityCase struct {
	name  string
	build func() *sheet.Workbook
	edits []func(e *Engine, s *sheet.Sheet) error
}

// numberedSheet returns a sheet whose columns A..D hold distinct numbers.
func numberedSheet(name string, rows, cols int) *sheet.Sheet {
	s := sheet.New(name, rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < 4 && c < cols; c++ {
			s.SetValue(cell.Addr{Row: r, Col: c}, cell.Num(float64(r*4+c+1)))
		}
	}
	return s
}

// fillRange attaches one shared formula to every cell of the range, with
// its text authored at the range's top-left corner.
func fillRange(s *sheet.Sheet, rng cell.Range, text string) {
	fc := sheet.Formula{Code: formula.MustCompile(text), Origin: rng.Start}
	for r := rng.Start.Row; r <= rng.End.Row; r++ {
		for c := rng.Start.Col; c <= rng.End.Col; c++ {
			s.AttachFormula(cell.Addr{Row: r, Col: c}, fc)
		}
	}
}

func workbookOf(sheets ...*sheet.Sheet) *sheet.Workbook {
	wb := sheet.NewWorkbook()
	for _, s := range sheets {
		if err := wb.Add(s); err != nil {
			panic(err)
		}
	}
	return wb
}

func rowEdit(at, n int) func(e *Engine, s *sheet.Sheet) error {
	return func(e *Engine, s *sheet.Sheet) error {
		var err error
		if n > 0 {
			_, err = e.InsertRows(s, at, n)
		} else {
			_, err = e.DeleteRows(s, at, -n)
		}
		return err
	}
}

func colEdit(at, n int) func(e *Engine, s *sheet.Sheet) error {
	return func(e *Engine, s *sheet.Sheet) error {
		var err error
		if n > 0 {
			_, err = e.InsertCols(s, at, n)
		} else {
			_, err = e.DeleteCols(s, at, -n)
		}
		return err
	}
}

func sortBy(col int, ascending bool) func(e *Engine, s *sheet.Sheet) error {
	return func(e *Engine, s *sheet.Sheet) error {
		_, err := e.Sort(s, col, ascending, 1)
		return err
	}
}

var necessityCases = []necessityCase{
	{
		// G holds running sums =SUM(D$2:Dr): below a deleted or inserted
		// row every one rides the edit, yet its range changes size.
		name: "running-sum",
		build: func() *sheet.Workbook {
			s := numberedSheet("main", 20, 8)
			fillRange(s, cell.RangeOf(a("G2"), a("G20")), "=SUM(D$2:D2)")
			return workbookOf(s)
		},
		edits: []func(e *Engine, s *sheet.Sheet) error{rowEdit(6, -1), rowEdit(3, 2), rowEdit(10, -3)},
	},
	{
		// The column-axis twin: row 6 holds =SUM($A2:A2) across B..H.
		name: "running-sum-cols",
		build: func() *sheet.Workbook {
			s := sheet.New("main", 8, 10)
			for r := 0; r < 4; r++ {
				for c := 0; c < 10; c++ {
					s.SetValue(cell.Addr{Row: r, Col: c}, cell.Num(float64(r*10+c+1)))
				}
			}
			fillRange(s, cell.RangeOf(a("A6"), a("H6")), "=SUM($A2:A2)")
			return workbookOf(s)
		},
		edits: []func(e *Engine, s *sheet.Sheet) error{colEdit(3, -1), colEdit(2, 2), colEdit(5, -2)},
	},
	{
		// A second sheet reads the edited one; the edit moves what its
		// references point at.
		name: "cross-sheet-reader",
		build: func() *sheet.Workbook {
			s := numberedSheet("main", 20, 6)
			fillRange(s, cell.RangeOf(a("F2"), a("F20")), "=A2+B2")
			other := sheet.New("other", 4, 2)
			other.SetFormula(a("A1"), formula.MustCompile("=main!A5"))
			other.SetFormula(a("A2"), formula.MustCompile("=SUM(main!F2:F10)"))
			other.SetFormula(a("B1"), formula.MustCompile("=A1*2"))
			return workbookOf(s, other)
		},
		edits: []func(e *Engine, s *sheet.Sheet) error{rowEdit(2, 3), rowEdit(1, -2), rowEdit(8, -1)},
	},
	{
		// A volatile cell and its reader ride every edit, yet NOW moves
		// between edits.
		name: "volatile",
		build: func() *sheet.Workbook {
			s := numberedSheet("main", 20, 6)
			fillRange(s, cell.RangeOf(a("F2"), a("F20")), "=A2*2")
			s.SetFormula(a("E15"), formula.MustCompile("=NOW()"))
			s.SetFormula(a("E16"), formula.MustCompile("=E15+A16"))
			return workbookOf(s)
		},
		edits: []func(e *Engine, s *sheet.Sheet) error{rowEdit(3, 1), rowEdit(4, -2), rowEdit(17, 1)},
	},
	{
		// Sorting by A swaps rows 2 and 5, which closes the cycle
		// E5 -> F5 -> G5 -> E5 through the row-local F5: every cell on it
		// must show #CYCLE!, and the next sort opens it again.
		name: "sort-closes-cycle",
		build: func() *sheet.Workbook {
			s := sheet.New("main", 5, 7)
			for r := 1; r < 5; r++ {
				s.SetValue(cell.Addr{Row: r, Col: 0}, cell.Num(float64(10-r)))
			}
			fillRange(s, cell.RangeOf(a("F2"), a("F5")), "=G2")
			s.SetFormula(a("E2"), formula.MustCompile("=F$5"))
			s.SetFormula(a("G2"), formula.MustCompile("=E$5+1"))
			return workbookOf(s)
		},
		edits: []func(e *Engine, s *sheet.Sheet) error{sortBy(0, true), sortBy(0, false)},
	},
}

// TestStructEditNecessity: on optimized and planned, where a structural
// edit re-evaluates only the formulas it can change, every value after
// every edit equals excel's, which recomputes every formula, and a fresh
// evaluation of the saved workbook; the derived state stays coherent.
func TestStructEditNecessity(t *testing.T) {
	for _, c := range necessityCases {
		t.Run(c.name, func(t *testing.T) {
			day := 0
			now := func() time.Time { return time.Date(2020, 1, 1+day, 0, 0, 0, 0, time.UTC) }
			engines := make(map[string]*Engine)
			for _, p := range []string{"excel", "optimized", "planned"} {
				e := New(Profiles()[p])
				e.SetNow(now)
				if err := e.Install(c.build()); err != nil {
					t.Fatal(err)
				}
				engines[p] = e
			}
			base := engines["excel"].Workbook()
			for i, edit := range c.edits {
				day++
				for _, p := range []string{"excel", "optimized", "planned"} {
					e := engines[p]
					if err := edit(e, e.Workbook().First()); err != nil {
						t.Fatalf("%s edit %d: %v", p, i, err)
					}
				}
				where := fmt.Sprintf("edit %d", i)
				if len(base.First().VolatileCells()) == 0 { // a fresh install reads the real clock
					checkFreshValues(t, where, base)
				}
				for _, p := range []string{"optimized", "planned"} {
					e := engines[p]
					if err := sameValues(e.Workbook(), base); err != nil {
						t.Fatalf("%s %s: %v", p, where, err)
					}
					if err := checkDerived(e); err != nil {
						t.Fatalf("%s %s: %v", p, where, err)
					}
				}
			}
		})
	}
}

// sameValues compares every cell of two workbooks of the same shape.
func sameValues(got, want *sheet.Workbook) error {
	for _, ws := range want.Sheets() {
		gs := got.Sheet(ws.Name)
		for r := 0; r < ws.Rows(); r++ {
			for c := 0; c < ws.Cols(); c++ {
				at := cell.Addr{Row: r, Col: c}
				if g, w := gs.Value(at), ws.Value(at); g != w {
					return fmt.Errorf("%s!%s = %+v, excel %+v", ws.Name, at.A1(), g, w)
				}
			}
		}
	}
	return nil
}

// meterText renders a meter's nonzero counts.
func meterText(m costmodel.Meter) string {
	var b strings.Builder
	for k := costmodel.Metric(0); int(k) < costmodel.NumMetrics; k++ {
		if n := m.Count(k); n != 0 {
			fmt.Fprintf(&b, "%s=%d ", k, n)
		}
	}
	return strings.TrimSpace(b.String())
}

// TestRowMovesBuildNoGraph: on acyclic 2k-row weather, a row insert, a row
// delete and a sort under optimized build no per-cell dependency graph and
// evaluate only the formulas the move can change, while excel's meters for
// the same operations stay what they were when every profile rebuilt the
// graph eagerly (pinned below).
func TestRowMovesBuildNoGraph(t *testing.T) {
	ops := []struct {
		name  string
		run   func(e *Engine, s *sheet.Sheet) (Result, error)
		excel string
	}{
		{"insert", func(e *Engine, s *sheet.Sheet) (Result, error) { return e.InsertRows(s, 700, 2) },
			"cell_touch=14000 cell_write=14034 formula_eval=14000 ref_resolve=14000 compare=14000 dep_op=252000 formula_compile=14000"},
		{"delete", func(e *Engine, s *sheet.Sheet) (Result, error) { return e.DeleteRows(s, 1200, 1) },
			"cell_touch=13993 cell_write=14017 formula_eval=13993 ref_resolve=13993 compare=13993 dep_op=251874 formula_compile=14000"},
		{"sort", func(e *Engine, s *sheet.Sheet) (Result, error) { return e.Sort(s, workload.ColState, true, 1) },
			"cell_touch=15994 cell_write=34034 formula_eval=13993 ref_resolve=13993 compare=37954 dep_op=251874"},
	}
	withEngineTracing(t)
	builds := obs.Default.Counter("engine_graph_builds", "optimized")
	excel, se := newTestEngine(t, "excel", 2000, true)
	opt, so := newTestEngine(t, "optimized", 2000, true)
	for _, op := range ops {
		res, err := op.run(excel, se)
		if err != nil {
			t.Fatal(err)
		}
		if got := meterText(res.Work); got != op.excel {
			t.Errorf("excel %s meters:\n got %s\nwant %s", op.name, got, op.excel)
		}
		before := builds.Value()
		if res, err = op.run(opt, so); err != nil {
			t.Fatal(err)
		}
		if n := builds.Value() - before; n != 0 {
			t.Errorf("optimized %s built the per-cell graph %d times", op.name, n)
		}
		if n := res.Work.Count(costmodel.FormulaEval); n > 10 {
			t.Errorf("optimized %s evaluated %d formulas of %d", op.name, n, so.FormulaCount())
		}
		if err := sameValues(opt.Workbook(), excel.Workbook()); err != nil {
			t.Fatalf("after %s: %v", op.name, err)
		}
	}
	if opt.state(so).g != nil {
		t.Error("optimized holds a per-cell graph after the row moves")
	}
}

// TestInsertSettlesDependents: a formula written over a cell another
// formula reads brings that reader up to date at once, and the settled
// value survives a later row insert above both cells.
func TestInsertSettlesDependents(t *testing.T) {
	for _, p := range []string{"excel", "optimized", "planned"} {
		e := New(Profiles()[p])
		s := sheet.New("s", 6, 3)
		if err := e.Install(workbookOf(s)); err != nil {
			t.Fatal(err)
		}
		mustInsert(t, e, s, "B1", "=A1*2")
		mustInsert(t, e, s, "A1", "=5")
		if got := s.Value(a("B1")); got != cell.Num(10) {
			t.Errorf("%s: B1 = %+v after inserting =5 at A1, want 10", p, got)
		}
		if _, err := e.InsertRows(s, 0, 1); err != nil {
			t.Fatal(err)
		}
		if got := s.Value(a("B2")); got != cell.Num(10) {
			t.Errorf("%s: B2 = %+v after a row insert above, want 10", p, got)
		}
		if _, err := e.InsertFormulaBatch(s, []BatchItem{{At: a("A2"), Text: "=7"}}); err != nil {
			t.Fatal(err)
		}
		if got := s.Value(a("B2")); got != cell.Num(14) {
			t.Errorf("%s: B2 = %+v after a batch insert of =7 at A2, want 14", p, got)
		}
		if err := checkDerived(e); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}

// TestFindReplaceKeepsFormulas: a formula whose text result contains the
// search string keeps its formula and recomputes from its replaced
// precedent, on the scan path (excel) and the index path (optimized).
func TestFindReplaceKeepsFormulas(t *testing.T) {
	for _, p := range []string{"excel", "optimized"} {
		e := New(Profiles()[p])
		wb := workload.Ledger(workload.Spec{Rows: 40, Formulas: true})
		if err := e.Install(wb); err != nil {
			t.Fatal(err)
		}
		s := wb.Sheet("ledger")
		at := cell.Addr{Row: 1, Col: workload.LedgerNumCols}
		cat := s.Value(cell.Addr{Row: 1, Col: workload.LedgerColCategory}).Str
		if _, _, err := e.InsertFormula(s, at, `=C2&"-tag"`); err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.FindReplace(s, cat, cat+"X"); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Formula(at); !ok {
			t.Fatalf("%s: find-replace of %q turned the formula at %s into a literal", p, cat, at.A1())
		}
		if got, want := s.Value(at), cell.Str(cat+"X-tag"); got != want {
			t.Errorf("%s: %s = %+v, want %+v", p, at.A1(), got, want)
		}
		if err := checkDerived(e); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}
