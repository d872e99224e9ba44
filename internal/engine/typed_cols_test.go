package engine

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cell"
	"repro/internal/formula"
	"repro/internal/sheet"
	"repro/internal/workload"
)

// typedColsClock pins NOW() so the analysis block's volatile cell (S5)
// compares equal across engines installed at different wall times.
func typedColsClock() time.Time {
	return time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
}

// typedColsCompare asserts two sheets display byte-identical values in
// every cell, including the analysis block columns past NumCols.
func typedColsCompare(t *testing.T, label string, ref, got *sheet.Sheet) {
	t.Helper()
	if got.Rows() != ref.Rows() {
		t.Fatalf("%s: rows %d != %d", label, got.Rows(), ref.Rows())
	}
	for r := 0; r < ref.Rows(); r++ {
		for c := 0; c < ref.Cols()+2; c++ {
			at := cell.Addr{Row: r, Col: c}
			if !ref.Value(at).Equal(got.Value(at)) {
				t.Fatalf("%s: differs at %s: naive %+v vs typed %+v",
					label, at, ref.Value(at), got.Value(at))
			}
		}
	}
}

// TestTypedColumnsDifferential is the acceptance gate for the typed-column
// fills (part of ValueCerts): for every weather workbook size in the
// standard matrix, the optimized engine — consuming the numeric value-column
// certificates at install — must produce results byte-identical to the
// naive engine. Certificates may only change WHERE values are read from,
// never WHAT they are.
func TestTypedColumnsDifferential(t *testing.T) {
	if !Profiles()["optimized"].Opt.ValueCerts {
		t.Fatal("optimized profile does not enable ValueCerts")
	}
	for _, rows := range workload.SizesUpTo(25000) {
		t.Run(fmt.Sprintf("rows=%d", rows), func(t *testing.T) {
			naive := New(Profiles()["excel"])
			opt := New(Profiles()["optimized"])
			naive.SetNow(typedColsClock)
			opt.SetNow(typedColsClock)
			wbN := workload.Weather(workload.Spec{Rows: rows, Seed: 7, Formulas: true, Analysis: true})
			wbO := workload.Weather(workload.Spec{Rows: rows, Seed: 7, Formulas: true, Analysis: true,
				Columnar: Profiles()["optimized"].Opt.ColumnarLayout})
			if err := naive.Install(wbN); err != nil {
				t.Fatal(err)
			}
			if err := opt.Install(wbO); err != nil {
				t.Fatal(err)
			}
			typedColsCompare(t, "post-install", wbN.First(), wbO.First())
		})
	}
}

// TestTypedColumnsInvalidation drives edits that violate the certificates
// and checks the optimized engine notices: a text write into a certified
// numeric column, a formula inserted into one, and a sort (which rebuilds
// all optimizer state). After each, fresh aggregates over the touched
// column must still match the naive engine exactly.
func TestTypedColumnsInvalidation(t *testing.T) {
	const rows = 200
	naive := New(Profiles()["excel"])
	opt := New(Profiles()["optimized"])
	naive.SetNow(typedColsClock)
	opt.SetNow(typedColsClock)
	wbN := workload.Weather(workload.Spec{Rows: rows, Seed: 7, Formulas: true, Analysis: true})
	wbO := workload.Weather(workload.Spec{Rows: rows, Seed: 7, Formulas: true, Analysis: true,
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
			t.Fatalf("%s (typed): %v", label, err)
		}
		typedColsCompare(t, label, sN, sO)
	}

	// A text value lands in certified column A (id): the certificate must
	// drop, and a subsequent aggregate over A must see the text cell.
	both("text into id column", func(e *Engine, s *sheet.Sheet) error {
		_, err := e.SetCell(s, cell.Addr{Row: 5, Col: workload.ColID}, cell.Str("oops"))
		return err
	})
	both("sum over poisoned column", func(e *Engine, s *sheet.Sheet) error {
		_, _, err := e.InsertFormula(s, cell.Addr{Row: 1, Col: workload.NumCols + 2},
			fmt.Sprintf("=SUM(A2:A%d)", rows+1))
		return err
	})

	// A formula inserted into certified column J (storm): noteFormulaResult
	// must de-certify J before the formula's cached result is aggregated.
	both("formula into storm column", func(e *Engine, s *sheet.Sheet) error {
		_, _, err := e.InsertFormula(s, cell.Addr{Row: 8, Col: workload.ColStorm}, "=1-0")
		return err
	})
	both("countif over formula-bearing column", func(e *Engine, s *sheet.Sheet) error {
		_, _, err := e.InsertFormula(s, cell.Addr{Row: 2, Col: workload.NumCols + 2},
			fmt.Sprintf(`=COUNTIF(J2:J%d,"1")`, rows+1))
		return err
	})

	// Sorting reorders whole rows; rebuildAfterReorder clears every
	// certificate, so post-sort aggregates rebuild from scratch.
	both("sort by state", func(e *Engine, s *sheet.Sheet) error {
		_, err := e.Sort(s, workload.ColState, true, 1)
		return err
	})
	both("sum after sort", func(e *Engine, s *sheet.Sheet) error {
		_, _, err := e.InsertFormula(s, cell.Addr{Row: 3, Col: workload.NumCols + 2},
			fmt.Sprintf("=SUM(A2:A%d)", rows+1))
		return err
	})
}

// TestTypedColumnsSeededAtInstall pins the certificate set the install
// pre-flight seeds: value-only columns whose every data row holds a
// number. A formula column stays out even when its results are numbers
// (its caches change without a write the optimizer observes), and so does
// a column with an empty gap or a text cell. The header row is outside the
// certificate.
func TestTypedColumnsSeededAtInstall(t *testing.T) {
	s := sheet.New("cert", 4, 4)
	for c, h := range []string{"n", "t", "f", "e"} {
		s.SetValue(cell.Addr{Row: 0, Col: c}, cell.Str(h))
	}
	for r := 1; r < 4; r++ {
		s.SetValue(cell.Addr{Row: r, Col: 0}, cell.Num(float64(r)))
		s.SetValue(cell.Addr{Row: r, Col: 1}, cell.Str("x"))
		s.SetFormula(cell.Addr{Row: r, Col: 2}, formula.MustCompile("=1+1"))
	}
	s.SetValue(cell.Addr{Row: 1, Col: 3}, cell.Num(5))
	wb := sheet.NewWorkbook()
	if err := wb.Add(s); err != nil {
		t.Fatal(err)
	}
	e := New(OptimizedProfile())
	if err := e.Install(wb); err != nil {
		t.Fatal(err)
	}
	if got := e.opts[s].typed; len(got) != 1 || !got[0] {
		t.Errorf("typed columns = %v, want only column 0", got)
	}
}
