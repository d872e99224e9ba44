package engine

import (
	"fmt"
	"testing"

	"repro/internal/cell"
	"repro/internal/costmodel"
	"repro/internal/formula"
	"repro/internal/sheet"
)

func vcMustFormula(t testing.TB, s *sheet.Sheet, a cell.Addr, text string) {
	t.Helper()
	c, err := formula.Compile(text)
	if err != nil {
		t.Fatalf("compile %s: %v", text, err)
	}
	s.SetFormula(a, c)
}

// vcKey returns the data key stored in 1-based data row r. Every key
// repeats twice (r and r+1 share one), so leftmost-equal semantics are
// observable: the two rows carry different payloads.
func vcKey(r int) float64 { return 10 + 3*float64((r-1)/2) }

// valueCertWorkbook builds a two-sheet lookup workbook: "data" holds an
// ascending (duplicate-bearing) numeric key column A, a distinct payload
// column B, and local exact-MATCH formulas in column C; "report" holds
// cross-sheet exact VLOOKUPs into data plus a block of foldable constant
// formulas. Keys alternate hit and miss so both lookup outcomes run.
func valueCertWorkbook(t testing.TB, rows, lookups int) *sheet.Workbook {
	t.Helper()
	data := sheet.New("data", rows+1, 4)
	data.SetValue(cell.Addr{Row: 0, Col: 0}, cell.Str("key"))
	data.SetValue(cell.Addr{Row: 0, Col: 1}, cell.Str("payload"))
	data.SetValue(cell.Addr{Row: 0, Col: 2}, cell.Str("match"))
	for r := 1; r <= rows; r++ {
		data.SetValue(cell.Addr{Row: r, Col: 0}, cell.Num(vcKey(r)))
		data.SetValue(cell.Addr{Row: r, Col: 1}, cell.Num(float64(r)))
	}
	for i := 1; i <= lookups; i++ {
		key := vcKey(1 + (i*7)%rows)
		if i%3 == 0 {
			key += 1 // between stored keys: a guaranteed miss (#N/A)
		}
		vcMustFormula(t, data, cell.Addr{Row: i, Col: 2},
			fmt.Sprintf("=MATCH(%g,A2:A%d,0)", key, rows+1))
	}

	report := sheet.New("report", lookups+4, 3)
	for i := 1; i <= lookups; i++ {
		key := vcKey(1 + (i*5)%rows)
		if i%4 == 0 {
			key += 1
		}
		vcMustFormula(t, report, cell.Addr{Row: i, Col: 0},
			fmt.Sprintf("=VLOOKUP(%g,data!A2:B%d,2,FALSE)", key, rows+1))
	}
	// Constant formulas the abstract interpreter folds (no volatiles).
	report.SetValue(cell.Addr{Row: 1, Col: 2}, cell.Num(5))
	vcMustFormula(t, report, cell.Addr{Row: 2, Col: 2}, "=1+2*3")
	vcMustFormula(t, report, cell.Addr{Row: 3, Col: 2}, "=C2*2")
	vcMustFormula(t, report, cell.Addr{Row: 4, Col: 2}, `=IF(2>1,"yes","no")`)

	wb := sheet.NewWorkbook()
	if err := wb.Add(data); err != nil {
		t.Fatal(err)
	}
	if err := wb.Add(report); err != nil {
		t.Fatal(err)
	}
	return wb
}

// vcCompare asserts two workbooks display byte-identical values everywhere.
func vcCompare(t *testing.T, label string, ref, got *sheet.Workbook) {
	t.Helper()
	for i, rs := range ref.Sheets() {
		gs := got.Sheets()[i]
		if gs.Rows() != rs.Rows() {
			t.Fatalf("%s: sheet %d rows %d != %d", label, i, gs.Rows(), rs.Rows())
		}
		for r := 0; r < rs.Rows(); r++ {
			for c := 0; c < rs.Cols(); c++ {
				at := cell.Addr{Row: r, Col: c}
				if !rs.Value(at).Equal(gs.Value(at)) {
					t.Fatalf("%s: sheet %d differs at %s: naive %+v vs certified %+v",
						label, i, at, rs.Value(at), gs.Value(at))
				}
			}
		}
	}
}

// TestValueCertDifferential is the acceptance gate for the value
// certificates: the certificate-served binary-search lookups, typed fills,
// and constant skips must be byte-identical to the naive engine — at
// install, across recalculations, and across every certificate-
// invalidating edit (sortedness-breaking write, value-over-formula write,
// sort, row insert).
func TestValueCertDifferential(t *testing.T) {
	if !Profiles()["optimized"].Opt.ValueCerts {
		t.Fatal("optimized profile does not enable ValueCerts")
	}
	const rows, lookups = 400, 30
	naive := New(Profiles()["excel"])
	opt := New(Profiles()["optimized"])
	wbN := valueCertWorkbook(t, rows, lookups)
	wbO := valueCertWorkbook(t, rows, lookups)
	if err := naive.Install(wbN); err != nil {
		t.Fatal(err)
	}
	if err := opt.Install(wbO); err != nil {
		t.Fatal(err)
	}
	vcCompare(t, "install", wbN, wbO)

	step := func(label string, f func(e *Engine, wb *sheet.Workbook) error) {
		t.Helper()
		if err := f(naive, wbN); err != nil {
			t.Fatalf("%s (naive): %v", label, err)
		}
		if err := f(opt, wbO); err != nil {
			t.Fatalf("%s (certified): %v", label, err)
		}
		vcCompare(t, label, wbN, wbO)
	}

	step("recalculate", func(e *Engine, wb *sheet.Workbook) error {
		for _, s := range wb.Sheets() {
			if _, err := e.Recalculate(s); err != nil {
				return err
			}
		}
		return nil
	})
	// A write into the middle of the key column breaks ascending order:
	// the certificate must retire and lookups fall back to the scan.
	step("break-sortedness", func(e *Engine, wb *sheet.Workbook) error {
		_, err := e.SetCell(wb.First(), cell.Addr{Row: rows / 2, Col: 0}, cell.Num(1))
		return err
	})
	// A value written over a formula cell retires the formula (and the
	// constant certificate covering it).
	step("value-over-formula", func(e *Engine, wb *sheet.Workbook) error {
		_, err := e.SetCell(wb.Sheets()[1], cell.Addr{Row: 3, Col: 2}, cell.Num(99))
		return err
	})
	// Editing a certified constant's precedent must force recomputation.
	step("edit-const-precedent", func(e *Engine, wb *sheet.Workbook) error {
		_, err := e.SetCell(wb.Sheets()[1], cell.Addr{Row: 1, Col: 2}, cell.Num(8))
		return err
	})
	step("sort-desc", func(e *Engine, wb *sheet.Workbook) error {
		_, err := e.Sort(wb.First(), 1, false, 1)
		return err
	})
	step("insert-rows", func(e *Engine, wb *sheet.Workbook) error {
		_, err := e.InsertRows(wb.First(), 5, 2)
		return err
	})
	step("recalculate-after-edits", func(e *Engine, wb *sheet.Workbook) error {
		for _, s := range wb.Sheets() {
			if _, err := e.Recalculate(s); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestValueCertBinarySearchMeter checks the certificate actually changes
// the lookup algorithm: recalculating a sheet of exact MATCHes over a
// certified ascending column must touch far fewer cells than the naive
// linear scan (log-factor probes instead of full scans).
func TestValueCertBinarySearchMeter(t *testing.T) {
	const rows, lookups = 5000, 40
	naive := New(Profiles()["excel"])
	opt := New(Profiles()["optimized"])
	wbN := valueCertWorkbook(t, rows, lookups)
	wbO := valueCertWorkbook(t, rows, lookups)
	if err := naive.Install(wbN); err != nil {
		t.Fatal(err)
	}
	if err := opt.Install(wbO); err != nil {
		t.Fatal(err)
	}
	rn, err := naive.Recalculate(wbN.First())
	if err != nil {
		t.Fatal(err)
	}
	ro, err := opt.Recalculate(wbO.First())
	if err != nil {
		t.Fatal(err)
	}
	nt, ot := rn.Work.Count(costmodel.CellTouch), ro.Work.Count(costmodel.CellTouch)
	// Excel's early-exit scan still averages half the column per hit (and
	// the full column per miss); the certified path probes log2(rows).
	if nt < int64(rows)*int64(lookups)/4 {
		t.Fatalf("naive recalc touched %d cells, want >= %d (linear scans)", nt, rows*lookups/4)
	}
	if ot*2 >= nt {
		t.Fatalf("certified recalc touched %d cells vs naive %d, want < half", ot, nt)
	}
	t.Logf("CellTouch: naive=%d certified=%d (%.1fx)", nt, ot, float64(nt)/float64(ot))
}

// TestValueCertConstSkip checks certified-constant formulas are skipped by
// calc passes (charged as a staleness check) while volatile-free results
// stay exactly the installed values.
func TestValueCertConstSkip(t *testing.T) {
	wb := valueCertWorkbook(t, 50, 4)
	e := New(Profiles()["optimized"])
	if err := e.Install(wb); err != nil {
		t.Fatal(err)
	}
	report := wb.Sheets()[1]
	res, err := e.Recalculate(report)
	if err != nil {
		t.Fatal(err)
	}
	// The three foldable formulas (=1+2*3, =C2*2, =IF(2>1,...)) skip.
	if got := res.Work.Count(costmodel.StaleCheck); got < 3 {
		t.Fatalf("recalc staleness-checked %d const cells, want >= 3", got)
	}
	if v := report.Value(cell.Addr{Row: 2, Col: 2}); v != cell.Num(7) {
		t.Fatalf("C3 = %+v, want 7", v)
	}
	if v := report.Value(cell.Addr{Row: 3, Col: 2}); v != cell.Num(10) {
		t.Fatalf("C4 = %+v, want 10 (=C2*2 over the stored 5)", v)
	}
	// Editing the precedent retires the certificate; the dependent must
	// recompute, not skip to the stale constant.
	if _, err := e.SetCell(report, cell.Addr{Row: 1, Col: 2}, cell.Num(9)); err != nil {
		t.Fatal(err)
	}
	if v := report.Value(cell.Addr{Row: 3, Col: 2}); v != cell.Num(18) {
		t.Fatalf("C4 after precedent edit = %+v, want 18", v)
	}
}

// TestValueCertNumericColumn checks the inference extends typed columnar
// fills to formula columns the value-column scan cannot certify, and that a
// non-numeric write retires the claim.
func TestValueCertNumericColumn(t *testing.T) {
	const rows = 60
	s := sheet.New("calc", rows+1, 3)
	s.SetValue(cell.Addr{Row: 0, Col: 0}, cell.Str("x"))
	s.SetValue(cell.Addr{Row: 0, Col: 1}, cell.Str("2x"))
	for r := 1; r <= rows; r++ {
		s.SetValue(cell.Addr{Row: r, Col: 0}, cell.Num(float64(r)))
		vcMustFormula(t, s, cell.Addr{Row: r, Col: 1}, fmt.Sprintf("=A%d*2", r+1))
	}
	wb := sheet.NewWorkbook()
	if err := wb.Add(s); err != nil {
		t.Fatal(err)
	}
	e := New(Profiles()["optimized"])
	if err := e.Install(wb); err != nil {
		t.Fatal(err)
	}
	if !e.certNumericCol(s, 1) {
		t.Fatal("formula column B not certified numeric")
	}
	cc := e.ValueCert(s).Column(1)
	if cc == nil || !cc.HasFormula || !cc.ErrorFree {
		t.Fatalf("column 1 certificate = %+v, want formula-bearing error-free", cc)
	}
	// The certified fill must serve aggregates with the exact same result.
	v, _, err := e.InsertFormula(s, cell.Addr{Row: 1, Col: 2}, fmt.Sprintf("=SUM(B2:B%d)", rows+1))
	if err != nil {
		t.Fatal(err)
	}
	if want := cell.Num(float64(rows * (rows + 1))); v != want {
		t.Fatalf("SUM over certified column = %+v, want %+v", v, want)
	}
	if _, err := e.SetCell(s, cell.Addr{Row: 5, Col: 1}, cell.Str("oops")); err != nil {
		t.Fatal(err)
	}
	if e.certNumericCol(s, 1) {
		t.Fatal("column B still certified numeric after text write")
	}
}

// TestValueCertSortedCacheInvalidation exercises the per-column version
// keying directly: a write to an unrelated column must keep the cached
// sortedness, a write into the column or a reorder must retire it.
func TestValueCertSortedCacheInvalidation(t *testing.T) {
	const rows = 100
	wb := valueCertWorkbook(t, rows, 4)
	e := New(Profiles()["optimized"])
	if err := e.Install(wb); err != nil {
		t.Fatal(err)
	}
	data := wb.First()
	st := e.sheets[data].opt
	if st == nil {
		t.Fatal("no optState")
	}
	if !st.sortedAsc(data, nil, 0, 1, rows) {
		t.Fatal("key column not certified ascending")
	}
	// Unrelated-column write: entry stays valid.
	if _, err := e.SetCell(data, cell.Addr{Row: 7, Col: 1}, cell.Num(-1)); err != nil {
		t.Fatal(err)
	}
	sc, ok := st.sorted[0]
	if !ok || sc.ver != st.colVer[0] || sc.epoch != st.sortedEpoch {
		t.Fatal("key-column cache entry retired by unrelated write")
	}
	// In-column descending write: rescan must now fail.
	if _, err := e.SetCell(data, cell.Addr{Row: rows / 2, Col: 0}, cell.Num(0)); err != nil {
		t.Fatal(err)
	}
	if st.sortedAsc(data, nil, 0, 1, rows) {
		t.Fatal("column still certified ascending after out-of-order write")
	}
	// Restore order, then sort descending: the reorder epoch retires the
	// cache even though the key column was never written cell-by-cell.
	if _, err := e.SetCell(data, cell.Addr{Row: rows / 2, Col: 0}, cell.Num(vcKey(rows/2))); err != nil {
		t.Fatal(err)
	}
	if !st.sortedAsc(data, nil, 0, 1, rows) {
		t.Fatal("column not re-certified after restoring order")
	}
	epoch := st.sortedEpoch
	if _, err := e.Sort(data, 0, false, 1); err != nil {
		t.Fatal(err)
	}
	if st.sortedEpoch == epoch {
		t.Fatal("sort did not bump the reorder epoch")
	}
	if st.sortedAsc(data, nil, 0, 1, rows) {
		t.Fatal("column still certified ascending after descending sort")
	}
}
