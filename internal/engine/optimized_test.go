package engine

import (
	"fmt"
	"testing"

	"repro/internal/cell"
	"repro/internal/costmodel"
	"repro/internal/formula"
	"repro/internal/sheet"
	"repro/internal/workload"
)

// TestOptimizedDifferential: the optimized engine must produce exactly the
// values the naive engine does under a mixed operation sequence —
// optimizations change cost, never results.
func TestOptimizedDifferential(t *testing.T) {
	engA, sA := newTestEngine(t, "excel", 120, true)
	engB, sB := newTestEngine(t, "optimized", 120, true)

	formulas := []string{
		`=COUNTIF(J2:J121,"1")`,
		"=SUM(J2:J121)",
		"=AVERAGE(A2:A121)",
		"=COUNT(A2:A121)",
		`=COUNTIF(J2:J121,">0")`,
		"=VLOOKUP(50,A2:Q121,2,FALSE)",
		"=VLOOKUP(50,A2:Q121,2,TRUE)",
		"=MAX(A2:A121)",
	}
	check := func(step string) {
		t.Helper()
		for i := range formulas {
			at := cell.Addr{Row: 1 + i, Col: workload.NumCols}
			va, vb := sA.Value(at), sB.Value(at)
			if !va.Equal(vb) {
				t.Fatalf("%s: formula %d: excel=%+v optimized=%+v", step, i, va, vb)
			}
		}
	}
	insertAll := func() {
		for i, f := range formulas {
			at := cell.Addr{Row: 1 + i, Col: workload.NumCols}
			if _, _, err := engA.InsertFormula(sA, at, f); err != nil {
				t.Fatal(err)
			}
			if _, _, err := engB.InsertFormula(sB, at, f); err != nil {
				t.Fatal(err)
			}
		}
	}
	insertAll()
	check("after insert")

	// Single-cell edits (incremental path vs full recompute).
	for k := 0; k < 10; k++ {
		at := cell.Addr{Row: 1 + (k*13)%120, Col: workload.ColStorm}
		v := cell.Num(float64(k % 2))
		if _, err := engA.SetCell(sA, at, v); err != nil {
			t.Fatal(err)
		}
		if _, err := engB.SetCell(sB, at, v); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after edit %d", k))
	}

	// Sort (recalc-analysis path) then re-insert and re-check.
	if _, err := engA.Sort(sA, workload.ColState, true, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := engB.Sort(sB, workload.ColState, true, 1); err != nil {
		t.Fatal(err)
	}
	insertAll()
	check("after sort")

	// Find-and-replace (inverted index path).
	nA, _, err := engA.FindReplace(sA, "RAIN", "DRIZZLE")
	if err != nil {
		t.Fatal(err)
	}
	nB, _, err := engB.FindReplace(sB, "RAIN", "DRIZZLE")
	if err != nil {
		t.Fatal(err)
	}
	if nA != nB {
		t.Fatalf("find-replace counts differ: %d vs %d", nA, nB)
	}
	insertAll()
	check("after find-replace")
}

func TestIncrementalAggregatesConstantWork(t *testing.T) {
	// §5.5/§6: after one COUNTIF is materialized, a single-cell update
	// must cost O(1) on the optimized engine and O(m) on the naive ones.
	work := func(sys string, m int) int64 {
		eng, s := newTestEngine(t, sys, m, false)
		if _, _, err := eng.InsertFormula(s, a("R2"), fmt.Sprintf(`=COUNTIF(J2:J%d,"1")`, m+1)); err != nil {
			t.Fatal(err)
		}
		res, err := eng.SetCell(s, a("J2"), cell.Num(0))
		if err != nil {
			t.Fatal(err)
		}
		return res.Work.Count(costmodel.CellTouch) + res.Work.Count(costmodel.Compare)
	}
	excelSmall, excelBig := work("excel", 1000), work("excel", 4000)
	optSmall, optBig := work("optimized", 1000), work("optimized", 4000)
	if excelBig < 3*excelSmall {
		t.Errorf("excel update work should scale with m: %d -> %d", excelSmall, excelBig)
	}
	if optBig != optSmall {
		t.Errorf("optimized update work should be size-independent: %d -> %d", optSmall, optBig)
	}
	if optBig > 64 {
		t.Errorf("optimized update work = %d, want O(1)", optBig)
	}
}

func TestIncrementalAggregateValueCorrect(t *testing.T) {
	eng, s := newTestEngine(t, "optimized", 500, false)
	v, _, err := eng.InsertFormula(s, a("R2"), `=COUNTIF(J2:J501,"1")`)
	if err != nil {
		t.Fatal(err)
	}
	base := int(v.Num)
	// Flip a known storm cell to 0 and a known calm cell to 1.
	for dr := 1; dr <= 500; dr++ {
		at := cell.Addr{Row: dr, Col: workload.ColStorm}
		old := s.Value(at).Num
		eng.SetCell(s, at, cell.Num(1-old))
		want := base
		if old == 1 {
			want--
		} else {
			want++
		}
		if got := int(s.Value(a("R2")).Num); got != want {
			t.Fatalf("after flipping row %d: count = %d, want %d", dr, got, want)
		}
		base = want
	}
}

func TestIncrementalSumAndAverage(t *testing.T) {
	eng, s := newTestEngine(t, "optimized", 100, false)
	sum0 := mustInsert(t, eng, s, "R2", "=SUM(J2:J101)").Num
	mustInsert(t, eng, s, "R3", "=AVERAGE(J2:J101)")
	old := s.Value(a("J5")).Num
	if _, err := eng.SetCell(s, a("J5"), cell.Num(old+10)); err != nil {
		t.Fatal(err)
	}
	if got := s.Value(a("R2")).Num; got != sum0+10 {
		t.Errorf("SUM after delta = %v, want %v", got, sum0+10)
	}
	if got := s.Value(a("R3")).Num; got != (sum0+10)/100 {
		t.Errorf("AVERAGE after delta = %v, want %v", got, (sum0+10)/100)
	}
}

// TestAggregateOverMaterializedHost chains two materialized aggregates: C2
// sums the column hosting B2's sum. A delta into B2 is a value change like
// any other, so it must reach column B's prefix sums and C2's running
// state; otherwise C2 keeps its pre-edit value.
func TestAggregateOverMaterializedHost(t *testing.T) {
	for _, profile := range []string{"excel", "optimized", "planned"} {
		t.Run(profile, func(t *testing.T) {
			s := sheet.New("m", 12, 3)
			for r := 1; r < 12; r++ {
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
			mustInsert(t, eng, s, "B2", "=SUM(A2:A12)")
			if got := mustInsert(t, eng, s, "C2", "=SUM(B2:B12)"); got.Num != 66 {
				t.Fatalf("C2 = %v before the edit, want 66", got)
			}
			if _, err := eng.SetCell(s, a("A3"), cell.Num(100)); err != nil {
				t.Fatal(err)
			}
			if got := s.Value(a("C2")); got != cell.Num(164) {
				t.Errorf("C2 = %v after A3 = 100, want 164", got)
			}
			if err := checkDerived(eng); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestRedundantEliminationCacheHit(t *testing.T) {
	// §5.4: the second identical formula must not rescan.
	eng, s := newTestEngine(t, "optimized", 2000, false)
	_, first, err := eng.InsertFormula(s, a("R2"), `=COUNTIF(C2:C2001,"STORM")`)
	if err != nil {
		t.Fatal(err)
	}
	v2, second, err := eng.InsertFormula(s, a("R3"), `=COUNTIF(C2:C2001,"STORM")`)
	if err != nil {
		t.Fatal(err)
	}
	if first.Work.Count(costmodel.CellTouch) < 2000 {
		t.Errorf("first insert touched %d cells", first.Work.Count(costmodel.CellTouch))
	}
	if got := second.Work.Count(costmodel.CellTouch); got != 0 {
		t.Errorf("second identical insert touched %d cells, want 0 (cache hit)", got)
	}
	if v2.Num != s.Value(a("R2")).Num {
		t.Error("cached result differs")
	}
	// Case-normalized texts share the cache.
	_, third, err := eng.InsertFormula(s, a("R4"), `=countif(c2:c2001,"STORM")`)
	if err != nil {
		t.Fatal(err)
	}
	if third.Work.Count(costmodel.CellTouch) != 0 {
		t.Error("canonicalized formula should hit the cache")
	}
}

func TestRedundantCacheInvalidatedByEdit(t *testing.T) {
	eng, s := newTestEngine(t, "optimized", 200, false)
	mustInsert(t, eng, s, "R2", `=COUNTIF(C2:C201,"STORM")`)
	if _, err := eng.SetCell(s, a("C5"), cell.Str("STORM")); err != nil {
		t.Fatal(err)
	}
	// After the edit the cache must not serve the stale count.
	v := mustInsert(t, eng, s, "R3", `=COUNTIF(C2:C201,"STORM")`)
	want := 0
	for dr := 1; dr <= 200; dr++ {
		ev := s.Value(cell.Addr{Row: dr, Col: workload.ColEvent0})
		if ev.Kind == cell.Text && cell.Str("STORM").Equal(ev) {
			want++
		}
	}
	if int(v.Num) != want {
		t.Errorf("post-edit COUNTIF = %v, want %d", v.Num, want)
	}
}

func TestSharedComputationPrefixSums(t *testing.T) {
	// §5.3: cumulative SUM(A2:Ai) answered from shared prefix sums —
	// total work linear, not quadratic.
	eng, s := newTestEngine(t, "optimized", 400, false)
	var touches int64
	for i := 1; i <= 400; i++ {
		text := fmt.Sprintf("=SUM(A2:A%d)", i+1)
		v, res, err := eng.InsertFormula(s, cell.Addr{Row: i, Col: workload.NumCols}, text)
		if err != nil {
			t.Fatal(err)
		}
		touches += res.Work.Count(costmodel.CellTouch)
		// Correctness: sum of ids 2..i+1.
		want := float64((i + 3) * i / 2)
		if v.Num != want {
			t.Fatalf("SUM(A2:A%d) = %v, want %v", i+1, v.Num, want)
		}
	}
	// Naive cost would be ~400*401/2 = 80200 touches; shared is one build
	// pass (~401) plus O(1) per query.
	if touches > 2000 {
		t.Errorf("total touches = %d, want linear (~400)", touches)
	}
}

func TestHashIndexCountif(t *testing.T) {
	eng, s := newTestEngine(t, "optimized", 3000, false)
	// First query builds the index; subsequent equality COUNTIFs on other
	// criteria reuse it with O(1) probes.
	mustInsert(t, eng, s, "R2", `=COUNTIF(B2:B3001,"SD")`)
	v, res, err := eng.InsertFormula(s, a("R3"), `=COUNTIF(B2:B3001,"TX")`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Work.Count(costmodel.CellTouch); got != 0 {
		t.Errorf("indexed COUNTIF touched %d cells", got)
	}
	want := 0
	for dr := 1; dr <= 3000; dr++ {
		if workload.StateAt(workload.DefaultSeed, dr) == "TX" {
			want++
		}
	}
	if int(v.Num) != want {
		t.Errorf("COUNTIF TX = %v, want %d", v.Num, want)
	}
}

func TestBTreeInequalityCountif(t *testing.T) {
	eng, s := newTestEngine(t, "optimized", 1000, false)
	v, res, err := eng.InsertFormula(s, a("R2"), `=COUNTIF(A2:A1001,">=500")`)
	if err != nil {
		t.Fatal(err)
	}
	// ids run 2..1001; >=500 leaves 502.
	if v.Num != 502 {
		t.Errorf("COUNTIF >=500 = %v, want 502", v.Num)
	}
	if probes := res.Work.Count(costmodel.IndexProbe); probes == 0 {
		t.Error("expected index probes")
	}
	// Second inequality reuses the tree: no scan.
	v2, res2, err := eng.InsertFormula(s, a("R3"), `=COUNTIF(A2:A1001,"<100")`)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Num != 98 { // ids 2..99
		t.Errorf("COUNTIF <100 = %v, want 98", v2.Num)
	}
	if got := res2.Work.Count(costmodel.CellTouch); got != 0 {
		t.Errorf("second inequality touched %d cells", got)
	}
}

func TestIndexedVlookupProbes(t *testing.T) {
	// §5.1: with a hash index, exact-match VLOOKUP stops being linear.
	eng, s := newTestEngine(t, "optimized", 5000, false)
	mustInsert(t, eng, s, "R2", "=VLOOKUP(3000,A2:Q5001,2,FALSE)") // builds index
	v, res, err := eng.InsertFormula(s, a("R3"), "=VLOOKUP(4000,A2:Q5001,2,FALSE)")
	if err != nil {
		t.Fatal(err)
	}
	wantState := workload.StateAt(workload.DefaultSeed, 3999)
	if v.Str != wantState {
		t.Errorf("VLOOKUP = %+v, want %q", v, wantState)
	}
	if got := res.Work.Count(costmodel.Compare); got > 10 {
		t.Errorf("indexed lookup compares = %d, want O(1)", got)
	}
}

func TestInvertedIndexFindReplace(t *testing.T) {
	eng, s := newTestEngine(t, "optimized", 4000, false)
	// Prime the index (first call builds it).
	if _, _, err := eng.FindReplace(s, "QQPRIME", "X"); err != nil {
		t.Fatal(err)
	}
	// Absent search: near-constant (§5.1.2).
	_, res, err := eng.FindReplace(s, "QQNOPE", "Y")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Work.Count(costmodel.CellTouch); got > 2 {
		t.Errorf("absent search touched %d cells, want ~0 (inverted index)", got)
	}
	// Present search touches only the matching cells.
	_, res, err = eng.FindReplace(s, "HAIL", "SLEET")
	if err != nil {
		t.Fatal(err)
	}
	matches := 0
	for dr := 1; dr <= 4000; dr++ {
		for i := 0; i < workload.NumEvents; i++ {
			if workload.EventAt(workload.DefaultSeed, dr, i) == "HAIL" {
				matches++
			}
		}
	}
	if got := res.Work.Count(costmodel.CellTouch); got > int64(matches)+2 {
		t.Errorf("present search touched %d cells for %d matches", got, matches)
	}
}

func TestNaiveFindReplaceScansEverything(t *testing.T) {
	eng, s := newTestEngine(t, "excel", 1000, false)
	_, res, err := eng.FindReplace(s, "QQNOPE", "Y")
	if err != nil {
		t.Fatal(err)
	}
	wantMin := int64(1000 * workload.NumCols)
	if got := res.Work.Count(costmodel.CellTouch); got < wantMin {
		t.Errorf("naive absent search touched %d cells, want >= %d (full scan, §5.1.2)", got, wantMin)
	}
}

func TestSortRecalcAnalysisSkipsRowLocal(t *testing.T) {
	// Covered for counts in TestSortRecalcPolicyWork; here verify that a
	// NON-row-local formula still recomputes after sort on the optimized
	// engine.
	eng, s := newTestEngine(t, "optimized", 50, false)
	mustInsert(t, eng, s, "S2", "=A2") // same-row relative ref: row-local
	// The aggregate lives in the header row, which does not move under
	// the sort (data rows only), like a real summary row.
	mustInsert(t, eng, s, "T1", "=SUM(A2:A51)")
	sumBefore := s.Value(a("T1")).Num
	if _, err := eng.Sort(s, workload.ColID, false, 1); err != nil {
		t.Fatal(err)
	}
	// The SUM over the whole column is unchanged by a permutation, but it
	// must have been re-evaluated (non-row-local) and still be correct.
	if got := s.Value(a("T1")).Num; got != sumBefore {
		t.Errorf("SUM after sort = %v, want %v", got, sumBefore)
	}
	// S2 moved with its row; its value must equal its own row's id.
	for dr := 1; dr <= 50; dr++ {
		at := cell.Addr{Row: dr, Col: 18}
		if _, ok := s.Formula(at); !ok {
			continue
		}
		id := s.Value(cell.Addr{Row: dr, Col: workload.ColID}).Num
		if got := s.Value(at).Num; got != id {
			t.Errorf("row-local formula at %v = %v, want %v", at, got, id)
		}
	}
}

func TestIndexesMaintainedAcrossSort(t *testing.T) {
	eng, s := newTestEngine(t, "optimized", 500, false)
	mustInsert(t, eng, s, "R2", "=VLOOKUP(300,A2:Q501,2,FALSE)") // builds hash on A
	if _, err := eng.Sort(s, workload.ColState, true, 1); err != nil {
		t.Fatal(err)
	}
	// Indexes were dropped on reorder; a fresh lookup must still be
	// correct (rebuilt lazily).
	v := mustInsert(t, eng, s, "R3", "=VLOOKUP(300,A2:Q501,2,FALSE)")
	if v.Str != workload.StateAt(workload.DefaultSeed, 299) {
		t.Errorf("post-sort lookup = %+v", v)
	}
}

func TestOptimizationsAnyZero(t *testing.T) {
	var o Optimizations
	if o.Any() {
		t.Error("zero Optimizations should be none")
	}
	o.HashIndex = true
	if !o.Any() {
		t.Error("Any")
	}
}

func TestInstallPrewarmsSharedAggregateColumns(t *testing.T) {
	// The install pre-flight (plan.SharedAggColumns wired into
	// buildOptState) must detect columns that several formulas aggregate
	// and build their prefix indexes eagerly: the first post-install
	// aggregate over such a column is then a pure index probe.
	prof := Profiles()["optimized"]
	eng := New(prof)
	wb := workload.Weather(workload.Spec{Rows: 300, Formulas: false})
	s := wb.First()
	s.SetFormula(a("R2"), formula.MustCompile("=SUM(J2:J301)"))
	s.SetFormula(a("R3"), formula.MustCompile("=SUM(J2:J301)/300"))
	if err := eng.Install(wb); err != nil {
		t.Fatal(err)
	}
	// Install resets meters; the eager build must not leak into them.
	if got := eng.Meter().Count(costmodel.CellTouch); got != 0 {
		t.Fatalf("meter shows %d cell touches right after install", got)
	}
	v, res, err := eng.InsertFormula(s, a("R4"), "=SUM(J2:J300)")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Work.Count(costmodel.CellTouch); got != 0 {
		t.Errorf("post-install aggregate touched %d cells, want 0 (prewarmed index)", got)
	}
	want := 0.0
	for dr := 1; dr <= 299; dr++ {
		want += s.Value(cell.Addr{Row: dr, Col: workload.ColStorm}).Num
	}
	if v.Num != want {
		t.Errorf("SUM = %v, want %v", v.Num, want)
	}
}

func TestNoPrewarmForSingleAggregate(t *testing.T) {
	// One aggregate read of a column does not justify an eager index; the
	// lazy path still pays the build scan on first query.
	prof := Profiles()["optimized"]
	eng := New(prof)
	wb := workload.Weather(workload.Spec{Rows: 300, Formulas: false})
	s := wb.First()
	s.SetFormula(a("R2"), formula.MustCompile("=SUM(J2:J301)"))
	if err := eng.Install(wb); err != nil {
		t.Fatal(err)
	}
	_, res, err := eng.InsertFormula(s, a("R4"), "=SUM(J2:J300)")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Work.Count(costmodel.CellTouch); got == 0 {
		t.Error("single-aggregate column should not be prewarmed at install")
	}
}
