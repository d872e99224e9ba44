package plan

import (
	"fmt"
	"testing"

	"repro/internal/cell"
	"repro/internal/costmodel"
	"repro/internal/formula"
	"repro/internal/sheet"
)

func mustFormula(t testing.TB, s *sheet.Sheet, a cell.Addr, text string) {
	t.Helper()
	c, err := formula.Compile(text)
	if err != nil {
		t.Fatalf("compile %s: %v", text, err)
	}
	s.SetFormula(a, c)
}

// lookupSheet builds one sheet with a 100-row key column A (header row 0),
// payload column B, and a VLOOKUP per data row in column C using the given
// trailing argument ("" = approximate default).
func lookupSheet(t testing.TB, name string, key func(r int) cell.Value, lastArg string) *sheet.Sheet {
	t.Helper()
	s := sheet.New(name, 101, 4)
	s.SetValue(cell.Addr{Row: 0, Col: 0}, cell.Str("key"))
	s.SetValue(cell.Addr{Row: 0, Col: 1}, cell.Str("payload"))
	for r := 1; r <= 100; r++ {
		s.SetValue(cell.Addr{Row: r, Col: 0}, key(r))
		s.SetValue(cell.Addr{Row: r, Col: 1}, cell.Num(float64(r)))
		mustFormula(t, s, cell.Addr{Row: r, Col: 2},
			fmt.Sprintf("=VLOOKUP(A%d,A$2:B$101,2%s)", r+1, lastArg))
	}
	return s
}

func buildPlan(t testing.TB, ss ...*sheet.Sheet) *Plan {
	t.Helper()
	wb := sheet.NewWorkbook()
	for _, s := range ss {
		if err := wb.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	return Build(wb, Options{})
}

func TestLookupSortedPicksBinarySearch(t *testing.T) {
	s := lookupSheet(t, "data", func(r int) cell.Value { return cell.Num(float64(10 * r)) }, "")
	p := buildPlan(t, s)
	sp := p.SheetPlan("data")
	if sp == nil {
		t.Fatal("no sheet plan")
	}
	got, ok := sp.LookupStrategy(0, 1, 100, false)
	if !ok {
		t.Fatal("lookup site not planned")
	}
	if got != BinarySearch {
		t.Fatalf("sorted approximate lookup chose %s, want %s", got, BinarySearch)
	}
}

func TestLookupUnsortedApproxFallsBackToScan(t *testing.T) {
	s := lookupSheet(t, "data", func(r int) cell.Value { return cell.Num(float64((r * 37) % 101)) }, "")
	p := buildPlan(t, s)
	got, ok := p.SheetPlan("data").LookupStrategy(0, 1, 100, false)
	if !ok || got != Scan {
		t.Fatalf("unsorted approximate lookup chose %s (planned=%v), want %s", got, ok, Scan)
	}
}

func TestLookupExactLocalPicksHashProbe(t *testing.T) {
	s := lookupSheet(t, "data", func(r int) cell.Value { return cell.Num(float64((r * 37) % 101)) }, ",FALSE")
	p := buildPlan(t, s)
	sp := p.SheetPlan("data")
	got, ok := sp.LookupStrategy(0, 1, 100, true)
	if !ok || got != HashProbe {
		t.Fatalf("exact local lookup chose %s (planned=%v), want %s", got, ok, HashProbe)
	}
	c := sp.lookups[SiteKey{Col: 0, R0: 1, R1: 100, Exact: true}]
	if c.Count != 100 {
		t.Fatalf("site instance count = %d, want 100 (fill-down must merge)", c.Count)
	}
	if alt, ok := c.Alternative(); !ok || alt.Sim <= c.Candidates[0].Sim {
		t.Fatalf("expected a strictly costlier feasible alternative, got %+v ok=%v", alt, ok)
	}
}

func TestCrossSheetExactLookupScansSmallTable(t *testing.T) {
	// A ledger-shaped pair: a small foreign table of text keys probed by
	// exact VLOOKUPs from another sheet. The host-sheet hash index cannot
	// serve a cross-sheet probe and text keys defeat binary search, so the
	// only feasible strategy is the early-exit scan.
	acc := sheet.New("accounts", 9, 3)
	for r := 1; r <= 8; r++ {
		acc.SetValue(cell.Addr{Row: r, Col: 0}, cell.Str(fmt.Sprintf("acct-%d", r)))
		acc.SetValue(cell.Addr{Row: r, Col: 2}, cell.Num(float64(r)))
	}
	led := sheet.New("ledger", 51, 3)
	for r := 1; r <= 50; r++ {
		led.SetValue(cell.Addr{Row: r, Col: 0}, cell.Str(fmt.Sprintf("acct-%d", 1+r%8)))
		mustFormula(t, led, cell.Addr{Row: r, Col: 1},
			fmt.Sprintf("=VLOOKUP(A%d,accounts!A$2:C$9,3,FALSE)", r+1))
	}
	p := buildPlan(t, led, acc)

	sp := p.SheetPlan("accounts")
	got, ok := sp.LookupStrategy(0, 1, 8, true)
	if !ok || got != Scan {
		t.Fatalf("cross-sheet exact lookup chose %s (planned=%v), want %s", got, ok, Scan)
	}
	c := sp.lookups[SiteKey{Col: 0, R0: 1, R1: 8, Exact: true}]
	for _, cand := range c.Candidates {
		if cand.Strategy == HashProbe && cand.Feasible {
			t.Fatal("hash probe must be infeasible for a cross-sheet table")
		}
	}
	if p.SheetPlan("ledger") == nil {
		t.Fatal("ledger sheet plan missing")
	}
}

func TestCountIfEqualityAndRelational(t *testing.T) {
	s := sheet.New("data", 101, 4)
	for r := 1; r <= 100; r++ {
		s.SetValue(cell.Addr{Row: r, Col: 0}, cell.Num(float64(r%5)))
	}
	for r := 1; r <= 40; r++ {
		mustFormula(t, s, cell.Addr{Row: r, Col: 1}, "=COUNTIF(A$2:A$101,3)")
		mustFormula(t, s, cell.Addr{Row: r, Col: 2}, "=COUNTIF(A$2:A$101,\">2\")")
	}
	p := buildPlan(t, s)
	sp := p.SheetPlan("data")
	if !sp.CountIfIndexed(0) {
		t.Fatal("COUNTIF over the shared column should stay on the index path")
	}
	// The equality and relational criteria share column 0, so the merged
	// site degrades to relational and must price the B-tree, not the hash.
	c := sp.countIf[0]
	if c == nil {
		t.Fatal("countif site not planned")
	}
	if c.Chosen != BTreeCount {
		t.Fatalf("mixed-criteria COUNTIF chose %s, want %s", c.Chosen, BTreeCount)
	}
}

func TestAggregatePrefixSumAndEagerBuild(t *testing.T) {
	s := sheet.New("data", 101, 4)
	for r := 1; r <= 100; r++ {
		s.SetValue(cell.Addr{Row: r, Col: 0}, cell.Num(float64(r)))
	}
	for r := 1; r <= 20; r++ {
		mustFormula(t, s, cell.Addr{Row: r, Col: 1}, "=SUM(A$2:A$101)")
	}
	p := buildPlan(t, s)
	sp := p.SheetPlan("data")
	if !sp.PrefixServe(0) {
		t.Fatal("shared aggregates should be served from prefix sums")
	}
	cols := sp.EagerIndexCols()
	if len(cols) != 1 || cols[0] != 0 {
		t.Fatalf("EagerIndexCols = %v, want [0]", cols)
	}
}

func TestAggregateSingleUseScans(t *testing.T) {
	s := sheet.New("data", 101, 4)
	for r := 1; r <= 100; r++ {
		s.SetValue(cell.Addr{Row: r, Col: 0}, cell.Num(float64(r)))
	}
	mustFormula(t, s, cell.Addr{Row: 1, Col: 1}, "=SUM(A$2:A$101)")
	p := buildPlan(t, s)
	sp := p.SheetPlan("data")
	if sp.PrefixServe(0) {
		t.Fatal("a single aggregate should not pay a prefix fill")
	}
}

func TestRecalcPicksRegionChainForFillDown(t *testing.T) {
	s := lookupSheet(t, "data", func(r int) cell.Value { return cell.Num(float64(10 * r)) }, "")
	p := buildPlan(t, s)
	sp := p.SheetPlan("data")
	if !sp.UseRegionChain() {
		t.Fatal("regular fill-down sheet should sequence by regions")
	}
	if sp.Stats.Regions <= 0 || sp.Stats.Regions >= sp.Stats.Formulas {
		t.Fatalf("regions = %d of %d formulas, want meaningful compression",
			sp.Stats.Regions, sp.Stats.Formulas)
	}
}

func TestMaintenancePicksDeltas(t *testing.T) {
	s := sheet.New("data", 101, 4)
	for r := 1; r <= 100; r++ {
		s.SetValue(cell.Addr{Row: r, Col: 0}, cell.Num(float64(r)))
	}
	for r := 1; r <= 10; r++ {
		mustFormula(t, s, cell.Addr{Row: r, Col: 1}, "=SUM(A$2:A$101)")
	}
	p := buildPlan(t, s)
	sp := p.SheetPlan("data")
	if !sp.UseDeltas() {
		t.Fatal("edits against materialized aggregates should maintain deltas")
	}
	if sp.maint == nil || sp.maint.Chosen != Delta {
		t.Fatalf("maintenance choice = %+v, want %s", sp.maint, Delta)
	}
}

// TestPredictedRecalcCountsCrossSheetRefresh: recalculating a sheet costs
// its own formulas plus one more evaluation of the other sheets' formulas
// that read it (the engine's cross-sheet settle); the sheet's own readers
// of other sheets are not charged again. Once the sheets read one another
// in a cycle the engine refreshes by rounds, and every cross-sheet formula
// workbook-wide is charged once more.
func TestPredictedRecalcCountsCrossSheetRefresh(t *testing.T) {
	build := func(cyclic bool) *Plan {
		acc := sheet.New("accounts", 9, 4)
		for r := 1; r <= 8; r++ {
			acc.SetValue(cell.Addr{Row: r, Col: 0}, cell.Num(float64(r)))
			acc.SetValue(cell.Addr{Row: r, Col: 2}, cell.Num(float64(r*10)))
		}
		if cyclic {
			mustFormula(t, acc, cell.Addr{Row: 1, Col: 3}, "=COUNT(ledger!A2:A51)")
		}
		led := sheet.New("ledger", 51, 3)
		for r := 1; r <= 50; r++ {
			led.SetValue(cell.Addr{Row: r, Col: 0}, cell.Num(float64(1+r%8)))
			mustFormula(t, led, cell.Addr{Row: r, Col: 1},
				fmt.Sprintf("=VLOOKUP(A%d,accounts!A$2:C$9,3,FALSE)", r+1))
		}
		sum := sheet.New("summary", 3, 2)
		mustFormula(t, sum, cell.Addr{Row: 1, Col: 0}, "=SUM(ledger!B2:B51)")
		mustFormula(t, sum, cell.Addr{Row: 2, Col: 0}, "=A2*2")
		return buildPlan(t, led, acc, sum)
	}
	touches := func(m costmodel.Meter) int64 { return m.Count(costmodel.CellTouch) }

	p := build(false)
	led, sum := p.SheetPlan("ledger"), p.SheetPlan("summary")
	base := touches(led.Predicted)
	if ext := touches(led.PredictedExt); base == 0 || ext != base {
		t.Fatalf("ledger predicted touches base=%d ext=%d, want equal and positive (every formula reads accounts)", base, ext)
	}
	if got := touches(led.PredictedReads["accounts"]); got != base {
		t.Fatalf("ledger's reads of accounts = %d touches, want all of ledger's %d", got, base)
	}
	readers := touches(sum.PredictedReads["ledger"])
	if readers != 50 || readers == touches(sum.Predicted) {
		t.Fatalf("summary's reads of ledger = %d touches, want the SUM's 50 and not the local formula", readers)
	}
	if got := touches(p.PredictedRecalc("ledger")); got != base+readers {
		t.Fatalf("PredictedRecalc(ledger) = %d, want ledger's %d plus its readers' %d", got, base, readers)
	}
	if got, want := touches(p.PredictedRecalc("summary")), touches(sum.Predicted); got != want {
		t.Fatalf("PredictedRecalc(summary) = %d, want summary's own %d (nothing reads it)", got, want)
	}

	p = build(true)
	var all int64
	for _, sp := range p.Sheets {
		all += touches(sp.PredictedExt)
	}
	if got := touches(p.PredictedRecalc("ledger")); got != touches(p.SheetPlan("ledger").Predicted)+all {
		t.Fatalf("cyclic PredictedRecalc(ledger) = %d, want ledger's %d plus every cross-sheet formula's %d",
			got, touches(p.SheetPlan("ledger").Predicted), all)
	}
}

func TestStatsDistinctEstimate(t *testing.T) {
	low := sheet.New("low", 1001, 2)
	high := sheet.New("high", 1001, 2)
	for r := 1; r <= 1000; r++ {
		low.SetValue(cell.Addr{Row: r, Col: 0}, cell.Num(float64(r%10)))
		high.SetValue(cell.Addr{Row: r, Col: 0}, cell.Num(float64(r)))
	}
	cl := newCollector(low, nil, 0, newSheetCache(low), 0)
	ch := newCollector(high, nil, 0, newSheetCache(high), 0)
	if d := cl.Column(0).Distinct; d < 5 || d > 20 {
		t.Fatalf("low-cardinality distinct estimate = %d, want ~10", d)
	}
	if d := ch.Column(0).Distinct; d < 500 {
		t.Fatalf("high-cardinality distinct estimate = %d, want near 1000", d)
	}
}

func TestStatsCacheVersionKeyed(t *testing.T) {
	s := sheet.New("data", 101, 2)
	for r := 1; r <= 100; r++ {
		s.SetValue(cell.Addr{Row: r, Col: 0}, cell.Num(float64(r)))
	}
	for r := 1; r <= 10; r++ {
		mustFormula(t, s, cell.Addr{Row: r, Col: 1}, "=COUNTIF(A$2:A$101,3)")
	}
	wb := sheet.NewWorkbook()
	if err := wb.Add(s); err != nil {
		t.Fatal(err)
	}
	cache := NewCache()
	ver := int64(7)
	opt := Options{Cache: cache, ColVersion: func(string, int) int64 { return ver }}

	p1 := Build(wb, opt)
	if got := p1.StatColumns(); len(got) == 0 || got[0].Version != 7 {
		t.Fatalf("StatColumns = %+v, want version 7 entries", got)
	}
	d1 := p1.SheetPlan("data").Stats.Columns[0].Distinct

	// Mutate the column without bumping the version: the cached statistics
	// must be served unchanged (the consumer owns invalidation).
	for r := 1; r <= 100; r++ {
		s.SetValue(cell.Addr{Row: r, Col: 0}, cell.Num(1))
	}
	p2 := Build(wb, opt)
	if d2 := p2.SheetPlan("data").Stats.Columns[0].Distinct; d2 != d1 {
		t.Fatalf("same-version rebuild recollected: distinct %d -> %d", d1, d2)
	}

	// Bump the version: recollection must see the constant column.
	ver = 8
	p3 := Build(wb, opt)
	if d3 := p3.SheetPlan("data").Stats.Columns[0].Distinct; d3 != 1 {
		t.Fatalf("post-invalidation distinct = %d, want 1", d3)
	}
}

func TestCertifyValidPlan(t *testing.T) {
	s := lookupSheet(t, "data", func(r int) cell.Value { return cell.Num(float64(10 * r)) }, "")
	wb := sheet.NewWorkbook()
	if err := wb.Add(s); err != nil {
		t.Fatal(err)
	}
	p := Build(wb, Options{})
	cert := Certify(p, wb)
	if !cert.Valid {
		t.Fatalf("certificate invalid: %v", cert.Violations)
	}
	if cert.Checked == 0 || len(cert.Witnesses) == 0 {
		t.Fatalf("certificate checked=%d witnesses=%d, want positive", cert.Checked, len(cert.Witnesses))
	}
	if p.Certificate != cert {
		t.Fatal("certificate not attached to the plan")
	}
}

func TestCertifyDetectsBrokenPrecondition(t *testing.T) {
	s := lookupSheet(t, "data", func(r int) cell.Value { return cell.Num(float64(10 * r)) }, "")
	wb := sheet.NewWorkbook()
	if err := wb.Add(s); err != nil {
		t.Fatal(err)
	}
	p := Build(wb, Options{})
	// Break the ascending run after planning: certification re-verifies
	// against the concrete sheet and must object.
	s.SetValue(cell.Addr{Row: 50, Col: 0}, cell.Num(0))
	cert := Certify(p, wb)
	if cert.Valid {
		t.Fatal("certificate should flag the broken sorted run")
	}
}
