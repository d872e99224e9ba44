package analyze

import (
	"fmt"

	"repro/internal/absint"
	"repro/internal/cell"
	"repro/internal/costmodel"
	"repro/internal/plan"
	"repro/internal/sheet"
)

// This file implements the lookup-aware half of the cost model plus
// RuleUnsortedLookup. Lookup calls are read by the plan package's site
// classifier (plan.EachUse) and priced by its lookup work functions; what
// this file adds is which path the optimized engine takes, from the
// abstract-interpretation value analysis (internal/absint): a MATCH or
// VLOOKUP whose key column is certified ascending is served by binary
// search (internal/formula/funcs_lookup.go), and an exact-match VLOOKUP
// over a local range is served by the hash column index — so charging
// either one a full linear scan would systematically overestimate
// recalculation cost and mask the formulas that genuinely scan.

// lookupView lazily derives the sheet facts the lookup rules need from
// the analyzer's shared inference. The column certificates and the
// concrete sortedness rescans only materialize when the sheet actually
// contains a classifiable lookup, so lookup-free sheets pay nothing and
// their reports are unchanged.
type lookupView struct {
	s    *sheet.Sheet
	inf  *absint.Inference
	cert *absint.SheetCert
	runs map[[3]int]bool // (col, r0, r1) -> SortedAscRun, memoized
}

func newLookupView(s *sheet.Sheet, inf *absint.Inference) *lookupView {
	return &lookupView{s: s, inf: inf}
}

func (lv *lookupView) certFor() *absint.SheetCert {
	if lv.cert == nil {
		lv.cert = lv.inf.Certify()
	}
	return lv.cert
}

// sortedAsc reports whether rows [r0, r1] of the column form an ascending
// all-Number run: statically via the column certificate when it covers the
// span, otherwise by the same concrete rescan the engine's lazy
// certification performs (memoized per span).
func (lv *lookupView) sortedAsc(col, r0, r1 int) bool {
	if r0 > r1 || r0 < 0 {
		return false
	}
	if cc := lv.certFor().Column(col); cc != nil && cc.CoversAsc(r0, r1) {
		return true
	}
	k := [3]int{col, r0, r1}
	if v, ok := lv.runs[k]; ok {
		return v
	}
	v := absint.SortedAscRun(lv.s, col, r0, r1)
	if lv.runs == nil {
		lv.runs = make(map[[3]int]bool)
	}
	lv.runs[k] = v
	return v
}

// servedSubLinear reports whether the optimized engine answers this local
// lookup without scanning the table: exact VLOOKUP probes the hash column
// index, and any ascending-certified key column is binary-searched.
func (lv *lookupView) servedSubLinear(u plan.Use) bool {
	if u.Fn == "VLOOKUP" && u.Mode == 0 {
		return true
	}
	if u.Mode < 0 {
		return false // descending MATCH has no certified fast path
	}
	return lv.sortedAsc(u.Col, u.R0, u.R1)
}

// sortednessUnknown reports whether the span's concrete ascending-run check
// is uninformative: some cell is a formula whose result is not cached yet
// (the workbook has never been evaluated — the normal state for a static
// analysis run). The engine evaluates before it rescans, so a certificate
// the rescan would issue post-evaluation is invisible here; an unknown run
// is not evidence of unsortedness.
func (lv *lookupView) sortednessUnknown(col, r0, r1 int) bool {
	for row := r0; row <= r1; row++ {
		a := cell.Addr{Row: row, Col: col}
		if _, isFormula := lv.s.Formula(a); isFormula && lv.s.Value(a).IsEmpty() {
			return true
		}
	}
	return false
}

// estEvalCells is the lookup-aware replacement for PrecedentCells in the
// per-formula cost model. A local lookup served sub-linearly is charged
// plan's binary-search price instead of its table's cardinality (the
// hash-index path is cheaper still, but the binary-search bound keeps the
// estimate conservative with respect to the index's amortized build).
// Cross-sheet reads, which PrecedentCells never counts, are added: an
// approximate cross-sheet lookup binary-searches under the optimized
// profile's policy (no certificate needed), an exact or descending one
// scans the foreign key column, and every other cross-sheet reference is
// read in full.
func (lv *lookupView) estEvalCells(f formulaSite) int64 {
	est := int64(f.code.PrecedentCells())
	plan.EachUse(f.code.Root, f.dr, f.dc, func(u plan.Use) {
		switch {
		case u.Sheet == "":
			if u.Kind == plan.LookupUse && lv.servedSubLinear(u) {
				est += lookupTouches(u, true) - int64(u.Cells)
			}
		case u.Kind == plan.LookupUse:
			est += lookupTouches(u, u.Mode > 0)
		default:
			est += int64(u.Cells)
		}
	})
	if est < 1 && f.code.PrecedentCells() > 0 {
		est = 1
	}
	return est
}

// lookupTouches is plan's cell-read price of one lookup evaluation, by
// binary search or by linear scan.
func lookupTouches(u plan.Use, binary bool) int64 {
	w := plan.ScanLookupWork(u.Fn, u.Mode, u.Span())
	if binary {
		w = plan.BinSearchLookupWork(u.Fn, u.Span(), true, 1)
	}
	return w.Count(costmodel.CellTouch)
}

// checkUnsortedLookup implements RuleUnsortedLookup: a lookup that scans a
// numeric key column linearly when sorting that column ascending would
// certify an O(log n) binary search. Exact VLOOKUPs are exempt (the hash
// index already serves them), as is MATCH's descending mode (the ordering
// is the formula's stated contract). Cost is the cells scanned per
// evaluation — the saving sorting would unlock.
func checkUnsortedLookup(e *emitter, s *sheet.Sheet, f formulaSite, lv *lookupView, opt Options) {
	plan.EachUse(f.code.Root, f.dr, f.dc, func(u plan.Use) {
		if u.Kind != plan.LookupUse || u.Sheet != "" {
			return
		}
		cells := u.Span()
		if cells < int64(opt.UnsortedLookupMin) {
			return
		}
		// Served lookups are already fast, and a descending MATCH states its
		// order as its contract.
		if u.Mode < 0 || lv.servedSubLinear(u) {
			return
		}
		// Only numeric key columns can certify: sorting a mixed-kind
		// column would not unlock the binary-search path.
		cc := lv.certFor().Column(u.Col)
		if cc == nil || cc.NumericFrom > u.R0 || cc.R1 < u.R1 {
			return
		}
		// A formula key column with uncached results cannot be called
		// unsorted: once evaluated, the engine's rescan may well certify it
		// ascending and serve this very lookup by binary search (it would
		// then carry a SortedAsc certificate the static pass cannot see).
		// Advising a sort there double-reports an already-fast lookup.
		if cc.HasFormula && lv.sortednessUnknown(u.Col, u.R0, u.R1) {
			return
		}
		bs := plan.BinSearchLookupWork(u.Fn, cells, true, 1)
		probes := bs.Count(costmodel.Compare)
		e.emit(Finding{
			Rule:     RuleUnsortedLookup,
			Severity: Info,
			Sheet:    s.Name,
			Cell:     f.at.A1(),
			Message: fmt.Sprintf("%s scans %s (%d cells) linearly; the numeric key column is not sorted — sorting it ascending would certify an O(log n) binary search (~%d probes)",
				u.Fn, spanText(u), cells, probes),
			Cost: cells,
		})
	})
}

// spanText renders the searched key span in A1 notation.
func spanText(u plan.Use) string {
	from := cell.Addr{Row: u.R0, Col: u.Col}.A1()
	if u.R1 == u.R0 {
		return from
	}
	return from + ":" + cell.Addr{Row: u.R1, Col: u.Col}.A1()
}
