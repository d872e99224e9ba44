package analyze

import (
	"fmt"

	"repro/internal/absint"
	"repro/internal/cell"
	"repro/internal/formula"
	"repro/internal/sheet"
)

// This file implements the lookup-aware half of the cost model plus
// RuleUnsortedLookup. Both consume the abstract-interpretation value
// analysis (internal/absint): a MATCH or VLOOKUP whose key column is
// certified ascending is served by binary search in the optimized engine
// (internal/formula/funcs_lookup.go), and an exact-match VLOOKUP over a
// local range is served by the hash column index — so charging either one
// a full linear scan would systematically overestimate recalculation cost
// and mask the formulas that genuinely scan.

// lookupSite is one statically classifiable lookup call: the searched key
// column and row span on the host sheet, the full cell cardinality of the
// range argument (what PrecedentCells charges for it), and the match mode.
type lookupSite struct {
	fn     string // "MATCH" or "VLOOKUP"
	col    int    // key column after displacement
	r0, r1 int    // searched row span, inclusive
	// tableCells is the range argument's cardinality — the linear-scan
	// charge the sub-linear paths replace.
	tableCells int
	// mode is 0 for exact match, 1 for approximate ascending, -1 for
	// MATCH's descending mode.
	mode int
}

func (ls lookupSite) span() int64 { return int64(ls.r1 - ls.r0 + 1) }

// lookupSitesIn extracts the lookup calls of one formula that the cost
// model can classify: MATCH over a single local column, and VLOOKUP over a
// local table (key column = leftmost). Cross-sheet lookups are skipped —
// PrecedentCells never charged their cells in the first place — as are
// calls whose mode argument is not a literal.
func lookupSitesIn(f formulaSite) []lookupSite {
	var out []lookupSite
	formula.Walk(f.code.Root, func(n formula.Node) {
		call, ok := n.(formula.CallNode)
		if !ok {
			return
		}
		switch call.Name {
		case "MATCH":
			if len(call.Args) < 2 {
				return
			}
			rn, ok := call.Args[1].(formula.RangeNode)
			if !ok {
				return
			}
			mode := 1
			if len(call.Args) >= 3 {
				lit, ok := call.Args[2].(formula.NumberLit)
				if !ok {
					return // dynamic mode: not statically classifiable
				}
				switch {
				case float64(lit) == 0:
					mode = 0
				case float64(lit) < 0:
					mode = -1
				}
			}
			r := shiftRange(rn, f.dr, f.dc)
			if r.Start.Col != r.End.Col {
				return // only column MATCH has a key column
			}
			out = append(out, lookupSite{fn: call.Name, col: r.Start.Col,
				r0: r.Start.Row, r1: r.End.Row, tableCells: r.Cells(), mode: mode})
		case "VLOOKUP":
			if len(call.Args) < 3 {
				return
			}
			rn, ok := call.Args[1].(formula.RangeNode)
			if !ok {
				return
			}
			mode := 1
			if len(call.Args) >= 4 {
				switch lit := call.Args[3].(type) {
				case formula.BoolLit:
					if !bool(lit) {
						mode = 0
					}
				case formula.NumberLit:
					if float64(lit) == 0 {
						mode = 0
					}
				default:
					return
				}
			}
			r := shiftRange(rn, f.dr, f.dc)
			out = append(out, lookupSite{fn: call.Name, col: r.Start.Col,
				r0: r.Start.Row, r1: r.End.Row, tableCells: r.Cells(), mode: mode})
		}
	})
	return out
}

// extLookupCells estimates the cells the optimized engine reads to serve
// one formula's cross-sheet references, which PrecedentCells never counts
// (they live outside the host sheet's dependency graph). Classifiable
// cross-sheet lookups are charged their algorithm's bound — approximate
// matches binary-search under the optimized profile's policy (no
// certificate needed), exact matches scan the foreign key column with
// early exit (no hash index serves a foreign table), expected half the
// span plus the result read. Every other cross-sheet range is charged its
// full cardinality, the aggregate-scan cost.
func extLookupCells(f formulaSite) int64 {
	var est int64
	lookupTables := make(map[formula.ExtRefNode]bool)
	formula.Walk(f.code.Root, func(n formula.Node) {
		call, ok := n.(formula.CallNode)
		if !ok || len(call.Args) < 2 {
			return
		}
		en, ok := call.Args[1].(formula.ExtRefNode)
		if !ok || !en.IsRange {
			return
		}
		span := int64(en.To.Addr.Row - en.From.Addr.Row + 1)
		if span < 1 {
			return
		}
		switch call.Name {
		case "MATCH":
			mode := 1
			if len(call.Args) >= 3 {
				lit, ok := call.Args[2].(formula.NumberLit)
				if !ok {
					return // dynamic mode: charged as a plain range below
				}
				switch {
				case float64(lit) == 0:
					mode = 0
				case float64(lit) < 0:
					mode = -1
				}
			}
			lookupTables[en] = true
			switch {
			case mode > 0:
				est += ceilLog2(span) + 1 // policy binary search
			case mode == 0:
				est += (span + 1) / 2 // early-exit scan, expected half
			default:
				est += span // descending scan
			}
		case "VLOOKUP":
			if len(call.Args) < 3 {
				return
			}
			mode := 1
			if len(call.Args) >= 4 {
				switch lit := call.Args[3].(type) {
				case formula.BoolLit:
					if !bool(lit) {
						mode = 0
					}
				case formula.NumberLit:
					if float64(lit) == 0 {
						mode = 0
					}
				default:
					return
				}
			}
			lookupTables[en] = true
			if mode > 0 {
				est += ceilLog2(span) + 2 // binary search + result read
			} else {
				est += (span+1)/2 + 1 // early-exit key scan + result read
			}
		}
	})
	formula.Walk(f.code.Root, func(n formula.Node) {
		en, ok := n.(formula.ExtRefNode)
		if !ok || lookupTables[en] {
			return
		}
		if !en.IsRange {
			est++
			return
		}
		est += int64(en.Range().Cells())
	})
	return est
}

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

// servedSubLinear reports whether the optimized engine answers this lookup
// without scanning the table: exact VLOOKUP probes the hash column index,
// and any ascending-certified key column is binary-searched.
func (lv *lookupView) servedSubLinear(ls lookupSite) bool {
	if ls.fn == "VLOOKUP" && ls.mode == 0 {
		return true
	}
	if ls.mode < 0 {
		return false // descending MATCH has no certified fast path
	}
	return lv.sortedAsc(ls.col, ls.r0, ls.r1)
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
// per-formula cost model: sub-linearly served lookups are charged their
// probe count (ceil(log2 n) key comparisons plus the result read) instead
// of the table's full cardinality. The hash-index path is cheaper still,
// but charging it the binary-search bound keeps the estimate conservative
// with respect to the index's amortized build cost.
func (lv *lookupView) estEvalCells(f formulaSite) int64 {
	est := int64(f.code.PrecedentCells())
	for _, ls := range lookupSitesIn(f) {
		if !lv.servedSubLinear(ls) {
			continue
		}
		est -= int64(ls.tableCells)
		est += ceilLog2(ls.span()) + 2
	}
	est += extLookupCells(f)
	if est < 1 && f.code.PrecedentCells() > 0 {
		est = 1
	}
	return est
}

// checkUnsortedLookup implements RuleUnsortedLookup: a lookup that scans a
// numeric key column linearly when sorting that column ascending would
// certify an O(log n) binary search. Exact VLOOKUPs are exempt (the hash
// index already serves them), as is MATCH's descending mode (the ordering
// is the formula's stated contract). Cost is the cells scanned per
// evaluation — the saving sorting would unlock.
func checkUnsortedLookup(e *emitter, s *sheet.Sheet, f formulaSite, lv *lookupView, opt Options) {
	for _, ls := range lookupSitesIn(f) {
		cells := ls.span()
		if cells < int64(opt.UnsortedLookupMin) {
			continue
		}
		if ls.fn == "VLOOKUP" && ls.mode == 0 {
			continue
		}
		if ls.mode < 0 {
			continue
		}
		if lv.sortedAsc(ls.col, ls.r0, ls.r1) {
			continue
		}
		// Only numeric key columns can certify: sorting a mixed-kind
		// column would not unlock the binary-search path.
		cc := lv.certFor().Column(ls.col)
		if cc == nil || cc.NumericFrom > ls.r0 || cc.R1 < ls.r1 {
			continue
		}
		// A formula key column with uncached results cannot be called
		// unsorted: once evaluated, the engine's rescan may well certify it
		// ascending and serve this very lookup by binary search (it would
		// then carry a SortedAsc certificate the static pass cannot see).
		// Advising a sort there double-reports an already-fast lookup.
		if cc.HasFormula && lv.sortednessUnknown(ls.col, ls.r0, ls.r1) {
			continue
		}
		e.emit(Finding{
			Rule:     RuleUnsortedLookup,
			Severity: Info,
			Sheet:    s.Name,
			Cell:     f.at.A1(),
			Message: fmt.Sprintf("%s scans %s (%d cells) linearly; the numeric key column is not sorted — sorting it ascending would certify an O(log n) binary search (~%d probes)",
				ls.fn, spanText(ls), cells, ceilLog2(cells)+1),
			Cost: cells,
		})
	}
}

// spanText renders the searched key span in A1 notation.
func spanText(ls lookupSite) string {
	from := cell.Addr{Row: ls.r0, Col: ls.col}.A1()
	if ls.r1 == ls.r0 {
		return from
	}
	return from + ":" + cell.Addr{Row: ls.r1, Col: ls.col}.A1()
}
