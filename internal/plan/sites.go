package plan

import (
	"sort"

	"repro/internal/cell"
	"repro/internal/costmodel"
	"repro/internal/formula"
	"repro/internal/sheet"
)

// This file enumerates the operation sites a plan decides strategies for,
// by walking every formula AST once. A site is keyed the way the engine
// presents it at run time — the concrete key column and row span after
// shifting relative references to the hosting cell — so absolutely
// anchored fill columns (the common workload shape) collapse to one site
// with a high instance count, and the amortization math is exact.

// lookupUse is the shape of one lookup call: the site it probes, and the
// function and match mode that price it when the site scans (the
// linear-cost baseline the chosen strategy replaces in the prediction).
type lookupUse struct {
	key    SiteKey
	target string // sheet holding the key column ("" = host sheet)
	fn     string // VLOOKUP or MATCH
	mode   int    // 0 exact, 1 approx ascending, -1 descending
}

// useCount is how many lookup calls of one shape (target, site, fn, mode)
// the sheet's formulas make: n in all of them, ext in cross-sheet ones.
type useCount struct {
	use    lookupUse
	n, ext int64
}

// siteSet accumulates the distinct sites of one sheet's formula
// population. It depends on the formula set alone, so a Cache keeps it
// across value edits; it is O(sites), never O(formulas).
type siteSet struct {
	// countIf maps column -> aggregate use (local COUNTIF with a literal
	// criterion — the shape the engine's index path serves).
	countIf map[int]*colSiteAgg
	// aggs maps column -> SUM/COUNT/AVERAGE use (local single-column).
	aggs map[int]*colSiteAgg
	// base is the work of evaluating every formula once apart from its
	// lookup calls (whose cost depends on the chosen strategies); extBase
	// is the share of cross-sheet formulas. uses counts the lookup calls,
	// in sorted key order: Build merges them into lookup sites, and the
	// predictor adds count × the chosen work.
	base, extBase costmodel.Meter
	uses          []useCount
}

type colSiteAgg struct {
	fn    string
	count int
	// span is the largest row span any instance covers (pricing uses the
	// worst case).
	r0, r1 int
	// equality is false when some COUNTIF instance uses a relational
	// criterion (the hash index cannot serve it; the B-tree can).
	equality bool
}

// collectSites walks the sheet's formulas once.
func collectSites(s *sheet.Sheet) *siteSet {
	set := &siteSet{
		countIf: make(map[int]*colSiteAgg),
		aggs:    make(map[int]*colSiteAgg),
	}
	uses := make(map[lookupUse]*useCount)
	s.EachFormula(func(at cell.Addr, fc sheet.Formula) bool {
		dr, dc := fc.DeltaAt(at)
		external := fc.Code.External
		// fm is the formula's lookup-free work: one evaluation, one touch
		// per single-cell precedent, and a scan of every range not served
		// by a classified lookup site (COUNTIF and aggregate sites are
		// charged as scans, see predictSheet).
		var fm costmodel.Meter
		fm.Add(costmodel.FormulaEval, 1)
		fm.Add(costmodel.CellTouch, int64(len(fc.Code.Refs)))
		extTables := make(map[formula.ExtRefNode]bool)
		localTables := make(map[formula.RangeNode]bool)
		formula.Walk(fc.Code.Root, func(n formula.Node) {
			call, ok := n.(formula.CallNode)
			if !ok {
				return
			}
			switch call.Name {
			case "MATCH", "VLOOKUP":
				use, en, ok := classifyLookup(call, dr, dc)
				if !ok {
					return
				}
				if use.target != "" {
					extTables[en] = true
				} else if rn, isLocal := call.Args[1].(formula.RangeNode); isLocal {
					localTables[rn] = true
				}
				uc, ok := uses[use]
				if !ok {
					uc = &useCount{use: use}
					uses[use] = uc
				}
				uc.n++
				if external {
					uc.ext++
				}
			case "COUNTIF":
				col, r0, r1, ok := localColumnArg(call, 0, 2, dr, dc)
				if !ok {
					return
				}
				lit, isLit := literalArg(call.Args[1])
				if !isLit {
					return
				}
				localTables[call.Args[0].(formula.RangeNode)] = true
				addMeter(&fm, scanCountWork(int64(r1-r0+1)))
				set.noteCol(set.countIf, call.Name, col, r0, r1, isEqualityCriterion(lit))
			case "SUM", "COUNT", "AVERAGE":
				col, r0, r1, ok := localColumnArg(call, 0, 1, dr, dc)
				if !ok {
					return
				}
				localTables[call.Args[0].(formula.RangeNode)] = true
				addMeter(&fm, scanAggWork(int64(r1-r0+1)))
				set.noteCol(set.aggs, call.Name, col, r0, r1, true)
			}
		})
		// Ranges not consumed by a classified site are plain scans in every
		// strategy; the predictor charges their cardinality.
		formula.Walk(fc.Code.Root, func(n formula.Node) {
			switch t := n.(type) {
			case formula.RangeNode:
				if !localTables[t] {
					fm.Add(costmodel.CellTouch, int64(shiftRange(t, dr, dc).Cells()))
				}
			case formula.ExtRefNode:
				if extTables[t] {
					return
				}
				if !t.IsRange {
					fm.Add(costmodel.CellTouch, 1)
					return
				}
				fm.Add(costmodel.CellTouch, int64(t.Range().Cells()))
			}
		})
		addMeter(&set.base, fm)
		if external {
			addMeter(&set.extBase, fm)
		}
		return true
	})
	set.uses = make([]useCount, 0, len(uses))
	for _, uc := range uses {
		set.uses = append(set.uses, *uc)
	}
	sort.Slice(set.uses, func(i, j int) bool { return set.uses[i].use.less(set.uses[j].use) })
	return set
}

// less orders lookup uses by target sheet, site key, function and mode.
func (u lookupUse) less(o lookupUse) bool {
	if u.target != o.target {
		return u.target < o.target
	}
	if u.key != o.key {
		return u.key.less(o.key)
	}
	if u.fn != o.fn {
		return u.fn < o.fn
	}
	return u.mode < o.mode
}

func (set *siteSet) noteCol(m map[int]*colSiteAgg, fn string, col, r0, r1 int, equality bool) {
	agg, ok := m[col]
	if !ok {
		agg = &colSiteAgg{fn: fn, r0: r0, r1: r1, equality: equality}
		m[col] = agg
	}
	if fn < agg.fn {
		agg.fn = fn
	}
	agg.count++
	if r0 < agg.r0 {
		agg.r0 = r0
	}
	if r1 > agg.r1 {
		agg.r1 = r1
	}
	if !equality {
		agg.equality = false
	}
}

// firstFnMode merges the function and match mode of two uses sharing one
// site: the alphabetically first function, then the lower mode. Formulas
// are visited in no particular order, so the merge must not depend on it;
// a plan labels and prices a mixed site the same way on every build.
func firstFnMode(fn string, mode int, fn2 string, mode2 int) (string, int) {
	if fn2 < fn || (fn2 == fn && mode2 < mode) {
		return fn2, mode2
	}
	return fn, mode
}

// classifyLookup extracts a MATCH/VLOOKUP call's site: the key column and
// span (local ranges shifted to the host cell; cross-sheet tables in the
// foreign sheet's coordinates), the literal match mode, and the table
// cardinality. Calls with dynamic mode arguments or non-range tables are
// not classifiable — the engine's behavior for them is not planned.
func classifyLookup(call formula.CallNode, dr, dc int) (lookupUse, formula.ExtRefNode, bool) {
	var use lookupUse
	var en formula.ExtRefNode
	minArgs := 2
	if call.Name == "VLOOKUP" {
		minArgs = 3
	}
	if len(call.Args) < minArgs {
		return use, en, false
	}
	mode, ok := lookupMode(call)
	if !ok {
		return use, en, false
	}
	var r cell.Range
	switch t := call.Args[1].(type) {
	case formula.RangeNode:
		r = shiftRange(t, dr, dc)
	case formula.ExtRefNode:
		if !t.IsRange {
			return use, en, false
		}
		en = t
		r = t.Range()
		use.target = t.Sheet
	default:
		return use, en, false
	}
	if call.Name == "MATCH" && r.Start.Col != r.End.Col {
		return use, en, false // only column MATCH has a key column
	}
	use.fn = call.Name
	use.mode = mode
	use.key = SiteKey{Col: r.Start.Col, R0: r.Start.Row, R1: r.End.Row, Exact: mode == 0}
	return use, en, true
}

// lookupMode parses the literal match-mode argument: MATCH's third (number
// literal; default 1) or VLOOKUP's fourth (bool/number literal; default
// approximate).
func lookupMode(call formula.CallNode) (int, bool) {
	switch call.Name {
	case "MATCH":
		if len(call.Args) < 3 {
			return 1, true
		}
		lit, ok := call.Args[2].(formula.NumberLit)
		if !ok {
			return 0, false
		}
		switch {
		case float64(lit) == 0:
			return 0, true
		case float64(lit) < 0:
			return -1, true
		}
		return 1, true
	default: // VLOOKUP
		if len(call.Args) < 4 {
			return 1, true
		}
		switch lit := call.Args[3].(type) {
		case formula.BoolLit:
			if !bool(lit) {
				return 0, true
			}
			return 1, true
		case formula.NumberLit:
			if float64(lit) == 0 {
				return 0, true
			}
			return 1, true
		}
		return 0, false
	}
}

// localColumnArg extracts a single-column local range argument at index i
// from a call with exactly want arguments.
func localColumnArg(call formula.CallNode, i, want, dr, dc int) (col, r0, r1 int, ok bool) {
	if len(call.Args) != want {
		return 0, 0, 0, false
	}
	rn, isRange := call.Args[i].(formula.RangeNode)
	if !isRange {
		return 0, 0, 0, false
	}
	r := shiftRange(rn, dr, dc)
	if r.Start.Col != r.End.Col {
		return 0, 0, 0, false
	}
	return r.Start.Col, r.Start.Row, r.End.Row, true
}

// literalArg extracts a literal scalar argument.
func literalArg(n formula.Node) (cell.Value, bool) {
	switch t := n.(type) {
	case formula.NumberLit:
		return cell.Num(float64(t)), true
	case formula.StringLit:
		return cell.Str(string(t)), true
	case formula.BoolLit:
		return cell.Boolean(bool(t)), true
	}
	return cell.Value{}, false
}

// isEqualityCriterion reports whether a COUNTIF criterion literal is an
// equality probe (servable by the hash index) rather than a relational
// one ("<x", ">=y" — B-tree territory).
func isEqualityCriterion(v cell.Value) bool {
	if v.Kind != cell.Text {
		return true
	}
	op, _, eq := formula.CompileCriterion(v).Shape()
	_ = op
	return eq
}

// shiftRef translates a reference by the host displacement, honoring
// absolute anchors.
func shiftRef(r cell.Ref, dr, dc int) cell.Addr {
	a := r.Addr
	if !r.AbsRow {
		a.Row += dr
	}
	if !r.AbsCol {
		a.Col += dc
	}
	return a
}

// shiftRange translates a range node by the host displacement.
func shiftRange(rn formula.RangeNode, dr, dc int) cell.Range {
	return cell.RangeOf(shiftRef(rn.From, dr, dc), shiftRef(rn.To, dr, dc))
}
