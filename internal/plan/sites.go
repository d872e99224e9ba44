package plan

import (
	"slices"
	"sort"

	"repro/internal/cell"
	"repro/internal/costmodel"
	"repro/internal/formula"
	"repro/internal/sheet"
)

// This file is the one reader of operation sites out of formula ASTs.
// EachUse classifies a formula's calls; the plan, the static analyzer
// (internal/analyze) and the optimized profile's install pre-flight
// (internal/engine) all consume its uses, so a new site shape or a pricing
// fix lands here once. A site is keyed the way the engine presents it at
// run time — the concrete key column and row span after shifting relative
// references to the hosting cell — so absolutely anchored fill columns
// (the common workload shape) collapse to one site with a high instance
// count, and the amortization math is exact.

// UseKind is the shape of one formula site.
type UseKind uint8

const (
	// ScanUse is a range or cross-sheet reference no classified call
	// consumes: every strategy reads all of its cells.
	ScanUse UseKind = iota
	// LookupUse is a MATCH (over one column) or VLOOKUP with a literal
	// match mode and a range table, local or cross-sheet.
	LookupUse
	// CountIfUse is a COUNTIF over one local column with a literal
	// criterion — the shape the engine's index path serves.
	CountIfUse
	// AggUse is a SUM, COUNT or AVERAGE of one local single-column range —
	// the shape prefix sums serve.
	AggUse
)

// Use is one site of a formula. Every range is shifted to the hosting
// cell, the way the evaluator reads it; a cross-sheet one lies in the
// foreign sheet's coordinates.
type Use struct {
	Kind UseKind
	// Fn is the classified call's function name ("" for ScanUse).
	Fn string
	// Mode is a lookup's match mode: 0 exact, 1 approximate ascending, -1
	// descending.
	Mode int
	// Sheet is the sheet the range lives on; "" is the host sheet.
	Sheet string
	// Col, R0 and R1 are a classified use's key or aggregated column and
	// its row span.
	Col, R0, R1 int
	// Cells is the range argument's cardinality: what a full scan reads.
	Cells int
	// Crit is a CountIfUse's literal criterion.
	Crit cell.Value
}

// Span is the row count of a classified use's column span.
func (u Use) Span() int64 { return int64(u.R1 - u.R0 + 1) }

// equality reports whether a CountIfUse's criterion is an equality probe
// (servable by the hash index) rather than a relational one ("<x", ">=y"
// — B-tree territory).
func (u Use) equality() bool {
	if u.Crit.Kind != cell.Text {
		return true
	}
	_, _, eq := formula.CompileCriterion(u.Crit).Shape()
	return eq
}

// EachUse calls visit for every site of a formula hosted with displacement
// (dr, dc) from its authored origin, in pre-order: each classified call,
// and each range or cross-sheet reference that no classified call
// consumes. Calls whose shape is not classifiable (dynamic match modes,
// non-range tables, criteria that are not literals) are walked into, so
// their ranges report as scans. It allocates nothing.
func EachUse(n formula.Node, dr, dc int, visit func(Use)) {
	switch t := n.(type) {
	case formula.CallNode:
		u, table, ok := classify(t, dr, dc)
		if ok {
			visit(u)
		} else {
			table = -1
		}
		for i, a := range t.Args {
			if i != table {
				EachUse(a, dr, dc, visit)
			}
		}
	case formula.BinaryNode:
		EachUse(t.L, dr, dc, visit)
		EachUse(t.R, dr, dc, visit)
	case formula.UnaryNode:
		EachUse(t.X, dr, dc, visit)
	case formula.RangeNode:
		visit(Use{Cells: t.Shift(dr, dc).Cells()})
	case formula.ExtRefNode:
		visit(Use{Sheet: t.Sheet, Cells: t.Shift(dr, dc).Cells()})
	}
}

// Classify reads the site of one call node hosted with displacement
// (dr, dc); ok is false for any other node and for an unclassifiable call.
func Classify(n formula.Node, dr, dc int) (u Use, ok bool) {
	call, isCall := n.(formula.CallNode)
	if !isCall {
		return Use{}, false
	}
	u, _, ok = classify(call, dr, dc)
	return u, ok
}

// classify reads one call's site and the index of the range argument it
// consumes.
func classify(call formula.CallNode, dr, dc int) (Use, int, bool) {
	switch call.Name {
	case "MATCH", "VLOOKUP":
		u, ok := classifyLookup(call, dr, dc)
		return u, 1, ok
	case "COUNTIF":
		u, ok := localColumnArg(call, 2, dr, dc)
		if !ok {
			return u, 0, false
		}
		u.Crit, ok = formula.LiteralValue(call.Args[1])
		u.Kind = CountIfUse
		return u, 0, ok
	case "SUM", "COUNT", "AVERAGE":
		u, ok := localColumnArg(call, 1, dr, dc)
		u.Kind = AggUse
		return u, 0, ok
	}
	return Use{}, 0, false
}

// classifyLookup reads a MATCH/VLOOKUP call's site: the key column and
// span (the table shifted to the host cell, a cross-sheet one in the
// foreign sheet's coordinates) and the literal match mode. Calls with
// dynamic mode arguments or non-range tables are not classifiable — the
// engine's behavior for them is not planned.
func classifyLookup(call formula.CallNode, dr, dc int) (Use, bool) {
	u := Use{Kind: LookupUse, Fn: call.Name}
	minArgs := 2
	if call.Name == "VLOOKUP" {
		minArgs = 3
	}
	if len(call.Args) < minArgs {
		return u, false
	}
	mode, ok := lookupMode(call)
	if !ok {
		return u, false
	}
	var r cell.Range
	switch t := call.Args[1].(type) {
	case formula.RangeNode:
		r = t.Shift(dr, dc)
	case formula.ExtRefNode:
		if !t.IsRange {
			return u, false
		}
		r = t.Shift(dr, dc)
		u.Sheet = t.Sheet
	default:
		return u, false
	}
	if call.Name == "MATCH" && r.Start.Col != r.End.Col {
		return u, false // only column MATCH has a key column
	}
	u.Mode = mode
	u.Col, u.R0, u.R1 = r.Start.Col, r.Start.Row, r.End.Row
	u.Cells = r.Cells()
	return u, true
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

// localColumnArg reads the single-column local range that is the first
// argument of a call with exactly want arguments.
func localColumnArg(call formula.CallNode, want, dr, dc int) (Use, bool) {
	if len(call.Args) != want {
		return Use{}, false
	}
	rn, isRange := call.Args[0].(formula.RangeNode)
	if !isRange {
		return Use{}, false
	}
	r := rn.Shift(dr, dc)
	if r.Start.Col != r.End.Col {
		return Use{}, false
	}
	return Use{Fn: call.Name, Col: r.Start.Col, R0: r.Start.Row, R1: r.End.Row, Cells: r.Cells()}, true
}

// sharedAggMin is how many single-column aggregate calls over one column
// justify building its prefix sums at install time.
const sharedAggMin = 2

// SharedAggColumns returns, ascending, the columns that two or more
// AggUse sites of the sheet's formulas aggregate: the optimized profile's
// fixed eager-build rule. The planned profile prices the same decision
// per column instead (SheetPlan.EagerIndexCols).
func SharedAggColumns(s *sheet.Sheet) []int {
	counts := make(map[int]int)
	s.EachFormula(func(at cell.Addr, fc sheet.Formula) bool {
		dr, dc := fc.DeltaAt(at)
		EachUse(fc.Code.Root, dr, dc, func(u Use) {
			if u.Kind == AggUse {
				counts[u.Col]++
			}
		})
		return true
	})
	var cols []int
	for col, n := range counts {
		if n >= sharedAggMin {
			cols = append(cols, col)
		}
	}
	sortInts(cols)
	return cols
}

// lookupUse is the shape of one lookup call as the plan groups them: the
// site it probes, and the function and match mode that price it when the
// site scans (the linear-cost baseline the chosen strategy replaces in the
// prediction).
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
	// countIf maps column -> CountIfUse sites.
	countIf map[int]*colSiteAgg
	// aggs maps column -> AggUse sites.
	aggs map[int]*colSiteAgg
	// base is the work of evaluating every formula once apart from its
	// lookup calls (whose cost depends on the chosen strategies); extBase
	// is the share of cross-sheet formulas. uses counts the lookup calls,
	// in sorted key order: Build merges them into lookup sites, and the
	// predictor adds count × the chosen work.
	base, extBase costmodel.Meter
	uses          []useCount
	// reads holds, per foreign sheet name, the share of the formulas that
	// read that sheet; nil when no formula reads another sheet.
	reads map[string]*readShare
}

// readShare is the work of the formulas that read one foreign sheet: their
// lookup-free base and their lookup calls by shape.
type readShare struct {
	base costmodel.Meter
	uses map[lookupUse]int64
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
	// The foreign sheets and the lookup calls of the formula at hand.
	var foreign []string
	var calls []lookupUse
	s.EachFormula(func(at cell.Addr, fc sheet.Formula) bool {
		dr, dc := fc.DeltaAt(at)
		external := fc.Code.External
		foreign, calls = foreign[:0], calls[:0]
		// fm is the formula's lookup-free work: one evaluation, one touch
		// per single-cell precedent, and a scan of every range not served
		// by a lookup site (COUNTIF and aggregate sites are charged as
		// scans, see predictSheet).
		var fm costmodel.Meter
		fm.Add(costmodel.FormulaEval, 1)
		fm.Add(costmodel.CellTouch, int64(len(fc.Code.Refs)))
		EachUse(fc.Code.Root, dr, dc, func(u Use) {
			if u.Sheet != "" && !slices.Contains(foreign, u.Sheet) {
				foreign = append(foreign, u.Sheet)
			}
			switch u.Kind {
			case ScanUse:
				fm.Add(costmodel.CellTouch, int64(u.Cells))
			case LookupUse:
				key := lookupUse{
					key:    SiteKey{Col: u.Col, R0: u.R0, R1: u.R1, Exact: u.Mode == 0},
					target: u.Sheet, fn: u.Fn, mode: u.Mode,
				}
				uc, ok := uses[key]
				if !ok {
					uc = &useCount{use: key}
					uses[key] = uc
				}
				uc.n++
				if external {
					uc.ext++
				}
				calls = append(calls, key)
			case CountIfUse:
				addMeter(&fm, scanCountWork(u.Span()))
				set.noteCol(set.countIf, u, u.equality())
			case AggUse:
				addMeter(&fm, scanAggWork(u.Span()))
				set.noteCol(set.aggs, u, true)
			}
		})
		addMeter(&set.base, fm)
		if external {
			addMeter(&set.extBase, fm)
		}
		for _, name := range foreign {
			set.noteRead(name, fm, calls)
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

// noteRead adds one formula reading the named foreign sheet: its
// lookup-free work fm and its lookup calls.
func (set *siteSet) noteRead(name string, fm costmodel.Meter, calls []lookupUse) {
	if set.reads == nil {
		set.reads = make(map[string]*readShare)
	}
	r := set.reads[name]
	if r == nil {
		r = &readShare{uses: make(map[lookupUse]int64)}
		set.reads[name] = r
	}
	addMeter(&r.base, fm)
	for _, c := range calls {
		r.uses[c]++
	}
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

func (set *siteSet) noteCol(m map[int]*colSiteAgg, u Use, equality bool) {
	agg, ok := m[u.Col]
	if !ok {
		agg = &colSiteAgg{fn: u.Fn, r0: u.R0, r1: u.R1, equality: equality}
		m[u.Col] = agg
	}
	if u.Fn < agg.fn {
		agg.fn = u.Fn
	}
	agg.count++
	if u.R0 < agg.r0 {
		agg.r0 = u.R0
	}
	if u.R1 > agg.r1 {
		agg.r1 = u.R1
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
