package analyze

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/formula"
	"repro/internal/graph"
	"repro/internal/sheet"
)

// checkVolatile implements RuleVolatile: a volatile formula recomputes on
// every calculation pass, and so does everything downstream of it. The
// finding's Cost is the blast radius — the transitive-dependent count.
func checkVolatile(e *emitter, s *sheet.Sheet, g *graph.Graph, f formulaSite) {
	if !f.code.Volatile {
		return
	}
	name := ""
	formula.Walk(f.code.Root, func(n formula.Node) {
		if c, ok := n.(formula.CallNode); ok && name == "" && formula.IsVolatileFunc(c.Name) {
			name = c.Name
		}
	})
	blast := len(g.TransitiveDependents(f.at))
	sev := Warn
	if blast > 0 {
		sev = High
	}
	e.emit(Finding{
		Rule:     RuleVolatile,
		Severity: sev,
		Sheet:    s.Name,
		Cell:     f.at.A1(),
		Message: fmt.Sprintf("%s is volatile: this cell and %d transitive dependent(s) recompute on every calculation pass",
			name, blast),
		Cost: int64(blast),
	})
}

// checkWideRange implements RuleWideRange: a precedent range at or above
// WideRangeCells cells makes this formula scan-bound — the paper's
// aggregate-over-500k-rows pathology. Cost is the scanned cell count.
func checkWideRange(e *emitter, s *sheet.Sheet, f formulaSite, opt Options) {
	formula.Walk(f.code.Root, func(n formula.Node) {
		rn, ok := n.(formula.RangeNode)
		if !ok {
			return
		}
		r := rn.Shift(f.dr, f.dc)
		cells := r.Cells()
		if cells < opt.WideRangeCells {
			return
		}
		e.emit(Finding{
			Rule:     RuleWideRange,
			Severity: Warn,
			Sheet:    s.Name,
			Cell:     f.at.A1(),
			Message: fmt.Sprintf("range %s spans %d cells; every edit inside it re-scans the whole range",
				r, cells),
			Cost: int64(cells),
		})
	})
}

// checkConstFold implements RuleConstFold: maximal operation subtrees built
// only from literals evaluate to the same value forever and could be folded
// at compile time. Cost is the operation-node count the fold removes.
func checkConstFold(e *emitter, s *sheet.Sheet, f formulaSite) {
	var report func(n formula.Node)
	report = func(n formula.Node) {
		if opNodes := constOps(n); opNodes > 0 {
			e.emit(Finding{
				Rule:     RuleConstFold,
				Severity: Info,
				Sheet:    s.Name,
				Cell:     f.at.A1(),
				Message: fmt.Sprintf("subexpression %s has no cell inputs and can be folded to a constant",
					subtreeText(n, f.dr, f.dc)),
				Cost: int64(opNodes),
			})
			return // maximal subtree found; don't report its children
		}
		for _, c := range formula.Children(n) {
			report(c)
		}
	}
	// The whole-formula case (a formula that is pure constant) is still a
	// fold candidate as long as it contains at least one operation.
	report(f.code.Root)
}

// constOps returns the number of operation nodes (calls, binary, unary) in n
// if the subtree is constant-foldable: no refs, no ranges, no volatile or
// unknown calls, and at least one operation. Otherwise it returns 0.
func constOps(n formula.Node) int {
	ops := 0
	ok := true
	formula.Walk(n, func(m formula.Node) {
		switch t := m.(type) {
		case formula.RefNode, formula.RangeNode:
			ok = false
		case formula.CallNode:
			if formula.IsVolatileFunc(t.Name) || !formula.HasFunction(t.Name) {
				ok = false
			}
			ops++
		case formula.BinaryNode, formula.UnaryNode:
			ops++
		}
	})
	if !ok || ops == 0 {
		return 0
	}
	return ops
}

// kindSet is a bitmask of observed cell.Value kinds.
type kindSet uint8

const (
	kNumber kindSet = 1 << iota
	kText
	kBool
	kError
)

func kindOf(v cell.Value) kindSet {
	switch v.Kind {
	case cell.Number:
		return kNumber
	case cell.Text:
		return kText
	case cell.Bool:
		return kBool
	case cell.ErrorVal:
		return kError
	default:
		return 0 // Empty: compatible with everything
	}
}

// sampleRangeKinds samples up to limit non-empty cells of a range on the
// sheet and returns the union of their kinds.
func sampleRangeKinds(s *sheet.Sheet, r cell.Range, limit int) kindSet {
	var ks kindSet
	seen := 0
	for row := r.Start.Row; row <= r.End.Row && seen < limit; row++ {
		for col := r.Start.Col; col <= r.End.Col && seen < limit; col++ {
			k := kindOf(s.Value(cell.Addr{Row: row, Col: col}))
			if k == 0 {
				continue
			}
			ks |= k
			seen++
		}
	}
	return ks
}

// checkTypes implements RuleTypeMismatch. Two shapes are diagnosed:
//
//   - COUNTIF/SUMIF/AVERAGEIF with a literal numeric criterion over a range
//     whose sampled cells are all text (or vice versa). Criteria semantics
//     make such a condition unsatisfiable for every operator except <>,
//     so the aggregate silently returns 0.
//   - A comparison operator whose one side is a literal and whose other
//     side is a single reference with an incompatible sampled kind.
func checkTypes(e *emitter, s *sheet.Sheet, f formulaSite, opt Options) {
	formula.Walk(f.code.Root, func(n formula.Node) {
		switch t := n.(type) {
		case formula.CallNode:
			checkCriterionTypes(e, s, f, t, opt)
		case formula.BinaryNode:
			checkComparisonTypes(e, s, f, t)
		}
	})
}

// criterionFuncs maps the conditional aggregates to the index of their
// criterion argument (range is argument 0 for all three).
var criterionFuncs = map[string]int{"COUNTIF": 1, "SUMIF": 1, "AVERAGEIF": 1}

func checkCriterionTypes(e *emitter, s *sheet.Sheet, f formulaSite, call formula.CallNode, opt Options) {
	argIdx, ok := criterionFuncs[call.Name]
	if !ok || len(call.Args) <= argIdx {
		return
	}
	rn, ok := call.Args[0].(formula.RangeNode)
	if !ok {
		return
	}
	lit, ok := formula.LiteralValue(call.Args[argIdx])
	if !ok {
		return
	}
	crit := formula.CompileCriterion(lit)
	op, cv, _ := crit.Shape()
	if op == formula.OpNE {
		return // <> matches non-numeric cells by definition; never vacuous
	}
	ks := sampleRangeKinds(s, rn.Shift(f.dr, f.dc), opt.TypeSampleLimit)
	if ks == 0 {
		return // empty or unloaded range: nothing to judge
	}
	critKind := kindOf(cv)
	if critKind == 0 || ks&critKind != 0 {
		return // at least one sampled cell is type-compatible
	}
	e.emit(Finding{
		Rule:     RuleTypeMismatch,
		Severity: Warn,
		Sheet:    s.Name,
		Cell:     f.at.A1(),
		Message: fmt.Sprintf("%s criterion %s is %s but the sampled range holds only %s values; the condition never matches",
			call.Name, formatCriterion(lit), kindName(critKind), kindNames(ks)),
	})
}

func checkComparisonTypes(e *emitter, s *sheet.Sheet, f formulaSite, bin formula.BinaryNode) {
	switch bin.Op {
	case formula.OpEQ, formula.OpNE, formula.OpLT, formula.OpLE, formula.OpGT, formula.OpGE:
	default:
		return
	}
	lit, ref, ok := literalVsRef(bin.L, bin.R)
	if !ok {
		return
	}
	litKind := kindOf(lit)
	cellKind := kindOf(s.Value(ref.Ref.Shift(f.dr, f.dc).Addr))
	if litKind == 0 || cellKind == 0 || litKind == cellKind {
		return
	}
	e.emit(Finding{
		Rule:     RuleTypeMismatch,
		Severity: Warn,
		Sheet:    s.Name,
		Cell:     f.at.A1(),
		Message: fmt.Sprintf("comparison %s mixes a %s literal with a %s cell; spreadsheet ordering ranks types, not values",
			subtreeText(bin, f.dr, f.dc), kindName(litKind), kindName(cellKind)),
	})
}

// literalVsRef matches the (literal, single-ref) operand shape in either
// order.
func literalVsRef(l, r formula.Node) (cell.Value, formula.RefNode, bool) {
	if v, ok := formula.LiteralValue(l); ok {
		if rn, ok := r.(formula.RefNode); ok {
			return v, rn, true
		}
	}
	if v, ok := formula.LiteralValue(r); ok {
		if rn, ok := l.(formula.RefNode); ok {
			return v, rn, true
		}
	}
	return cell.Value{}, formula.RefNode{}, false
}

func formatCriterion(v cell.Value) string {
	if v.Kind == cell.Text {
		return `"` + v.Str + `"`
	}
	return v.AsString()
}

func kindName(k kindSet) string {
	switch k {
	case kNumber:
		return "numeric"
	case kText:
		return "text"
	case kBool:
		return "boolean"
	case kError:
		return "error"
	}
	return "mixed"
}

func kindNames(ks kindSet) string {
	out := ""
	for _, k := range []kindSet{kNumber, kText, kBool, kError} {
		if ks&k == 0 {
			continue
		}
		if out != "" {
			out += "/"
		}
		out += kindName(k)
	}
	return out
}

// checkHotFormula implements RuleHotFormula: the static recalculation cost
// of one formula is its per-evaluation read count times (1 + its dependent
// fan-out) — how much scanning one edit to any of its inputs triggers,
// directly and through recomputation of everything downstream. The read
// count evalCost is lookup-aware (lookupView.estEvalCells): an indexed or
// sortedness-certified lookup is charged its probes, not the table scan it
// never performs.
func checkHotFormula(e *emitter, s *sheet.Sheet, g *graph.Graph, f formulaSite, evalCost int64, opt Options) {
	if evalCost == 0 {
		return
	}
	// Cheap screen with the direct fan-out first; only candidates pay for
	// the exact transitive count. (The transitive set is a superset of the
	// direct one, so the screen never drops a qualifying formula.)
	direct := int64(len(g.DirectDependents(f.at)))
	if evalCost*(1+direct) < opt.HotCostMin {
		return
	}
	fanout := int64(len(g.TransitiveDependents(f.at)))
	cost := evalCost * (1 + fanout)
	if cost < opt.HotCostMin {
		return
	}
	e.emit(Finding{
		Rule:     RuleHotFormula,
		Severity: High,
		Sheet:    s.Name,
		Cell:     f.at.A1(),
		Message: fmt.Sprintf("%s reads %d cells and feeds %d dependent formula(s): static recalc cost %d",
			describe(f), evalCost, fanout, cost),
		Cost: cost,
	})
}

// checkCycles implements RuleCycle: the pre-flight reuses the engine's own
// topological sort (graph.AllFormulas) on the analyzer's private graph, so
// the cycle verdict is exactly what a full recalculation would hit.
func checkCycles(e *emitter, s *sheet.Sheet, g *graph.Graph) {
	_, cyclic := g.AllFormulas()
	for _, a := range cyclic {
		e.emit(Finding{
			Rule:     RuleCycle,
			Severity: High,
			Sheet:    s.Name,
			Cell:     a.A1(),
			Message:  "formula participates in a reference cycle; evaluation cannot order it",
		})
	}
}
