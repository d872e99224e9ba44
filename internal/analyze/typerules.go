// Rules built on the kind/error projection (Value.Ab) of the abstract
// interpreter (internal/absint): unlike the sampling heuristics in
// rules.go, these consume the sound per-cell possibility sets it computes,
// so they see through formula chains without reading any cached results.

package analyze

import (
	"fmt"

	"repro/internal/absint"
	"repro/internal/cell"
	"repro/internal/formula"
	"repro/internal/graph"
	"repro/internal/sheet"
	"repro/internal/typecheck"
)

// checkErrorBlast implements RuleErrorBlast: a formula whose inferred
// error-possibility set is non-empty can poison every transitive dependent
// (errors propagate through references and most aggregates), so a possible
// error feeding a wide subgraph is a High finding. The rule anchors at
// introduction points — error bits not already possible in any precedent —
// so a chain that merely carries an upstream error stays silent and the
// report points at the root cause. Cost is the blast radius. Cycle errors
// are excluded: RuleCycle already reports those cells, and their
// "possibility" is a certainty.
func checkErrorBlast(e *emitter, s *sheet.Sheet, g *graph.Graph, inf *absint.Inference, f formulaSite, opt Options) {
	errs := inf.At(f.at).Ab.Errs &^ typecheck.ECycle
	if errs == 0 {
		return
	}
	var inherited typecheck.Errs
	for _, r := range f.code.PrecedentRanges(f.dr, f.dc) {
		inherited |= inf.RangeJoin(r).Ab.Errs
	}
	introduced := errs &^ inherited
	if introduced == 0 {
		return
	}
	blast := len(g.TransitiveDependents(f.at))
	if blast < opt.ErrorBlastMin {
		return
	}
	e.emit(Finding{
		Rule:     RuleErrorBlast,
		Severity: High,
		Sheet:    s.Name,
		Cell:     f.at.A1(),
		Message: fmt.Sprintf("formula may produce %s and %d transitive dependent(s) would inherit it",
			introduced, blast),
		Cost: int64(blast),
	})
}

// checkCoercion implements RuleCoercion: a conditional aggregate with a
// numeric criterion whose test range may hold text re-parses those text
// cells as numbers on every evaluation (criteria semantics coerce
// numeric-looking text). Over a wide range that parse dominates the scan,
// so the finding fires from CoercionMinCells cells. Cost is the range
// size. The inferred kind join (not a sample) decides whether text is
// possible, so a single text cell anywhere in a 500k-row column is seen.
func checkCoercion(e *emitter, s *sheet.Sheet, inf *absint.Inference, f formulaSite, opt Options) {
	formula.Walk(f.code.Root, func(n formula.Node) {
		call, ok := n.(formula.CallNode)
		if !ok {
			return
		}
		argIdx, ok := criterionFuncs[call.Name]
		if !ok || len(call.Args) <= argIdx {
			return
		}
		rn, ok := call.Args[0].(formula.RangeNode)
		if !ok {
			return
		}
		lit, isLit := formula.LiteralValue(call.Args[argIdx])
		if !isLit {
			return
		}
		if _, cv, _ := formula.CompileCriterion(lit).Shape(); cv.Kind != cell.Number {
			return
		}
		r := rn.Shift(f.dr, f.dc)
		cells := r.Cells()
		if cells < opt.CoercionMinCells {
			return
		}
		if inf.RangeJoin(r).Ab.Kinds&typecheck.KText == 0 {
			return
		}
		e.emit(Finding{
			Rule:     RuleCoercion,
			Severity: Warn,
			Sheet:    s.Name,
			Cell:     f.at.A1(),
			Message: fmt.Sprintf("%s parses text cells of %s (%d cells) as numbers on every evaluation; store numbers as numbers or narrow the range",
				call.Name, r, cells),
			Cost: int64(cells),
		})
	})
}
