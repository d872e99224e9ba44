package absint

import (
	"sort"

	"repro/internal/cell"
	"repro/internal/formula"
	"repro/internal/graph"
	"repro/internal/sheet"
	"repro/internal/typecheck"
)

// site is one formula cell prepared for inference: its address, compiled
// code, and displacement from the authored origin (mirrors the analyzer's
// formulaSite and the evaluator's Env.DR/DC).
type site struct {
	at     cell.Addr
	code   *formula.Compiled
	dr, dc int
}

// Inference holds the per-sheet inference result: one abstract value per
// formula cell. Value cells are abstracted on demand from their stored
// value (Exactly), so At covers every cell of the sheet.
type Inference struct {
	s      *sheet.Sheet
	sites  []site
	byCell map[cell.Addr]Value
	cyclic []cell.Addr
}

// maxPasses bounds the fixpoint loop and widenAfter starts the widening:
// unlike the finite kind/error lattice, intervals form infinite ascending
// chains, so after widenAfter passes any bound still moving is widened to
// its infinity (Interval.WidenTo), which stabilizes in one more pass per
// chain. With a correct topological order the loop converges on the
// second pass and widening never fires; the budget is a belt against
// order bugs, with the all-top fallback as the last resort.
const (
	maxPasses  = 12
	widenAfter = 3
)

// InferSheet runs the abstract interpreter over one sheet: formulas are
// collected in row-major order, a private dependency graph supplies the
// topological order (exactly the engine's calc-chain construction), cells
// on or downstream of a reference cycle are pinned to #CYCLE! — matching
// evalAll — and the remaining formulas are interpreted to a fixpoint with
// interval widening.
func InferSheet(s *sheet.Sheet) *Inference {
	inf := &Inference{
		s:      s,
		byCell: make(map[cell.Addr]Value, s.FormulaCount()),
	}
	inf.sites = make([]site, 0, s.FormulaCount())
	s.EachFormula(func(a cell.Addr, fc sheet.Formula) bool {
		dr, dc := fc.DeltaAt(a)
		inf.sites = append(inf.sites, site{at: a, code: fc.Code, dr: dr, dc: dc})
		return true
	})
	sort.Slice(inf.sites, func(i, j int) bool {
		if inf.sites[i].at.Row != inf.sites[j].at.Row {
			return inf.sites[i].at.Row < inf.sites[j].at.Row
		}
		return inf.sites[i].at.Col < inf.sites[j].at.Col
	})

	g := graph.New()
	siteOf := make(map[cell.Addr]*site, len(inf.sites))
	for i := range inf.sites {
		st := &inf.sites[i]
		g.SetFormula(st.at, st.code.PrecedentRanges(st.dr, st.dc))
		siteOf[st.at] = st
	}

	order, cyclic := g.AllFormulas()
	inf.cyclic = cyclic
	// The engine marks every cell the topological sort cannot schedule —
	// cycle members and their transitive dependents alike — with #CYCLE!.
	// The abstraction is exact there.
	for _, a := range cyclic {
		inf.byCell[a] = Value{Ab: typecheck.Abstract{Errs: typecheck.ECycle}, Num: EmptyInterval()}
	}
	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		for _, a := range order {
			st := siteOf[a]
			if st == nil {
				continue
			}
			cur := inf.byCell[a]
			next := cur.Join(inf.evalNode(st.code.Root, st.dr, st.dc).scalar(inf))
			if pass >= widenAfter {
				next = cur.WidenTo(next)
			}
			if !next.eq(cur) {
				inf.byCell[a] = next
				changed = true
			}
		}
		if !changed {
			return inf
		}
	}
	// Not converged within the bound (indicates an ordering bug): widen
	// every non-pinned formula cell to top so the result stays sound.
	for _, a := range order {
		inf.byCell[a] = TopValue()
	}
	return inf
}

// At returns the abstract value of any cell: inferred for formula cells,
// exact for value cells (out-of-grid addresses read as empty, like the
// grid itself).
func (inf *Inference) At(a cell.Addr) Value {
	if v, ok := inf.byCell[a]; ok {
		return v
	}
	return Exactly(inf.s.Value(a))
}

// abAt returns the kind/error projection of any cell, like At(a).Ab but
// without allocating a value cell's certified constant.
func (inf *Inference) abAt(a cell.Addr) typecheck.Abstract {
	if v, ok := inf.byCell[a]; ok {
		return v.Ab
	}
	return typecheck.Exactly(inf.s.Value(a))
}

// RangeJoin joins the abstract values of every cell in a range, with
// early exit once the join saturates at top. Constants never survive a
// multi-cell join, so the loop works on the kind and interval components
// directly and avoids At's per-value-cell allocation.
func (inf *Inference) RangeJoin(r cell.Range) Value {
	var ab typecheck.Abstract
	num := EmptyInterval()
	for row := r.Start.Row; row <= r.End.Row; row++ {
		for col := r.Start.Col; col <= r.End.Col; col++ {
			a := cell.Addr{Row: row, Col: col}
			if v, ok := inf.byCell[a]; ok {
				v = v.norm()
				ab = ab.Union(v.Ab)
				num = num.Union(v.Num)
			} else {
				w := inf.s.Value(a)
				ab = ab.Union(typecheck.Exactly(w))
				if w.Kind == cell.Number {
					num = num.Union(Point(w.Num))
				}
			}
			if ab == typecheck.Top && num.IsFull() {
				return TopValue()
			}
		}
	}
	return Value{Ab: ab, Num: num}
}

// JoinSpan joins one column's cells over the inclusive row span — the
// region-level certificate view the regions report consumes.
func (inf *Inference) JoinSpan(col, r0, r1 int) Value {
	return inf.RangeJoin(cell.RangeOf(cell.Addr{Row: r0, Col: col}, cell.Addr{Row: r1, Col: col}))
}

// Formulas returns the number of formula cells inferred.
func (inf *Inference) Formulas() int { return len(inf.sites) }

// FormulaCells returns the addresses of every formula cell, in row-major
// order.
func (inf *Inference) FormulaCells() []cell.Addr {
	out := make([]cell.Addr, len(inf.sites))
	for i, st := range inf.sites {
		out[i] = st.at
	}
	return out
}

// Cyclic returns the cells pinned to #CYCLE! (sorted).
func (inf *Inference) Cyclic() []cell.Addr { return inf.cyclic }

// absOp is the abstract counterpart of the evaluator's operand: either a
// scalar abstract value or an unresolved range. An ext range lives on a
// foreign sheet: its extent (and therefore cell count) is statically
// known, but its values are outside this sheet's inference, so every
// per-cell read is top.
type absOp struct {
	v       Value
	rng     cell.Range
	isRange bool
	ext     bool
}

func scalarOp(v Value) absOp { return absOp{v: v} }

// scalar collapses the operand to a scalar the way operand.scalar does: a
// multi-cell range in scalar position is exactly #VALUE!; a one-cell
// range reads through; a foreign range reads foreign cells, so top.
func (o absOp) scalar(inf *Inference) Value {
	if !o.isRange {
		return o.v
	}
	if o.ext {
		return TopValue()
	}
	if o.rng.Cells() == 1 {
		return inf.At(o.rng.Start)
	}
	return errValue(typecheck.EValue)
}

// cells joins the abstract values of every cell the operand covers (the
// abstract counterpart of operand.eachCell).
func (o absOp) cells(inf *Inference) Value {
	if !o.isRange {
		return o.v
	}
	if o.ext {
		return TopValue()
	}
	return inf.RangeJoin(o.rng)
}

// count is the number of cells the operand covers (1 for scalars).
func (o absOp) count() int {
	if !o.isRange {
		return 1
	}
	return o.rng.Cells()
}

// errValue is the abstraction holding exactly the given error set.
func errValue(e typecheck.Errs) Value {
	return Value{Ab: typecheck.Abstract{Errs: e}, Num: EmptyInterval()}
}

// numInterval bounds the result of numerically coercing the value
// (cell.Value.AsNumber): numbers keep their interval, bools coerce to
// {0,1}, empty to 0, and text can parse to anything, so it forces Full.
func numInterval(v Value) Interval {
	v = v.norm()
	k := v.Ab.Kinds
	if k&typecheck.KText != 0 {
		return Full()
	}
	iv := v.Num
	if k&typecheck.KBool != 0 {
		iv = iv.Union(Span(0, 1))
	}
	if k&typecheck.KEmpty != 0 {
		iv = iv.Union(Point(0))
	}
	return iv
}

// numCoerceErrs returns the error possibility of coercing the abstraction
// to a number (cell.Value.AsNumber): only text can fail to parse; numbers,
// bools, and empty always coerce. Errors pass through separately.
func numCoerceErrs(a typecheck.Abstract) typecheck.Errs {
	if a.Kinds&typecheck.KText != 0 {
		return typecheck.EValue
	}
	return 0
}

// boolCoerceErrs is the same for boolean coercion (cell.Value.AsBool):
// only non-TRUE/FALSE text fails.
func boolCoerceErrs(a typecheck.Abstract) typecheck.Errs {
	if a.Kinds&typecheck.KText != 0 {
		return typecheck.EValue
	}
	return 0
}

// rangeOp is the operand of a displaced range; a range with a corner off
// the sheet is #REF!, as the evaluator reads it.
func rangeOp(r cell.Range, ext bool) absOp {
	if !r.Start.Valid() {
		return scalarOp(Exactly(cell.Errorf(cell.ErrRef)))
	}
	return absOp{rng: r, isRange: true, ext: ext}
}

// evalNode is the abstract transfer of one AST node.
func (inf *Inference) evalNode(n formula.Node, dr, dc int) absOp {
	switch t := n.(type) {
	case formula.NumberLit:
		return scalarOp(Exactly(cell.Num(float64(t))))
	case formula.StringLit:
		return scalarOp(Exactly(cell.Str(string(t))))
	case formula.BoolLit:
		return scalarOp(Exactly(cell.Boolean(bool(t))))
	case formula.ErrorLit:
		return scalarOp(Exactly(cell.Errorf(string(t))))
	case formula.RefNode:
		a := t.Ref.Shift(dr, dc).Addr
		if !a.Valid() {
			return scalarOp(Exactly(cell.Errorf(cell.ErrRef)))
		}
		return scalarOp(inf.At(a))
	case formula.RangeNode:
		return rangeOp(t.Shift(dr, dc), false)
	case formula.UnaryNode:
		return scalarOp(inf.evalUnary(t, dr, dc))
	case formula.BinaryNode:
		return scalarOp(inf.evalBinary(t, dr, dc))
	case formula.CallNode:
		return scalarOp(inf.evalCall(t, dr, dc))
	case formula.ExtRefNode:
		// Cross-sheet values are outside this sheet's inference: single
		// references are top scalars; ranges keep their statically known
		// extent (counts stay sound) with top cells.
		if t.IsRange {
			return rangeOp(t.Shift(dr, dc), true)
		}
		if !t.From.Shift(dr, dc).Addr.Valid() {
			return scalarOp(Exactly(cell.Errorf(cell.ErrRef)))
		}
		return scalarOp(TopValue())
	default:
		// Anything added later: no claim is sound.
		return scalarOp(TopValue())
	}
}

// evalUnary mirrors evalUnary in eval.go: errors pass through, the
// operand coerces numerically, then -x / +x / x%. A constant operand
// folds through the concrete mirror.
func (inf *Inference) evalUnary(u formula.UnaryNode, dr, dc int) Value {
	x := inf.evalNode(u.X, dr, dc).scalar(inf)
	if x.Const != nil {
		if r, ok := foldUnary(u.Op, *x.Const); ok {
			return Exactly(r)
		}
	}
	iv := numInterval(x)
	switch u.Op {
	case "-":
		iv = iv.Neg()
	case "+":
		// identity
	case "%":
		iv = iv.Scale(1.0 / 100)
	default:
		// evalUnary returns #VALUE! for unknown operators.
		return errValue(typecheck.EValue)
	}
	return Value{
		Ab:  typecheck.Abstract{Kinds: typecheck.KNumber, Errs: x.Ab.Errs | numCoerceErrs(x.Ab)},
		Num: iv,
	}
}

// evalBinary mirrors evalBinary in eval.go: operand errors pass through,
// arithmetic coerces numerically, & concatenates to text, comparisons
// yield booleans and never error. Interval arithmetic refines the numeric
// result; two constant operands fold through the concrete mirror; a
// divisor interval excluding zero discharges #DIV/0!.
func (inf *Inference) evalBinary(b formula.BinaryNode, dr, dc int) Value {
	l := inf.evalNode(b.L, dr, dc).scalar(inf)
	r := inf.evalNode(b.R, dr, dc).scalar(inf)
	if l.Const != nil && r.Const != nil {
		if v, ok := foldBinary(b.Op, *l.Const, *r.Const); ok {
			return Exactly(v)
		}
	}
	errs := l.Ab.Errs | r.Ab.Errs
	switch b.Op {
	case formula.OpConcat:
		return Value{Ab: typecheck.Abstract{Kinds: typecheck.KText, Errs: errs}, Num: EmptyInterval()}
	case formula.OpEQ, formula.OpNE, formula.OpLT, formula.OpLE, formula.OpGT, formula.OpGE:
		return Value{Ab: typecheck.Abstract{Kinds: typecheck.KBool, Errs: errs}, Num: EmptyInterval()}
	case formula.OpAdd:
		return arith(errs, l, r, Interval.Add)
	case formula.OpSub:
		return arith(errs, l, r, Interval.Sub)
	case formula.OpMul:
		return arith(errs, l, r, Interval.Mul)
	case formula.OpDiv:
		errs |= numCoerceErrs(l.Ab) | numCoerceErrs(r.Ab)
		li, ri := numInterval(l), numInterval(r)
		if ri.Contains(0) {
			// The divisor can be zero: #DIV/0! is possible and no finite
			// quotient bound is sound.
			return Value{Ab: typecheck.Abstract{Kinds: typecheck.KNumber, Errs: errs | typecheck.EDiv0}, Num: Full()}
		}
		return Value{Ab: typecheck.Abstract{Kinds: typecheck.KNumber, Errs: errs}, Num: li.Div(ri)}
	case formula.OpPow:
		errs |= numCoerceErrs(l.Ab) | numCoerceErrs(r.Ab)
		return Value{Ab: typecheck.Abstract{Kinds: typecheck.KNumber, Errs: errs}, Num: Full()}
	default:
		// evalBinary returns #VALUE! for unknown operators.
		return errValue(typecheck.EValue)
	}
}

// arith is the shared add/sub/mul shape: coercion errors join in and the
// interval operation runs over the coercion-widened operand intervals.
func arith(errs typecheck.Errs, l, r Value, op func(Interval, Interval) Interval) Value {
	errs |= numCoerceErrs(l.Ab) | numCoerceErrs(r.Ab)
	return Value{
		Ab:  typecheck.Abstract{Kinds: typecheck.KNumber, Errs: errs},
		Num: op(numInterval(l), numInterval(r)),
	}
}

// evalCall mirrors evalCall in eval.go: unknown functions are exactly
// #NAME? (this is where the unregistered volatile OFFSET/INDIRECT land),
// arity violations exactly #VALUE!, and each built-in has a transfer in
// transfers.go. A builtin missing from the table defaults to top — the
// latticecheck lint enforces the same default discipline inside every
// transfer switch.
func (inf *Inference) evalCall(c formula.CallNode, dr, dc int) Value {
	min, max, known := formula.FunctionArity(c.Name)
	if !known {
		return errValue(typecheck.EName)
	}
	if len(c.Args) < min || (max >= 0 && len(c.Args) > max) {
		return errValue(typecheck.EValue)
	}
	ctx := &callCtx{inf: inf, call: c, dr: dr, dc: dc}
	if tf, ok := transfers[c.Name]; ok {
		return tf(ctx)
	}
	return TopValue()
}

// callCtx carries one call's operands through a transfer function, with
// lazy per-argument resolution.
type callCtx struct {
	inf    *Inference
	call   formula.CallNode
	dr, dc int
}

// arg returns the i-th argument operand.
func (c *callCtx) arg(i int) absOp {
	return c.inf.evalNode(c.call.Args[i], c.dr, c.dc)
}

// scalar resolves the i-th argument as a scalar.
func (c *callCtx) scalar(i int) Value { return c.arg(i).scalar(c.inf) }

// cellsJoin joins the abstract values of every cell of every argument —
// the abstract counterpart of aggregate streaming. Its Num component
// bounds every number any streamed cell can contribute (forEachNumber
// skips non-numbers without coercing, so the uncoerced interval is the
// right bound).
func (c *callCtx) cellsJoin() Value {
	out := Value{Num: EmptyInterval()}
	for i := range c.call.Args {
		out = out.Join(c.arg(i).cells(c.inf))
	}
	return out
}

// cellErrs joins the error sets of every cell of every argument.
func (c *callCtx) cellErrs() typecheck.Errs { return c.cellsJoin().Ab.Errs }

// cellCount is the total number of cells across every argument — the n in
// the aggregate interval folds.
func (c *callCtx) cellCount() int {
	n := 0
	for i := range c.call.Args {
		n += c.arg(i).count()
	}
	return n
}

// scalarErrs joins the error-and-coercion possibilities of every argument
// taken as a numeric scalar (the withNum-style helpers).
func (c *callCtx) scalarErrs() typecheck.Errs {
	var e typecheck.Errs
	for i := range c.call.Args {
		a := c.scalar(i)
		e |= a.Ab.Errs | numCoerceErrs(a.Ab)
	}
	return e
}

// rangeArgErr returns EValue when the i-th argument is present and does not
// evaluate to a range — a scalar, or a range with a corner off the sheet
// (SUMIF/AVERAGEIF reject non-range test and sum arguments with #VALUE!).
// Local and cross-sheet ranges both qualify.
func (c *callCtx) rangeArgErr(i int) typecheck.Errs {
	if i >= len(c.call.Args) || c.arg(i).isRange {
		return 0
	}
	return typecheck.EValue
}

// textArgErrs joins each argument's cell errors, plus #VALUE! for
// multi-cell range arguments (the string built-ins take scalars, and a
// multi-cell range in scalar position is #VALUE!; the few that stream
// cells instead are over-approximated by the same join, which is sound).
func (c *callCtx) textArgErrs() typecheck.Errs {
	var e typecheck.Errs
	for i := range c.call.Args {
		a := c.arg(i)
		e |= a.cells(c.inf).Ab.Errs
		if a.isRange && a.rng.Cells() > 1 {
			e |= typecheck.EValue
		}
	}
	return e
}

// number / boolean / textual are the transfer result constructors.
func number(e typecheck.Errs, iv Interval) Value {
	return Value{Ab: typecheck.Abstract{Kinds: typecheck.KNumber, Errs: e}, Num: iv}
}

func boolean(e typecheck.Errs) Value {
	return Value{Ab: typecheck.Abstract{Kinds: typecheck.KBool, Errs: e}, Num: EmptyInterval()}
}

func textual(e typecheck.Errs) Value {
	return Value{Ab: typecheck.Abstract{Kinds: typecheck.KText, Errs: e}, Num: EmptyInterval()}
}
