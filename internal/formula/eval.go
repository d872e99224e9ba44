package formula

import (
	"math"
	"time"

	"repro/internal/cell"
	"repro/internal/costmodel"
	"repro/internal/obs"
)

// Source supplies cell values to the evaluator. A worksheet implements it;
// tests use map-backed fakes.
type Source interface {
	// Value returns the displayed value of the cell (for a formula cell,
	// its cached result).
	Value(a cell.Addr) cell.Value
}

// Env is the evaluation environment: the value source, the work meter the
// evaluator charges (may be nil for unmetered evaluation), and the clock
// used by volatile time functions (defaults to time.Now).
type Env struct {
	Src   Source
	Meter *costmodel.Meter
	Now   func() time.Time
	// Lookup selects the algorithms used by VLOOKUP/HLOOKUP/MATCH; the
	// zero value is the fully naive full-scan behavior (§4.3.4).
	Lookup LookupPolicy
	// Rand supplies RAND()'s uniform [0,1) stream; when nil, a
	// deterministic per-Env xorshift stream is used so benchmark runs and
	// tests stay reproducible.
	Rand func() float64
	// randState backs the default deterministic RAND stream.
	randState uint64
	// DR and DC translate every *relative* reference component by this
	// many rows/columns before resolution. The engine sets them to the
	// formula's displacement from where its text was authored, so a
	// formula that moved (sort, copy-paste) keeps relative semantics
	// without text rewriting — the R1C1 trick real engines use.
	DR, DC int
	// Ext resolves a sheet name in a cross-sheet reference to that sheet's
	// value source. When nil (or when it returns nil for an unknown name),
	// cross-sheet references evaluate to #REF!.
	Ext func(sheetName string) Source
	// SortedAsc, when non-nil, reports whether rows [r0, r1] of the given
	// column on the given source are certified — under the current sheet
	// state — to be an ascending all-Number run. The engine backs it with
	// version-keyed value certificates (internal/engine/valuecert.go);
	// under that precondition exact VLOOKUP/MATCH switch from linear scan
	// to binary search with identical results, and approximate matches
	// may binary-search even without ApproxBinarySearch.
	SortedAsc func(src Source, col, r0, r1 int) bool
	// crits are the precompiled criteria of the formula being evaluated
	// (Compiled.crits), set by Eval.
	crits []textCrit
}

// criterion compiles a criterion argument value, serving a text literal
// the evaluated formula compiled ahead of time.
func (e *Env) criterion(v cell.Value) Criterion {
	if v.Kind == cell.Text {
		for i := range e.crits {
			if e.crits[i].text == v.Str {
				return e.crits[i].crit
			}
		}
	}
	return CompileCriterion(v)
}

// certifiedAsc reports whether the column run is certified ascending
// all-Number under the current state (false without a certifier).
func (e *Env) certifiedAsc(src Source, col, r0, r1 int) bool {
	return e.SortedAsc != nil && e.SortedAsc(src, col, r0, r1)
}

// external resolves a cross-sheet name, nil when unresolvable.
func (e *Env) external(name string) Source {
	if e.Ext == nil {
		return nil
	}
	return e.Ext(name)
}

func (e *Env) add(m costmodel.Metric, n int64) {
	if e.Meter != nil {
		e.Meter.Add(m, n)
	}
}

func (e *Env) now() time.Time {
	if e.Now != nil {
		return e.Now()
	}
	return time.Now()
}

// rand returns the next uniform [0,1) variate.
func (e *Env) rand() float64 {
	if e.Rand != nil {
		return e.Rand()
	}
	if e.randState == 0 {
		e.randState = 0x9E3779B97F4A7C15
	}
	x := e.randState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	e.randState = x
	return float64(x>>11) / float64(1<<53)
}

// value reads one cell, charging one reference resolution and one cell
// touch — the cell-by-cell reference model of §5.3. An address off the
// sheet (a reference displaced past its top or left edge) reads #REF!, as
// the printer renders it.
func (e *Env) value(a cell.Addr) cell.Value {
	return e.valueFrom(e.Src, a)
}

// valueFrom is value against an explicit source (the host sheet or a
// foreign sheet resolved from a cross-sheet reference).
func (e *Env) valueFrom(src Source, a cell.Addr) cell.Value {
	if !a.Valid() {
		return cell.Errorf(cell.ErrRef)
	}
	e.add(costmodel.RefResolve, 1)
	e.add(costmodel.CellTouch, 1)
	return src.Value(a)
}

// rangeTouch charges the cost of scanning n cells of a range argument. The
// per-cell resolution inside a contiguous range is cheaper than an explicit
// reference (no address decoding per cell) so it charges CellTouch only.
func (e *Env) rangeTouch(n int64) { e.add(costmodel.CellTouch, n) }

// operand is an evaluated argument: either a scalar value or an unexpanded
// range (ranges stay lazy so aggregate functions can stream them). A range
// operand carries the source it resolves against: nil means the host
// sheet (env.Src); a cross-sheet range carries the foreign sheet.
type operand struct {
	val     cell.Value
	rng     cell.Range
	isRange bool
	src     Source // nil = env.Src
}

func scalarOp(v cell.Value) operand { return operand{val: v} }

// source returns the value source this operand's cells resolve against.
func (o operand) source(e *Env) Source {
	if o.src != nil {
		return o.src
	}
	return e.Src
}

// scalar collapses the operand to a single value; a multi-cell range used in
// scalar position is a #VALUE! error (the common dialect behavior outside
// of implicit-intersection contexts, which the benchmark does not use).
func (o operand) scalar(e *Env) cell.Value {
	if !o.isRange {
		return o.val
	}
	if o.rng.Cells() == 1 {
		return e.valueFrom(o.source(e), o.rng.Start)
	}
	return cell.Errorf(cell.ErrValue)
}

// eachCell streams the cells of the operand in row-major order. For a
// scalar operand the single value is yielded. Iteration stops early when f
// returns false.
func (o operand) eachCell(e *Env, f func(v cell.Value) bool) {
	if !o.isRange {
		f(o.val)
		return
	}
	src := o.source(e)
	for r := o.rng.Start.Row; r <= o.rng.End.Row; r++ {
		for c := o.rng.Start.Col; c <= o.rng.End.Col; c++ {
			e.rangeTouch(1)
			if !f(src.Value(cell.Addr{Row: r, Col: c})) {
				return
			}
		}
	}
}

// rangeOp is the operand of a displaced range read from src (nil = the host
// sheet). A range with a corner off the sheet is #REF!, as the printer
// renders it.
func rangeOp(r cell.Range, src Source) operand {
	if !r.Start.Valid() {
		return scalarOp(cell.Errorf(cell.ErrRef))
	}
	return operand{rng: r, isRange: true, src: src}
}

// Eval evaluates a compiled formula, charging one FormulaEval plus the work
// of every reference it resolves.
func Eval(c *Compiled, env *Env) cell.Value {
	if obs.Enabled() {
		defer evalTime.ObserveSince(time.Now())
	}
	env.add(costmodel.FormulaEval, 1)
	env.crits = c.crits
	return evalNode(c.Root, env).scalar(env)
}

// EvalNode evaluates a bare AST node to a scalar value; exported for tests.
func EvalNode(n Node, env *Env) cell.Value {
	return evalNode(n, env).scalar(env)
}

func evalNode(n Node, env *Env) operand {
	switch t := n.(type) {
	case NumberLit:
		return scalarOp(cell.Num(float64(t)))
	case StringLit:
		return scalarOp(cell.Str(string(t)))
	case BoolLit:
		return scalarOp(cell.Boolean(bool(t)))
	case ErrorLit:
		return scalarOp(cell.Errorf(string(t)))
	case RefNode:
		return scalarOp(env.value(t.Ref.Shift(env.DR, env.DC).Addr))
	case RangeNode:
		return rangeOp(t.Shift(env.DR, env.DC), nil)
	case ExtRefNode:
		src := env.external(t.Sheet)
		if src == nil {
			return scalarOp(cell.Errorf(cell.ErrRef))
		}
		if !t.IsRange {
			return scalarOp(env.valueFrom(src, t.From.Shift(env.DR, env.DC).Addr))
		}
		return rangeOp(t.Shift(env.DR, env.DC), src)
	case CallNode:
		return evalCall(t, env)
	case BinaryNode:
		return scalarOp(evalBinary(t, env))
	case UnaryNode:
		return scalarOp(evalUnary(t, env))
	default:
		return scalarOp(cell.Errorf(cell.ErrValue))
	}
}

func evalCall(call CallNode, env *Env) operand {
	fn, ok := functions[call.Name]
	if !ok {
		return scalarOp(cell.Errorf(cell.ErrName))
	}
	if len(call.Args) < fn.minArgs || (fn.maxArgs >= 0 && len(call.Args) > fn.maxArgs) {
		return scalarOp(cell.Errorf(cell.ErrValue))
	}
	args := make([]operand, len(call.Args))
	for i, a := range call.Args {
		args[i] = evalNode(a, env)
	}
	return scalarOp(fn.impl(env, args))
}

func evalBinary(b BinaryNode, env *Env) cell.Value {
	l := evalNode(b.L, env).scalar(env)
	if l.IsError() {
		return l
	}
	r := evalNode(b.R, env).scalar(env)
	if r.IsError() {
		return r
	}

	switch b.Op {
	case OpConcat:
		return cell.Str(l.AsString() + r.AsString())
	case OpEQ, OpNE, OpLT, OpLE, OpGT, OpGE:
		env.add(costmodel.Compare, 1)
		return compareValues(b.Op, l, r)
	}

	lf, lok := l.AsNumber()
	rf, rok := r.AsNumber()
	if !lok || !rok {
		return cell.Errorf(cell.ErrValue)
	}
	switch b.Op {
	case OpAdd:
		return cell.Num(lf + rf)
	case OpSub:
		return cell.Num(lf - rf)
	case OpMul:
		return cell.Num(lf * rf)
	case OpDiv:
		if rf == 0 {
			return cell.Errorf(cell.ErrDiv0)
		}
		return cell.Num(lf / rf)
	case OpPow:
		return cell.Num(math.Pow(lf, rf))
	default:
		return cell.Errorf(cell.ErrValue)
	}
}

// compareValues implements spreadsheet comparison semantics: numbers compare
// numerically, strings case-insensitively, mixed number/string compare with
// numbers < text (the shared dialect rule).
func compareValues(op BinOp, l, r cell.Value) cell.Value {
	c := l.Compare(r)
	switch op {
	case OpEQ:
		return cell.Boolean(l.Equal(r))
	case OpNE:
		return cell.Boolean(!l.Equal(r))
	case OpLT:
		return cell.Boolean(c < 0)
	case OpLE:
		return cell.Boolean(c <= 0)
	case OpGT:
		return cell.Boolean(c > 0)
	case OpGE:
		return cell.Boolean(c >= 0)
	default:
		return cell.Errorf(cell.ErrValue)
	}
}

func evalUnary(u UnaryNode, env *Env) cell.Value {
	v := evalNode(u.X, env).scalar(env)
	if v.IsError() {
		return v
	}
	f, ok := v.AsNumber()
	if !ok {
		return cell.Errorf(cell.ErrValue)
	}
	switch u.Op {
	case "-":
		return cell.Num(-f)
	case "+":
		return cell.Num(f)
	case "%":
		return cell.Num(f / 100)
	default:
		return cell.Errorf(cell.ErrValue)
	}
}
