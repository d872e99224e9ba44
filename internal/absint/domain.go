// Package absint is an abstract-interpretation value analysis for the
// formula language: a topological abstract interpreter over compiled
// formula ASTs (internal/formula) and the dependency graph
// (internal/graph) that infers, per cell, the kind/error abstraction of
// internal/typecheck refined with *values* — a numeric interval per cell,
// a sortedness direction per column, and certified constants — without
// evaluating a single formula. It is the repository's one abstract
// interpreter.
//
// The paper's lookup and aggregation cliffs come from per-cell
// interpretation that cannot exploit what is statically knowable about a
// column: VLOOKUP scans linearly even over monotone key columns, and
// error/coercion branches run on values that can never be errors. This
// package computes the certificates that remove exactly that work. It
// feeds five consumers: the version-keyed ValueCerts the optimized engine
// issues at install pre-flight (internal/engine/valuecert.go — binary-
// search lookups, branch-elided prefix kernels, guarded constant skips),
// the `sheetcli absint` report, the `sheetcli typecheck` kind/error report
// (typereport.go), the `unsorted-lookup`, `error-blast-radius` and
// `coercion-hot-path` analyzer rules and the cert-aware cost estimate
// (internal/analyze), and the per-region certificate counts in the regions
// report.
//
// Soundness contract: for every cell, the value observed after evaluation
// is admitted by the inferred abstract value (Value.Admits) — kind and
// error mask (typecheck.Abstract.Admits), plus interval membership for
// numbers and exact equality for certified constants. The lattice now has infinite
// ascending chains (intervals), so the fixpoint loop widens unstable
// bounds to ±Inf after a fixed pass budget. The differential soundness
// test checks the contract against the evaluator over every workload
// generator and the fuzzdiff harness hunts unsound transfers nightly.
package absint

import (
	"fmt"
	"math"

	"repro/internal/cell"
	"repro/internal/typecheck"
)

// Interval is a closed interval [Lo, Hi] over the extended reals bounding
// every Number a cell can hold. Lo > Hi encodes the empty interval (the
// cell can hold no number at all); EmptyInterval is the canonical empty.
// Constructors never produce NaN bounds: any NaN collapses to Full.
type Interval struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// EmptyInterval returns the canonical empty interval.
func EmptyInterval() Interval { return Interval{Lo: math.Inf(1), Hi: math.Inf(-1)} }

// Full returns the no-information interval [-Inf, +Inf].
func Full() Interval { return Interval{Lo: math.Inf(-1), Hi: math.Inf(1)} }

// Point returns the singleton interval [x, x].
func Point(x float64) Interval { return Span(x, x) }

// Span returns [lo, hi], collapsing NaN bounds to Full (NaN arises from
// Inf-Inf style corner arithmetic, where no finite bound is sound).
func Span(lo, hi float64) Interval {
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return Full()
	}
	return Interval{Lo: lo, Hi: hi}
}

// IsEmpty reports whether no number is admitted.
func (iv Interval) IsEmpty() bool { return iv.Lo > iv.Hi }

// IsFull reports whether the interval carries no information.
func (iv Interval) IsFull() bool {
	return math.IsInf(iv.Lo, -1) && math.IsInf(iv.Hi, 1)
}

// Contains is interval membership. A NaN value (reachable through corner
// cases like LN(0)*0 upstream) is admitted only by the full interval,
// which is the only abstraction that makes no claim about it.
func (iv Interval) Contains(x float64) bool {
	if math.IsNaN(x) {
		return iv.IsFull()
	}
	return x >= iv.Lo && x <= iv.Hi
}

// Union is the lattice join: the smallest interval containing both.
func (iv Interval) Union(o Interval) Interval {
	if iv.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return iv
	}
	return Interval{Lo: math.Min(iv.Lo, o.Lo), Hi: math.Max(iv.Hi, o.Hi)}
}

// Hull extends the interval to include x.
func (iv Interval) Hull(x float64) Interval { return iv.Union(Point(x)) }

// WidenTo is the widening operator: next must be a superset of iv (it is
// the joined successor in the fixpoint loop); any bound that still moved
// jumps straight to its infinity, so the chain stabilizes in one step.
func (iv Interval) WidenTo(next Interval) Interval {
	if iv.IsEmpty() || next.IsEmpty() {
		return next
	}
	out := next
	if next.Lo < iv.Lo {
		out.Lo = math.Inf(-1)
	}
	if next.Hi > iv.Hi {
		out.Hi = math.Inf(1)
	}
	return out
}

// Add is interval addition (endpoint-monotone).
func (iv Interval) Add(o Interval) Interval {
	if iv.IsEmpty() || o.IsEmpty() {
		return EmptyInterval()
	}
	return Span(iv.Lo+o.Lo, iv.Hi+o.Hi)
}

// Sub is interval subtraction.
func (iv Interval) Sub(o Interval) Interval {
	if iv.IsEmpty() || o.IsEmpty() {
		return EmptyInterval()
	}
	return Span(iv.Lo-o.Hi, iv.Hi-o.Lo)
}

// Mul is four-corner interval multiplication.
func (iv Interval) Mul(o Interval) Interval {
	if iv.IsEmpty() || o.IsEmpty() {
		return EmptyInterval()
	}
	return corners(iv.Lo*o.Lo, iv.Lo*o.Hi, iv.Hi*o.Lo, iv.Hi*o.Hi)
}

// Div is four-corner interval division; the caller must have excluded 0
// from o (a divisor interval containing 0 means #DIV/0! is possible and
// the quotient is unbounded — the transfer function handles that case).
func (iv Interval) Div(o Interval) Interval {
	if iv.IsEmpty() || o.IsEmpty() {
		return EmptyInterval()
	}
	return corners(iv.Lo/o.Lo, iv.Lo/o.Hi, iv.Hi/o.Lo, iv.Hi/o.Hi)
}

// Neg is interval negation.
func (iv Interval) Neg() Interval {
	if iv.IsEmpty() {
		return iv
	}
	return Interval{Lo: -iv.Hi, Hi: -iv.Lo}
}

// Scale multiplies both bounds by a positive constant.
func (iv Interval) Scale(k float64) Interval {
	if iv.IsEmpty() {
		return iv
	}
	return Span(iv.Lo*k, iv.Hi*k)
}

// Abs is the interval of |x| for x in iv.
func (iv Interval) Abs() Interval {
	if iv.IsEmpty() {
		return iv
	}
	lo := 0.0
	if !iv.Contains(0) {
		lo = math.Min(math.Abs(iv.Lo), math.Abs(iv.Hi))
	}
	return Span(lo, math.Max(math.Abs(iv.Lo), math.Abs(iv.Hi)))
}

// corners joins arithmetic corner results; a NaN corner (0*Inf, Inf-Inf,
// Inf/Inf) means no finite bound is sound on that side, so go Full.
func corners(a, b, c, d float64) Interval {
	for _, x := range [...]float64{a, b, c, d} {
		if math.IsNaN(x) {
			return Full()
		}
	}
	return Interval{
		Lo: math.Min(math.Min(a, b), math.Min(c, d)),
		Hi: math.Max(math.Max(a, b), math.Max(c, d)),
	}
}

// String renders "[lo, hi]", "(empty)" for the empty interval.
func (iv Interval) String() string {
	if iv.IsEmpty() {
		return "(empty)"
	}
	return fmt.Sprintf("[%g, %g]", iv.Lo, iv.Hi)
}

// Dir is a column's certified sortedness direction over its current
// values. Ascending/descending certificates additionally assert every
// cell of the run is a Number (the precondition under which binary
// search is observably identical to the evaluator's linear scans; see
// SortedAscRun).
type Dir uint8

// Sortedness directions.
const (
	DirNone Dir = iota
	DirAsc
	DirDesc
)

// String renders the direction ("", "asc", "desc").
func (d Dir) String() string {
	switch d {
	case DirAsc:
		return "asc"
	case DirDesc:
		return "desc"
	default:
		return ""
	}
}

// Value is the abstract value of one cell: the kind/error abstraction
// (typecheck.Abstract), refined with a numeric interval and an optional
// certified constant. The zero Value is bottom (no value reaches the cell; note the
// zero Interval is the point [0,0], which norm masks while the kind set
// excludes numbers).
type Value struct {
	// Ab is the kind/error component — the projection the type report and
	// the analyzer's error-flow rules consume.
	Ab typecheck.Abstract
	// Num bounds the cell's value whenever it holds a Number. It is
	// meaningful only when Ab.Kinds includes KNumber; norm keeps it empty
	// otherwise.
	Num Interval
	// Const, when non-nil, asserts the cell evaluates to exactly this
	// value under the current sheet state. Consumers must apply the
	// issuance guard (compare against the cached value) before acting on
	// it; see SheetCert.
	Const *cell.Value
}

// TopValue is the no-information abstract value.
func TopValue() Value {
	return Value{Ab: typecheck.Top, Num: Full()}
}

// Exactly abstracts a concrete stored value: the singleton abstraction
// admitting exactly that value, with the constant recorded.
func Exactly(v cell.Value) Value {
	out := Value{Ab: typecheck.Exactly(v), Num: EmptyInterval()}
	if v.Kind == cell.Number {
		out.Num = Point(v.Num)
	}
	c := v
	out.Const = &c
	return out
}

// norm re-establishes the representation invariant: a value whose kind
// set excludes numbers carries the empty interval.
func (v Value) norm() Value {
	if v.Ab.Kinds&typecheck.KNumber == 0 {
		v.Num = EmptyInterval()
	}
	return v
}

// eq is structural equality (the fixpoint's change detector), comparing
// through the Const pointer.
func (v Value) eq(w Value) bool {
	v, w = v.norm(), w.norm()
	if v.Ab != w.Ab || v.Num != w.Num {
		return false
	}
	if (v.Const == nil) != (w.Const == nil) {
		return false
	}
	return v.Const == nil || *v.Const == *w.Const
}

// IsTop reports whether the value carries no information.
func (v Value) IsTop() bool {
	return v.Ab == typecheck.Top && v.Num.IsFull() && v.Const == nil
}

// isBottom reports whether no value reaches the cell yet (the fixpoint
// seed): the kind and error sets are empty and nothing is certified.
func (v Value) isBottom() bool {
	return v.Ab == (typecheck.Abstract{}) && v.Const == nil
}

// Join is the lattice join: kinds and errors union, intervals union, and
// the constant survives only when both sides certify the same one. Bottom
// is the identity — joining it must not erase the other side's constant.
func (v Value) Join(w Value) Value {
	v, w = v.norm(), w.norm()
	if v.isBottom() {
		return w
	}
	if w.isBottom() {
		return v
	}
	out := Value{Ab: v.Ab.Union(w.Ab), Num: v.Num.Union(w.Num)}
	if v.Const != nil && w.Const != nil && *v.Const == *w.Const {
		out.Const = v.Const
	}
	return out
}

// WidenTo widens toward next (the joined successor): the finite kind and
// constant components come from next unchanged, unstable interval bounds
// jump to ±Inf.
func (v Value) WidenTo(next Value) Value {
	out := next.norm()
	out.Num = v.norm().Num.WidenTo(out.Num)
	return out
}

// Admits is the soundness relation the differential tests check: the
// concrete value must be admitted by the kind/error component, lie inside
// the interval when it is a number, and equal the constant when one is
// certified.
func (v Value) Admits(cv cell.Value) bool {
	v = v.norm()
	if !v.Ab.Admits(cv) {
		return false
	}
	if cv.Kind == cell.Number && !v.Num.Contains(cv.Num) {
		return false
	}
	if v.Const != nil && cv != *v.Const {
		return false
	}
	return true
}

// String renders the abstraction for reports: the kind/error rendering,
// then the interval when it adds information, then the constant.
func (v Value) String() string {
	v = v.norm()
	s := v.Ab.String()
	if v.Ab.Kinds&typecheck.KNumber != 0 && !v.Num.IsFull() {
		s += " in " + v.Num.String()
	}
	if v.Const != nil {
		s += " const=" + constText(*v.Const)
	}
	return s
}

// constText renders a certified constant compactly for reports: the
// display coercion, with text quoted so an empty string stays visible.
func constText(v cell.Value) string {
	if v.Kind == cell.Text {
		return fmt.Sprintf("%q", v.Str)
	}
	if v.Kind == cell.Empty {
		return "(empty)"
	}
	return v.AsString()
}
