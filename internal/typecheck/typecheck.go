// Package typecheck is the kind/error domain of the formula language's
// static analysis: a kind lattice per cell (number / text / bool / empty)
// plus an error-possibility set (#DIV/0!, #VALUE!, #REF!, #N/A, #NAME?,
// #CYCLE!), with the join, the abstraction of a concrete value (Exactly)
// and the soundness relation (Admits).
//
// The paper's central finding is that the benchmarked systems execute
// formulas with essentially no prior analysis; the database-style
// optimizations of §6 all need static knowledge — which columns are
// numeric, which formulas can error, where errors flow. The abstract
// interpreter that computes that knowledge lives in internal/absint, whose
// values carry this domain as their kind/error projection (Value.Ab). That
// projection feeds the `sheetcli typecheck` report
// (absint.TypecheckWorkbook) and the error-blast-radius and
// coercion-hot-path analyzer rules (internal/analyze).
//
// Soundness contract: for every cell, the value observed after evaluation
// is admitted by the inferred abstraction (Abstract.Admits); absint's
// differential soundness tests check it against the evaluator over every
// workload generator.
package typecheck

import (
	"strings"

	"repro/internal/cell"
)

// Kinds is a bitmask over the non-error value kinds a cell can hold. The
// zero Kinds (with zero Errs) is bottom: no value reaches the cell.
type Kinds uint8

// Kind bits, in the canonical rendering order.
const (
	KNumber Kinds = 1 << iota
	KText
	KBool
	KEmpty
)

// AllKinds is the top of the kind component.
const AllKinds = KNumber | KText | KBool | KEmpty

// Errs is a bitmask over the formula error codes a cell can surface.
type Errs uint8

// Error bits, in the canonical rendering order.
const (
	EDiv0 Errs = 1 << iota
	EValue
	ERef
	ENA
	EName
	ECycle
)

// AllErrs is the top of the error component.
const AllErrs = EDiv0 | EValue | ERef | ENA | EName | ECycle

var kindNames = []struct {
	bit  Kinds
	name string
}{
	{KNumber, "number"},
	{KText, "text"},
	{KBool, "bool"},
	{KEmpty, "empty"},
}

var errNames = []struct {
	bit  Errs
	code string
}{
	{EDiv0, cell.ErrDiv0},
	{EValue, cell.ErrValue},
	{ERef, cell.ErrRef},
	{ENA, cell.ErrNA},
	{EName, cell.ErrName},
	{ECycle, cell.ErrCycle},
}

// String renders the kind set as "number|text|..." in canonical order;
// empty set renders as "none".
func (k Kinds) String() string {
	if k == 0 {
		return "none"
	}
	var parts []string
	for _, kn := range kindNames {
		if k&kn.bit != 0 {
			parts = append(parts, kn.name)
		}
	}
	return strings.Join(parts, "|")
}

// String renders the error set as "#DIV/0!|#CYCLE!..." in canonical order;
// the empty set renders as "".
func (e Errs) String() string {
	var parts []string
	for _, en := range errNames {
		if e&en.bit != 0 {
			parts = append(parts, en.code)
		}
	}
	return strings.Join(parts, "|")
}

// errBit maps an error code string to its lattice bit. Unknown codes map
// to the whole error set, keeping the abstraction sound for codes this
// package does not model.
func errBit(code string) Errs {
	for _, en := range errNames {
		if en.code == code {
			return en.bit
		}
	}
	return AllErrs
}

// Abstract is one cell's inferred abstraction: the set of value kinds it
// may hold plus the set of errors it may surface. The zero Abstract is
// bottom; Top is the pair (AllKinds, AllErrs).
type Abstract struct {
	Kinds Kinds
	Errs  Errs
}

// Top is the no-information abstraction: any kind, any error.
var Top = Abstract{Kinds: AllKinds, Errs: AllErrs}

// Union joins two abstractions (the lattice join).
func (a Abstract) Union(b Abstract) Abstract {
	return Abstract{Kinds: a.Kinds | b.Kinds, Errs: a.Errs | b.Errs}
}

// IsBottom reports whether no value reaches the cell.
func (a Abstract) IsBottom() bool { return a == Abstract{} }

// MayError reports whether any error is possible.
func (a Abstract) MayError() bool { return a.Errs != 0 }

// String renders the abstraction: the kind set, then the error set when
// non-empty ("number errs=#DIV/0!").
func (a Abstract) String() string {
	if a.IsBottom() {
		return "bottom"
	}
	s := a.Kinds.String()
	if a.Kinds == 0 {
		s = ""
	}
	if a.Errs != 0 {
		if s != "" {
			s += " "
		}
		s += "errs=" + a.Errs.String()
	}
	return s
}

// Exactly abstracts a concrete stored value: the singleton abstraction
// admitting exactly that value's kind (or error code).
func Exactly(v cell.Value) Abstract {
	switch v.Kind {
	case cell.Number:
		return Abstract{Kinds: KNumber}
	case cell.Text:
		return Abstract{Kinds: KText}
	case cell.Bool:
		return Abstract{Kinds: KBool}
	case cell.ErrorVal:
		return Abstract{Errs: errBit(v.Str)}
	default:
		return Abstract{Kinds: KEmpty}
	}
}

// Admits reports whether a concrete value is a member of the abstraction —
// the soundness relation the differential tests check.
func (a Abstract) Admits(v cell.Value) bool {
	switch v.Kind {
	case cell.Number:
		return a.Kinds&KNumber != 0
	case cell.Text:
		return a.Kinds&KText != 0
	case cell.Bool:
		return a.Kinds&KBool != 0
	case cell.ErrorVal:
		return a.Errs&errBit(v.Str) != 0
	default:
		return a.Kinds&KEmpty != 0
	}
}
