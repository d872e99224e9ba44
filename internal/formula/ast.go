package formula

import (
	"fmt"
	"strings"

	"repro/internal/cell"
)

// Node is a formula AST node. Nodes are immutable after parsing; a Compiled
// formula and its AST may be shared between cells (the engine deduplicates
// identical formula texts at load time purely to save memory — sharing the
// *computation* is exactly what the benchmarked systems do not do, and is
// modeled separately).
type Node interface {
	// node marks the AST node types; the printer (print.go) and the
	// evaluator switch over them.
	node()
}

// NumberLit is a numeric literal.
type NumberLit float64

// StringLit is a string literal.
type StringLit string

// BoolLit is TRUE or FALSE.
type BoolLit bool

// ErrorLit is an error literal such as #REF!, produced by structural edits
// that delete referenced cells; it evaluates to the error value.
type ErrorLit string

// RefNode is a single-cell reference such as A1 or $B$2.
type RefNode struct {
	Ref cell.Ref
}

// RangeNode is a rectangular range reference such as A1:B10.
type RangeNode struct {
	From cell.Ref
	To   cell.Ref
}

// Range returns the canonical cell range covered by the node.
func (r RangeNode) Range() cell.Range { return cell.RangeOf(r.From.Addr, r.To.Addr) }

// Shift returns the range the node reads from a cell displaced (dr, dc)
// from where the formula was written: the range form of cell.Ref.Shift.
func (r RangeNode) Shift(dr, dc int) cell.Range {
	return cell.RangeOf(r.From.Shift(dr, dc).Addr, r.To.Shift(dr, dc).Addr)
}

// ExtRefNode is a cross-sheet reference such as accounts!B2 or
// ledger!A2:A500. The sheet name must be identifier-like (no quoting
// dialect); the reference components may still be relative, in which case
// they shift with the host cell's displacement like any local reference —
// but only within the foreign sheet's coordinate space.
type ExtRefNode struct {
	Sheet    string // sheet name as written
	From, To cell.Ref
	IsRange  bool // false: single-cell reference (To unused)
}

// Shift returns the foreign range the node reads from a cell displaced
// (dr, dc) from where the formula was written (a single cell when IsRange
// is false): the cross-sheet form of RangeNode.Shift.
func (n ExtRefNode) Shift(dr, dc int) cell.Range {
	if !n.IsRange {
		return cell.SingleCell(n.From.Shift(dr, dc).Addr)
	}
	return RangeNode{From: n.From, To: n.To}.Shift(dr, dc)
}

// CallNode is a function invocation.
type CallNode struct {
	Name string // uppercase
	Args []Node
}

// BinOp enumerates binary operators.
type BinOp int

// Binary operators in precedence groups (see parser.go).
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpPow
	OpConcat
	OpEQ
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
)

var binOpText = map[BinOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpPow: "^",
	OpConcat: "&", OpEQ: "=", OpNE: "<>", OpLT: "<", OpLE: "<=",
	OpGT: ">", OpGE: ">=",
}

// String returns the operator's source text.
func (op BinOp) String() string { return binOpText[op] }

// BinaryNode applies a binary operator.
type BinaryNode struct {
	Op   BinOp
	L, R Node
}

// UnaryNode applies unary minus, unary plus, or the percent postfix.
type UnaryNode struct {
	Op string // "-", "+", "%"
	X  Node
}

func (NumberLit) node()  {}
func (StringLit) node()  {}
func (BoolLit) node()    {}
func (ErrorLit) node()   {}
func (RefNode) node()    {}
func (RangeNode) node()  {}
func (ExtRefNode) node() {}
func (CallNode) node()   {}
func (BinaryNode) node() {}
func (UnaryNode) node()  {}

// Canonical returns the canonical text of a formula AST (without the leading
// '='). Two formulae with equal canonical text are guaranteed to compute the
// same value on the same sheet.
func Canonical(n Node) string {
	var b strings.Builder
	(&printer{}).node(sink{b: &b}, n)
	return b.String()
}

// walk visits n and all descendants in depth-first order.
func walk(n Node, visit func(Node)) {
	visit(n)
	switch t := n.(type) {
	case CallNode:
		for _, a := range t.Args {
			walk(a, visit)
		}
	case BinaryNode:
		walk(t.L, visit)
		walk(t.R, visit)
	case UnaryNode:
		walk(t.X, visit)
	}
}

// sanity check that all node types implement Node.
var (
	_ Node = NumberLit(0)
	_ Node = StringLit("")
	_ Node = BoolLit(false)
	_ Node = ErrorLit("")
	_ Node = RefNode{}
	_ Node = RangeNode{}
	_ Node = ExtRefNode{}
	_ Node = CallNode{}
	_ Node = BinaryNode{}
	_ Node = UnaryNode{}
)

// errParse wraps parse errors with the formula text for diagnostics.
func errParse(src string, pos int, format string, args ...any) error {
	return fmt.Errorf("formula: parsing %q at offset %d: %s", src, pos, fmt.Sprintf(format, args...))
}
