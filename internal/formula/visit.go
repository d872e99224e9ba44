package formula

import (
	"strings"

	"repro/internal/cell"
)

// This file is the public AST-inspection surface used by the static
// analyzer (internal/analyze): a visitor, child enumeration, volatility
// lookup, and subtree fingerprints that account for the displacement of the
// hosting cell from where the formula text was authored.

// Walk visits n and all of its descendants in depth-first pre-order.
func Walk(n Node, visit func(Node)) { walk(n, visit) }

// Children returns the direct child nodes of n (nil for leaves). The
// returned slice is freshly allocated.
func Children(n Node) []Node {
	switch t := n.(type) {
	case CallNode:
		out := make([]Node, len(t.Args))
		copy(out, t.Args)
		return out
	case BinaryNode:
		return []Node{t.L, t.R}
	case UnaryNode:
		return []Node{t.X}
	default:
		return nil
	}
}

// LiteralValue returns the value of a number, string or boolean literal
// node; ok is false for every other node.
func LiteralValue(n Node) (v cell.Value, ok bool) {
	switch t := n.(type) {
	case NumberLit:
		return cell.Num(float64(t)), true
	case StringLit:
		return cell.Str(string(t)), true
	case BoolLit:
		return cell.Boolean(bool(t)), true
	}
	return cell.Value{}, false
}

// IsVolatileFunc reports whether the named built-in (uppercase) is
// volatile — its value can change without any precedent changing.
func IsVolatileFunc(name string) bool { return volatileFuncs[name] }

// ShiftedText returns the canonical text of the subtree n with every
// relative reference component translated by (dr, dc) — the displacement of
// the hosting cell from the formula's origin. Two subtrees with equal
// shifted text compute the same value on the same sheet, which makes this
// the identity under which shared-subexpression candidates are grouped
// (the precursor to the paper's §5.3/§6 shared-computation optimization).
func ShiftedText(n Node, dr, dc int) string {
	var b strings.Builder
	(&printer{dr: dr, dc: dc}).node(sink{b: &b}, n)
	return b.String()
}

// SubtreeHash returns the 64-bit FNV-1a hash of ShiftedText(n, dr, dc)
// without materializing the string: the canonical bytes stream straight
// into the hash. Analyzers that bucket millions of subtrees key on this.
func SubtreeHash(n Node, dr, dc int) uint64 {
	var h uint64
	(&printer{dr: dr, dc: dc}).node(hashSink(&h), n)
	return h
}
