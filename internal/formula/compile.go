package formula

import (
	"hash/fnv"
	"strings"
	"time"

	"repro/internal/cell"
	"repro/internal/obs"
)

// Compiled is a parsed formula together with the derived facts the engine
// needs: the precedent cells/ranges, a fingerprint for redundant-computation
// detection (§5.4), volatility (NOW, RAND force recomputation on every calc
// pass), and the reference-shape flags driving the sort-recalculation
// analysis of §6 ("Detecting what needs recomputation").
type Compiled struct {
	// Text is the original formula text, including the leading '='.
	Text string
	// Root is the parsed AST.
	Root Node
	// Refs holds the single-cell precedents in source order.
	Refs []cell.Ref
	// Ranges holds the range precedents in source order.
	Ranges []cell.Range
	// Volatile marks formulae that must recompute on every pass.
	Volatile bool
	// External marks formulae containing a cross-sheet reference. Their
	// precedents live outside the host sheet's dependency graph, so the
	// engine refreshes them with a cross-sheet fixpoint after every
	// value-mutating operation instead.
	External bool
	// HasAbsolute is true when any reference component is absolute ($).
	HasAbsolute bool
	// Fingerprint is a 64-bit FNV-1a hash of the canonical text. Equal
	// fingerprints (plus equal canonical text, checked on collision) mean
	// the formulae compute identical values on the same sheet.
	Fingerprint uint64
	canonical   string
	// crits holds the text-literal criteria of the formula's conditional
	// aggregates, compiled once here instead of on every evaluation. It is
	// read-only after Compile, so concurrent evaluations share it.
	crits []textCrit
}

// textCrit is one precompiled text-literal criterion.
type textCrit struct {
	text string
	crit Criterion
}

// criterionArg reports whether argument i of the named call is a
// criterion: the second argument of COUNTIF/SUMIF/AVERAGEIF, every second
// argument of COUNTIFS, and every second argument after the first of the
// other *IFS functions.
func criterionArg(name string, i int) bool {
	switch name {
	case "COUNTIF", "SUMIF", "AVERAGEIF":
		return i == 1
	case "COUNTIFS":
		return i%2 == 1
	case "SUMIFS", "AVERAGEIFS", "MAXIFS", "MINIFS":
		return i > 0 && i%2 == 0
	}
	return false
}

// volatileFuncs are functions whose value can change without any precedent
// changing; the classic set shared by all three dialects. OFFSET and
// INDIRECT are volatile in Excel, Calc, and Sheets alike — their reference
// targets are computed, so the dependency graph cannot prove their
// precedents unchanged — and belong here even though this engine does not
// evaluate them yet (unknown calls yield #NAME?).
var volatileFuncs = map[string]bool{
	"NOW": true, "TODAY": true, "RAND": true, "RANDBETWEEN": true,
	"OFFSET": true, "INDIRECT": true,
}

// Compile parses and analyzes a formula. The text may include or omit the
// leading '='.
func Compile(text string) (*Compiled, error) {
	if obs.Enabled() {
		defer compileTime.ObserveSince(time.Now())
	}
	root, err := Parse(text)
	if err != nil {
		return nil, err
	}
	c := &Compiled{Root: root}
	if strings.HasPrefix(text, "=") {
		c.Text = text
	} else {
		c.Text = "=" + text
	}
	walk(root, func(n Node) {
		switch t := n.(type) {
		case RefNode:
			c.Refs = append(c.Refs, t.Ref)
			if t.Ref.AbsRow || t.Ref.AbsCol {
				c.HasAbsolute = true
			}
		case RangeNode:
			c.Ranges = append(c.Ranges, t.Range())
			if t.From.AbsRow || t.From.AbsCol || t.To.AbsRow || t.To.AbsCol {
				c.HasAbsolute = true
			}
		case ExtRefNode:
			c.External = true
		case CallNode:
			if volatileFuncs[t.Name] {
				c.Volatile = true
			}
			for i, arg := range t.Args {
				if lit, ok := arg.(StringLit); ok && criterionArg(t.Name, i) {
					c.crits = append(c.crits, textCrit{text: string(lit), crit: compileTextCriterion(string(lit))})
				}
			}
		}
	})
	c.canonical = Canonical(root)
	h := fnv.New64a()
	h.Write([]byte(c.canonical))
	c.Fingerprint = h.Sum64()
	return c, nil
}

// MustCompile is like Compile but panics on error; for tests and
// compile-time-constant formulae.
func MustCompile(text string) *Compiled {
	c, err := Compile(text)
	if err != nil {
		panic(err)
	}
	return c
}

// CanonicalText returns the canonical (normalized) formula body used for
// fingerprinting.
func (c *Compiled) CanonicalText() string { return c.canonical }

// EquivalentTo reports whether two compiled formulae are textually
// equivalent after normalization — the "exactly the same formula" test of
// the redundant-computation experiment (§5.4). Fingerprints are compared
// first; canonical text breaks hash collisions.
func (c *Compiled) EquivalentTo(d *Compiled) bool {
	return c.Fingerprint == d.Fingerprint && c.canonical == d.canonical
}

// PrecedentCells returns the total number of individual cells referenced by
// the formula (single refs plus all cells of every range). This is the
// quantity whose quadratic growth explains the repeated-computation curve of
// §5.3 (Figure 11).
func (c *Compiled) PrecedentCells() int {
	n := len(c.Refs)
	for _, r := range c.Ranges {
		n += r.Cells()
	}
	return n
}

// PrecedentRanges returns every precedent (single refs as 1x1 ranges) with
// relative components translated by (dr, dc) — the displacement of the cell
// hosting the formula from where its text was authored. The engine uses
// this for dependency-graph registration. A reference or range off the
// sheet reads nothing (it evaluates to #REF!), so it is no precedent.
func (c *Compiled) PrecedentRanges(dr, dc int) []cell.Range {
	out := make([]cell.Range, 0, len(c.Refs)+len(c.Ranges))
	for _, r := range c.Refs {
		if a := r.Shift(dr, dc).Addr; a.Valid() {
			out = append(out, cell.SingleCell(a))
		}
	}
	walk(c.Root, func(n Node) {
		if t, ok := n.(RangeNode); ok {
			if r := t.Shift(dr, dc); r.Start.Valid() {
				out = append(out, r)
			}
		}
	})
	return out
}

// RowLocal reports whether a formula placed at the given address reads only
// relative references within its own row. Under a whole-sheet row
// reordering (sort), such a formula travels with its row and its value
// cannot change — the recalculation-skip rule from §6: "when sorting an
// entire spreadsheet by row, any formula with relative columnar references,
// e.g. C1 = A1 + B1, are unaffected, while formulae with absolute
// references require recomputation".
func (c *Compiled) RowLocal(at cell.Addr) bool {
	if c.Volatile {
		return false
	}
	// Cross-sheet precedents do not travel with the host row under a sort,
	// so an external formula is never row-local.
	if c.External {
		return false
	}
	for _, r := range c.Refs {
		if r.AbsRow || r.AbsCol || r.Addr.Row != at.Row {
			return false
		}
	}
	// Any multi-row range spans other rows by construction; a single-row
	// relative range in the formula's own row is still row-local.
	for i, rng := range c.Ranges {
		_ = i
		if rng.Start.Row != at.Row || rng.End.Row != at.Row {
			return false
		}
	}
	// Re-check absolute flags on range endpoints (covered by HasAbsolute
	// only if set); HasAbsolute includes refs too, so test explicitly.
	if c.HasAbsolute {
		return false
	}
	return true
}

// RewriteRelative returns the formula text with every relative reference
// component translated by (dr, dc) rows/columns, as happens when a formula
// is copy-pasted. Absolute components are preserved. Translating a
// reference off the sheet yields a #REF! marker in the text, matching
// spreadsheet behavior.
func (c *Compiled) RewriteRelative(dr, dc int) string {
	var b strings.Builder
	b.WriteByte('=')
	(&printer{dr: dr, dc: dc}).node(sink{b: &b}, c.Root)
	return b.String()
}
