package formula

import (
	"io"
	"strconv"
	"strings"

	"repro/internal/cell"
)

// One printer renders every textual form of a formula AST: canonical text,
// displaced (copy-paste) text, structurally adjusted text and host-relative
// R1C1 text. The forms differ only in how a reference prints, so the
// printer walks the tree once and a refStyle picks the reference form;
// canonical text is displaced text at (0, 0). Every form prints uppercase
// function names, 'g'-formatted numbers and fully parenthesized operators,
// so equal text means an equal computation (the fingerprints of §5.4).

// canonWriter is the sink printed text streams into: a *strings.Builder
// when the text itself is wanted, or the hashing adapter in visit.go when
// only a fingerprint is (so hashing builds no intermediate text).
type canonWriter interface {
	io.StringWriter
	io.ByteWriter
}

// refStyle selects how the printer renders references.
type refStyle uint8

const (
	// a1Shifted prints A1 references read from a cell displaced (dr, dc)
	// from the formula's origin; a reference off the sheet prints #REF!.
	a1Shifted refStyle = iota
	// r1c1 prints references relative to the host cell (r1c1.go),
	// cross-sheet ones behind their sheet name: two hosts share an R1C1
	// text only when their effective foreign reads coincide too.
	r1c1
	// adjusted applies a structural row or column edit to local
	// references (adjust.go). Cross-sheet ones print as a1Shifted: an
	// edit of the host sheet does not move foreign cells, so the effective
	// reference is pinned as it is.
	adjusted
)

// printer renders formula trees in one reference style. The zero value
// prints canonical text.
type printer struct {
	style  refStyle
	dr, dc int
	// host anchors r1c1 offsets.
	host cell.Addr
	// boundary, delta and rowAxis describe an adjusted style's edit (see
	// AdjustForRowChange).
	boundary, delta int
	rowAxis         bool
}

func (p *printer) node(b canonWriter, n Node) {
	switch t := n.(type) {
	case NumberLit:
		b.WriteString(strconv.FormatFloat(float64(t), 'g', -1, 64))
	case StringLit:
		b.WriteByte('"')
		b.WriteString(strings.ReplaceAll(string(t), `"`, `""`))
		b.WriteByte('"')
	case BoolLit:
		if t {
			b.WriteString("TRUE")
		} else {
			b.WriteString("FALSE")
		}
	case ErrorLit:
		b.WriteString(string(t))
	case RefNode:
		if p.style == adjusted {
			p.adjustedRef(b, t.Ref)
			return
		}
		p.ref(b, t.Ref)
	case RangeNode:
		if p.style == adjusted {
			p.adjustedRange(b, t)
			return
		}
		p.ref(b, t.From)
		b.WriteByte(':')
		p.ref(b, t.To)
	case ExtRefNode:
		b.WriteString(t.Sheet)
		b.WriteByte('!')
		p.ref(b, t.From)
		if t.IsRange {
			b.WriteByte(':')
			p.ref(b, t.To)
		}
	case CallNode:
		b.WriteString(t.Name)
		b.WriteByte('(')
		for i, a := range t.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			p.node(b, a)
		}
		b.WriteByte(')')
	case BinaryNode:
		b.WriteByte('(')
		p.node(b, t.L)
		b.WriteString(t.Op.String())
		p.node(b, t.R)
		b.WriteByte(')')
	case UnaryNode:
		b.WriteByte('(')
		if t.Op == "%" {
			p.node(b, t.X)
			b.WriteString("%)")
			return
		}
		b.WriteString(t.Op)
		p.node(b, t.X)
		b.WriteByte(')')
	}
}

// ref prints one reference read from the displaced host, in A1 or R1C1
// form.
func (p *printer) ref(b canonWriter, r cell.Ref) {
	eff := r.Shift(p.dr, p.dc)
	if !eff.Addr.Valid() {
		b.WriteString(cell.ErrRef)
		return
	}
	if p.style == r1c1 {
		writeR1C1Ref(b, eff, p.host)
		return
	}
	b.WriteString(eff.String())
}
