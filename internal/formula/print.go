package formula

import (
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

// sink is where printed text streams: into a strings.Builder when the text
// itself is wanted, or, with b nil, into a running 64-bit FNV-1a hash when
// only a fingerprint is, so hashing builds no text and allocates nothing.
type sink struct {
	b *strings.Builder
	h *uint64
}

// FNV-1a parameters (hash/fnv's New64a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashSink returns a sink hashing into *h, which it seeds.
func hashSink(h *uint64) sink {
	*h = fnvOffset64
	return sink{h: h}
}

func (s sink) writeString(x string) {
	if s.b != nil {
		s.b.WriteString(x)
		return
	}
	for i := 0; i < len(x); i++ {
		*s.h = (*s.h ^ uint64(x[i])) * fnvPrime64
	}
}

func (s sink) writeByte(c byte) {
	if s.b != nil {
		s.b.WriteByte(c)
		return
	}
	*s.h = (*s.h ^ uint64(c)) * fnvPrime64
}

func (s sink) write(p []byte) {
	if s.b != nil {
		s.b.Write(p)
		return
	}
	for _, c := range p {
		*s.h = (*s.h ^ uint64(c)) * fnvPrime64
	}
}

// ref prints an A1 reference and num a number literal. Text keeps the
// formatting it has always used (and so Compile's allocation profile);
// hashing formats into stack buffers.
func (s sink) ref(r cell.Ref) {
	if s.b != nil {
		s.b.WriteString(r.String())
		return
	}
	var buf [32]byte
	s.write(r.AppendTo(buf[:0]))
}

func (s sink) num(f float64) {
	if s.b != nil {
		s.b.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
		return
	}
	var buf [32]byte
	s.write(strconv.AppendFloat(buf[:0], f, 'g', -1, 64))
}

func (s sink) int(v int) {
	var buf [24]byte
	s.write(strconv.AppendInt(buf[:0], int64(v), 10))
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
	// edit is an adjusted style's structural edit.
	edit Edit
}

func (p *printer) node(b sink, n Node) {
	switch t := n.(type) {
	case NumberLit:
		b.num(float64(t))
	case StringLit:
		b.writeByte('"')
		b.writeString(strings.ReplaceAll(string(t), `"`, `""`))
		b.writeByte('"')
	case BoolLit:
		if t {
			b.writeString("TRUE")
		} else {
			b.writeString("FALSE")
		}
	case ErrorLit:
		b.writeString(string(t))
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
		p.span(b, t.From, t.To)
	case ExtRefNode:
		// An off-sheet cross-sheet reference prints as a bare #REF!: the
		// parser reads no error after a sheet name.
		if !p.onSheet(t.From) || t.IsRange && !p.onSheet(t.To) {
			b.writeString(cell.ErrRef)
			return
		}
		b.writeString(t.Sheet)
		b.writeByte('!')
		p.ref(b, t.From)
		if t.IsRange {
			b.writeByte(':')
			p.ref(b, t.To)
		}
	case CallNode:
		b.writeString(t.Name)
		b.writeByte('(')
		for i, a := range t.Args {
			if i > 0 {
				b.writeByte(',')
			}
			p.node(b, a)
		}
		b.writeByte(')')
	case BinaryNode:
		b.writeByte('(')
		p.node(b, t.L)
		b.writeString(t.Op.String())
		p.node(b, t.R)
		b.writeByte(')')
	case UnaryNode:
		b.writeByte('(')
		if t.Op == "%" {
			p.node(b, t.X)
			b.writeString("%)")
			return
		}
		b.writeString(t.Op)
		p.node(b, t.X)
		b.writeByte(')')
	}
}

// onSheet reports whether the reference, read from the displaced host,
// lands on the sheet.
func (p *printer) onSheet(r cell.Ref) bool { return r.Shift(p.dr, p.dc).Addr.Valid() }

// span prints a range read from the displaced host; a range with a corner
// off the sheet prints as one #REF!, which is what it evaluates to.
func (p *printer) span(b sink, from, to cell.Ref) {
	if !p.onSheet(from) || !p.onSheet(to) {
		b.writeString(cell.ErrRef)
		return
	}
	p.ref(b, from)
	b.writeByte(':')
	p.ref(b, to)
}

// ref prints one reference read from the displaced host, in A1 or R1C1
// form.
func (p *printer) ref(b sink, r cell.Ref) {
	eff := r.Shift(p.dr, p.dc)
	if !eff.Addr.Valid() {
		b.writeString(cell.ErrRef)
		return
	}
	if p.style == r1c1 {
		writeR1C1Ref(b, eff, p.host)
		return
	}
	b.ref(eff)
}
