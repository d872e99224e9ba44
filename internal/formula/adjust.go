package formula

import (
	"strings"

	"repro/internal/cell"
)

// Structural reference adjustment. Structural edits (inserting or deleting
// rows/columns) differ from moves: EVERY reference whose effective
// (displaced) coordinate lies at or beyond the edit point shifts, wherever
// the formula lives, and references into a deleted region become #REF! —
// the semantics all three benchmarked systems share. The adjusted text must
// be recompiled; the engine re-anchors it at the formula's post-edit
// address.

// AdjustForRowChange renders the formula's post-edit text for a formula
// hosted with displacement (dr, dc) from its authored origin.
//
//   - delta > 0: delta rows were inserted before row `boundary`;
//     references with effective row >= boundary shift down.
//   - delta < 0: rows [boundary, boundary-delta) were deleted; references
//     into the region die, references below shift up.
func AdjustForRowChange(c *Compiled, dr, dc int, boundary, delta int) string {
	return adjustText(c, &printer{style: adjusted, dr: dr, dc: dc, boundary: boundary, delta: delta, rowAxis: true})
}

// AdjustForColChange is the column-axis counterpart of AdjustForRowChange.
func AdjustForColChange(c *Compiled, dr, dc int, boundary, delta int) string {
	return adjustText(c, &printer{style: adjusted, dr: dr, dc: dc, boundary: boundary, delta: delta})
}

func adjustText(c *Compiled, p *printer) string {
	var b strings.Builder
	b.WriteByte('=')
	p.node(&b, c.Root)
	return b.String()
}

// adjust maps one reference to its post-edit form: the effective
// (displaced) coordinate on the edit axis moves past the edit. dead
// reports a reference into a deleted region or off the sheet.
func (p *printer) adjust(r cell.Ref) (out cell.Ref, dead bool) {
	out = r.Shift(p.dr, p.dc)
	x := &out.Addr.Col
	if p.rowAxis {
		x = &out.Addr.Row
	}
	*x, dead = shiftCoord(*x, p.boundary, p.delta)
	return out, dead || !out.Addr.Valid()
}

// shiftCoord applies the structural shift to one coordinate.
func shiftCoord(x, boundary, delta int) (int, bool) {
	switch {
	case delta > 0:
		if x >= boundary {
			return x + delta, false
		}
	case delta < 0:
		cut := -delta
		switch {
		case x >= boundary && x < boundary+cut:
			return x, true
		case x >= boundary+cut:
			return x - cut, false
		}
	}
	return x, false
}

func (p *printer) adjustedRef(b canonWriter, r cell.Ref) {
	out, dead := p.adjust(r)
	if dead {
		b.WriteString(cell.ErrRef)
		return
	}
	b.WriteString(out.String())
}

// adjustedRange prints a range through the edit. Endpoints clamp instead
// of erroring so ranges shrink over a deletion; only a fully deleted range
// yields #REF!.
func (p *printer) adjustedRange(b canonWriter, t RangeNode) {
	from, fromDead := p.adjust(t.From)
	to, toDead := p.adjust(t.To)
	if fromDead && toDead {
		b.WriteString(cell.ErrRef)
		return
	}
	if fromDead {
		if p.rowAxis {
			from.Addr.Row = p.boundary
		} else {
			from.Addr.Col = p.boundary
		}
	}
	if toDead {
		if p.rowAxis {
			to.Addr.Row = p.boundary - 1
		} else {
			to.Addr.Col = p.boundary - 1
		}
		if !to.Addr.Valid() {
			b.WriteString(cell.ErrRef)
			return
		}
	}
	b.WriteString(from.String())
	b.WriteByte(':')
	b.WriteString(to.String())
}
