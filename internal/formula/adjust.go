package formula

import (
	"strings"

	"repro/internal/cell"
)

// Structural reference adjustment. Structural edits (inserting or deleting
// rows/columns) differ from moves: EVERY reference whose effective
// (displaced) coordinate lies at or beyond the edit point shifts, wherever
// the formula lives, and references into a deleted region become #REF! —
// the semantics all three benchmarked systems share.
//
// A fill group (cells sharing one *Compiled and origin) mostly comes
// through an edit unchanged in relative R1C1 form: every relative
// reference moves with its host and no anchored one moves. Edit.Rides
// tells such a cell apart; the engine keeps the group's *Compiled for it
// and adjusts the text of the other cells one by one (Edit.Adjust),
// re-anchored at their post-edit address.

// Edit is one structural row or column edit. Delta > 0 inserts Delta lines
// before line Boundary; Delta < 0 deletes lines [Boundary, Boundary-Delta).
type Edit struct {
	Boundary, Delta int
	// Rows selects the row axis; false is the column axis.
	Rows bool
}

// Move maps one coordinate on the edit's axis to where the edit puts it;
// dead reports a coordinate inside a deleted band. This is the one shift
// rule: the engine moves host cells with it and references move with it.
func (e Edit) Move(x int) (int, bool) {
	switch {
	case e.Delta > 0:
		if x >= e.Boundary {
			return x + e.Delta, false
		}
	case e.Delta < 0:
		cut := -e.Delta
		switch {
		case x >= e.Boundary && x < e.Boundary+cut:
			return x, true
		case x >= e.Boundary+cut:
			return x - cut, false
		}
	}
	return x, false
}

// MoveAddr maps a cell address through the edit; dead reports a cell the
// edit deletes.
func (e Edit) MoveAddr(a cell.Addr) (cell.Addr, bool) {
	x := e.axis(&a)
	var dead bool
	*x, dead = e.Move(*x)
	return a, dead
}

// axis points at a's coordinate on the edit's axis.
func (e Edit) axis(a *cell.Addr) *int {
	if e.Rows {
		return &a.Row
	}
	return &a.Col
}

// Adjust renders the post-edit text of a formula hosted with displacement
// (dr, dc). The text must be recompiled; the engine anchors it at the
// formula's post-edit address.
func (e Edit) Adjust(c *Compiled, dr, dc int) string {
	var b strings.Builder
	b.WriteByte('=')
	(&printer{style: adjusted, dr: dr, dc: dc, edit: e}).node(sink{b: &b}, c.Root)
	return b.String()
}

// Rides reports whether a formula hosted at host with displacement
// (dr, dc) comes through the edit unchanged in relative R1C1 form, so its
// cell can keep its (Code, Origin) pair. That holds when the host
// survives, no reference dies or lands off the sheet, every relative
// component on the axis moves exactly as far as the host, no absolute
// component on the axis moves, and no cross-sheet reference is relative
// on the axis while the host moves (an edit does not move foreign cells,
// so such a read is pinned and its offset changes).
func (e Edit) Rides(c *Compiled, dr, dc int, host cell.Addr) bool {
	x := *e.axis(&host)
	moved, dead := e.Move(x)
	if dead {
		return false
	}
	hostShift := moved - x
	local := func(ref cell.Ref) bool {
		_, shift, dead := e.move(ref, dr, dc)
		if e.absolute(ref) {
			return !dead && shift == 0
		}
		return !dead && shift == hostShift
	}
	foreign := func(ref cell.Ref) bool {
		return ref.Shift(dr, dc).Addr.Valid() && (e.absolute(ref) || hostShift == 0)
	}
	clean := true
	walk(c.Root, func(n Node) {
		switch t := n.(type) {
		case RefNode:
			clean = clean && local(t.Ref)
		case RangeNode:
			clean = clean && local(t.From) && local(t.To)
		case ExtRefNode:
			clean = clean && foreign(t.From) && (!t.IsRange || foreign(t.To))
		}
	})
	return clean
}

// Resizes reports whether the edit moves the two corners of one of the
// formula's local ranges by different amounts, so that the range gains or
// loses cells even where the formula rides: =SUM(D$2:D8) hosted below a
// deleted row keeps its text but reads one row fewer.
func (e Edit) Resizes(c *Compiled, dr, dc int) bool {
	resized := false
	walk(c.Root, func(n Node) {
		if t, ok := n.(RangeNode); ok {
			_, from, _ := e.move(t.From, dr, dc)
			_, to, _ := e.move(t.To, dr, dc)
			resized = resized || from != to
		}
	})
	return resized
}

// absolute reports whether the reference is anchored ($) on the edit's
// axis.
func (e Edit) absolute(r cell.Ref) bool {
	if e.Rows {
		return r.AbsRow
	}
	return r.AbsCol
}

// move maps one reference, hosted with displacement (dr, dc), through the
// edit: its effective coordinate on the axis moves past the edit by shift.
// dead reports a reference into a deleted region or off the sheet.
func (e Edit) move(r cell.Ref, dr, dc int) (out cell.Ref, shift int, dead bool) {
	out = r.Shift(dr, dc)
	x := e.axis(&out.Addr)
	was := *x
	*x, dead = e.Move(*x)
	return out, *x - was, dead || !out.Addr.Valid()
}

func (p *printer) adjustedRef(b sink, r cell.Ref) {
	out, _, dead := p.edit.move(r, p.dr, p.dc)
	if dead {
		b.writeString(cell.ErrRef)
		return
	}
	b.ref(out)
}

// adjustedRange prints a range through the edit. Endpoints clamp instead
// of erroring so ranges shrink over a deletion; only a fully deleted range
// yields #REF!.
func (p *printer) adjustedRange(b sink, t RangeNode) {
	from, _, fromDead := p.edit.move(t.From, p.dr, p.dc)
	to, _, toDead := p.edit.move(t.To, p.dr, p.dc)
	if fromDead && toDead {
		b.writeString(cell.ErrRef)
		return
	}
	if fromDead {
		*p.edit.axis(&from.Addr) = p.edit.Boundary
	}
	if toDead {
		*p.edit.axis(&to.Addr) = p.edit.Boundary - 1
		if !to.Addr.Valid() {
			b.writeString(cell.ErrRef)
			return
		}
	}
	b.ref(from)
	b.writeByte(':')
	b.ref(to)
}
