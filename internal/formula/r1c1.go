package formula

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cell"
)

// Relative R1C1 normal form. A formula filled down a column keeps the same
// R1C1 text on every row — `=J2+1` on row 2 and `=J3+1` on row 3 are both
// `(R[0]C[-9]+1)` relative to their hosts — which is exactly the identity
// real engines (and the xlsx shared-formula encoding) use to store one
// master formula per fill region. The region-inference pass
// (internal/regions) keys fill-region membership on this form.
//
// Rendering rules, per reference component:
//
//   - relative: `R[k]` / `C[k]` where k is the signed offset from the host
//     cell to the *effective* (displacement-translated) coordinate; the
//     brackets are omitted when k == 0, so a self-row reference is `R`.
//   - absolute ($): `R<n>` / `C<n>` with n the 1-based absolute coordinate.
//
// An effective address off the sheet renders as #REF!, matching
// RewriteRelative.

// R1C1Text returns the canonical text of the subtree n in relative R1C1
// form for a formula hosted at `host` with displacement (dr, dc) from its
// authored origin (see sheet.Formula.DeltaAt). No leading '=' is included,
// mirroring Canonical and ShiftedText.
func R1C1Text(n Node, dr, dc int, host cell.Addr) string {
	var b strings.Builder
	(&printer{style: r1c1, dr: dr, dc: dc, host: host}).node(sink{b: &b}, n)
	return b.String()
}

// R1C1Hash returns the 64-bit FNV-1a hash of R1C1Text(n, dr, dc, host)
// without materializing the string; the region-inference pass buckets cells
// on this and breaks collisions with the text.
func R1C1Hash(n Node, dr, dc int, host cell.Addr) uint64 {
	var h uint64
	(&printer{style: r1c1, dr: dr, dc: dc, host: host}).node(hashSink(&h), n)
	return h
}

// writeR1C1Ref prints an effective (displaced, on-sheet) reference
// relative to the host cell.
func writeR1C1Ref(b sink, eff cell.Ref, host cell.Addr) {
	b.writeByte('R')
	writeR1C1Coord(b, eff.Addr.Row, host.Row, eff.AbsRow)
	b.writeByte('C')
	writeR1C1Coord(b, eff.Addr.Col, host.Col, eff.AbsCol)
}

func writeR1C1Coord(b sink, x, hostX int, abs bool) {
	if abs {
		b.int(x + 1)
		return
	}
	if k := x - hostX; k != 0 {
		b.writeByte('[')
		b.int(k)
		b.writeByte(']')
	}
}

// A1FromR1C1 translates formula text in relative R1C1 form back to A1 form
// for a formula hosted at `host` — the inverse of R1C1Text, so
// A1 -> R1C1 -> A1 round-trips to the same canonical formula. Only the
// reference tokens are rewritten; everything else (including string
// literals, which are never scanned for tokens) passes through. A token
// that resolves off the sheet is an error.
func A1FromR1C1(text string, host cell.Addr) (string, error) {
	var b strings.Builder
	b.Grow(len(text))
	inString := false
	for i := 0; i < len(text); {
		ch := text[i]
		if inString {
			b.WriteByte(ch)
			if ch == '"' {
				// `""` is an escaped quote inside the literal.
				if i+1 < len(text) && text[i+1] == '"' {
					b.WriteByte('"')
					i += 2
					continue
				}
				inString = false
			}
			i++
			continue
		}
		if ch == '"' {
			inString = true
			b.WriteByte(ch)
			i++
			continue
		}
		if ch == 'R' && !identChar(prevByte(text, i)) {
			if ref, end, ok := scanR1C1Ref(text, i, host); ok {
				if !ref.Addr.Valid() {
					return "", fmt.Errorf("formula: R1C1 token %q at offset %d resolves off the sheet at host %s",
						text[i:end], i, host.A1())
				}
				b.WriteString(ref.String())
				i = end
				continue
			}
		}
		b.WriteByte(ch)
		i++
	}
	return b.String(), nil
}

// identChar reports whether c can be part of an identifier or A1 reference,
// i.e. whether a preceding c rules out the start of an R1C1 token.
func identChar(c byte) bool {
	return c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z' ||
		c >= '0' && c <= '9' || c == '_' || c == '$'
}

func prevByte(s string, i int) byte {
	if i == 0 {
		return 0
	}
	return s[i-1]
}

// scanR1C1Ref matches an R1C1 token starting at s[i] (which is 'R'):
// R(<digits>|[<signed>])? C(<digits>|[<signed>])?, with no identifier
// character following. Bare digits are 1-based absolute coordinates;
// brackets are host-relative offsets; neither means offset 0.
func scanR1C1Ref(s string, i int, host cell.Addr) (cell.Ref, int, bool) {
	j := i + 1
	row, absRow, j, ok := scanR1C1Coord(s, j, host.Row)
	if !ok {
		return cell.Ref{}, 0, false
	}
	if j >= len(s) || s[j] != 'C' {
		return cell.Ref{}, 0, false
	}
	col, absCol, j, ok := scanR1C1Coord(s, j+1, host.Col)
	if !ok {
		return cell.Ref{}, 0, false
	}
	if j < len(s) && identChar(s[j]) {
		return cell.Ref{}, 0, false
	}
	ref := cell.Ref{Addr: cell.Addr{Row: row, Col: col}, AbsRow: absRow, AbsCol: absCol}
	return ref, j, true
}

// scanR1C1Coord parses the optional coordinate spec after an 'R' or 'C' at
// s[j:]; hostX anchors relative offsets.
func scanR1C1Coord(s string, j, hostX int) (x int, abs bool, end int, ok bool) {
	if j < len(s) && s[j] == '[' {
		k := j + 1
		if k < len(s) && (s[k] == '-' || s[k] == '+') {
			k++
		}
		d := k
		for d < len(s) && s[d] >= '0' && s[d] <= '9' {
			d++
		}
		if d == k || d >= len(s) || s[d] != ']' {
			return 0, false, 0, false
		}
		n, err := strconv.Atoi(s[j+1 : d])
		if err != nil {
			return 0, false, 0, false
		}
		return hostX + n, false, d + 1, true
	}
	d := j
	for d < len(s) && s[d] >= '0' && s[d] <= '9' {
		d++
	}
	if d > j {
		n, err := strconv.Atoi(s[j:d])
		if err != nil || n < 1 {
			return 0, false, 0, false
		}
		return n - 1, true, d, true
	}
	return hostX, false, j, true
}
