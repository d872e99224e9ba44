// Package cell defines the fundamental spreadsheet value model: cell
// addresses in A1 notation, typed cell values, rectangular ranges, and cell
// styles. Every other package in the repository builds on these types.
package cell

import (
	"fmt"
	"strconv"
	"strings"
)

// Addr identifies a single cell by zero-based row and column. Row 0 column 0
// is the cell displayed as "A1".
type Addr struct {
	Row int
	Col int
}

// A1 returns the address in A1 notation, e.g. {0,0} -> "A1", {1,27} -> "AB2".
func (a Addr) A1() string {
	return ColName(a.Col) + fmt.Sprint(a.Row+1)
}

// String implements fmt.Stringer using A1 notation.
func (a Addr) String() string { return a.A1() }

// Valid reports whether the address has non-negative coordinates.
func (a Addr) Valid() bool { return a.Row >= 0 && a.Col >= 0 }

// Offset returns the address translated by dr rows and dc columns.
func (a Addr) Offset(dr, dc int) Addr { return Addr{Row: a.Row + dr, Col: a.Col + dc} }

// ColName converts a zero-based column index to its spreadsheet letter name:
// 0 -> "A", 25 -> "Z", 26 -> "AA".
func ColName(col int) string {
	var buf [8]byte
	return string(appendColName(buf[:0], col))
}

func appendColName(dst []byte, col int) []byte {
	if col < 0 {
		return append(dst, '?')
	}
	var buf [8]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('A' + col%26)
		col = col/26 - 1
		if col < 0 {
			break
		}
	}
	return append(dst, buf[i:]...)
}

// ParseColName converts a spreadsheet column name to its zero-based index:
// "A" -> 0, "Z" -> 25, "AA" -> 26. The name is case-insensitive.
func ParseColName(name string) (int, error) {
	if name == "" {
		return 0, fmt.Errorf("cell: empty column name")
	}
	if len(name) > 8 {
		// 8 letters already name 2*10^11 columns; longer names only
		// overflow the index arithmetic.
		return 0, fmt.Errorf("cell: column name %q too long", name)
	}
	col := 0
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'A' && c <= 'Z':
			col = col*26 + int(c-'A') + 1
		case c >= 'a' && c <= 'z':
			col = col*26 + int(c-'a') + 1
		default:
			return 0, fmt.Errorf("cell: invalid column name %q", name)
		}
	}
	return col - 1, nil
}

// ParseAddr parses an A1-notation address such as "B12". Dollar signs
// (absolute markers) are accepted and ignored; use ParseRef to retain them.
func ParseAddr(s string) (Addr, error) {
	ref, err := ParseRef(s)
	if err != nil {
		return Addr{}, err
	}
	return ref.Addr, nil
}

// MustParseAddr is like ParseAddr but panics on error. It is intended for
// tests and compile-time-constant addresses.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Ref is a cell reference as written in a formula: an address plus absolute
// flags for the row and column components ("$A$1", "A$1", "$A1", "A1").
// Absolute components are not rewritten when formulas are copied or when
// rows are reorganized; the distinction drives the recalculation-necessity
// analysis of DESIGN.md §4.
type Ref struct {
	Addr   Addr
	AbsRow bool
	AbsCol bool
}

// Shift returns the reference as read from a cell displaced (dr, dc) from
// where it was written: relative components translate, absolute ones stay,
// and the flags are kept. This is the one displacement rule behind
// evaluation, copy-paste rewriting, structural adjustment, R1C1 text and
// every static analysis. The result may lie off the sheet; callers that
// care check Addr.Valid.
func (r Ref) Shift(dr, dc int) Ref {
	if !r.AbsRow {
		r.Addr.Row += dr
	}
	if !r.AbsCol {
		r.Addr.Col += dc
	}
	return r
}

// String renders the reference with its absolute markers.
func (r Ref) String() string {
	var b strings.Builder
	if r.AbsCol {
		b.WriteByte('$')
	}
	b.WriteString(ColName(r.Addr.Col))
	if r.AbsRow {
		b.WriteByte('$')
	}
	fmt.Fprint(&b, r.Addr.Row+1)
	return b.String()
}

// AppendTo appends the reference's String form to dst without allocating
// beyond dst's growth; hashing printers write references through it.
func (r Ref) AppendTo(dst []byte) []byte {
	if r.AbsCol {
		dst = append(dst, '$')
	}
	dst = appendColName(dst, r.Addr.Col)
	if r.AbsRow {
		dst = append(dst, '$')
	}
	return strconv.AppendInt(dst, int64(r.Addr.Row+1), 10)
}

// ParseRef parses a single cell reference with optional absolute markers.
func ParseRef(s string) (Ref, error) {
	var ref Ref
	i := 0
	if i < len(s) && s[i] == '$' {
		ref.AbsCol = true
		i++
	}
	j := i
	for j < len(s) && isLetter(s[j]) {
		j++
	}
	if j == i {
		return Ref{}, fmt.Errorf("cell: reference %q has no column letters", s)
	}
	col, err := ParseColName(s[i:j])
	if err != nil {
		return Ref{}, err
	}
	i = j
	if i < len(s) && s[i] == '$' {
		ref.AbsRow = true
		i++
	}
	j = i
	row := 0
	for j < len(s) && s[j] >= '0' && s[j] <= '9' {
		row = row*10 + int(s[j]-'0')
		j++
	}
	if j == i || j != len(s) {
		return Ref{}, fmt.Errorf("cell: invalid reference %q", s)
	}
	if j-i > 9 {
		// A row number past 10^9 is outside any system's grid and would
		// overflow downstream arithmetic.
		return Ref{}, fmt.Errorf("cell: row number in %q too large", s)
	}
	if row == 0 {
		return Ref{}, fmt.Errorf("cell: row numbers start at 1 in %q", s)
	}
	ref.Addr = Addr{Row: row - 1, Col: col}
	return ref, nil
}

func isLetter(c byte) bool {
	return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z')
}
