// Package tracelang is the scripted-operation mini-language shared by the
// sheetcli trace subcommand and the differential fuzzer. A script is a
// semicolon-separated sequence of statements, each a user-facing operation
// on the active sheet:
//
//	sheet <name>              switch the active sheet
//	set A1 <value>            write a literal cell
//	clear A1                  empty a cell
//	formula A1 =TEXT          insert a formula
//	sort <col> [asc|desc]     sort by column
//	filter <col> <value>      filter rows; "filter off" clears
//	pivot <dim> <measure>     pivot table into a new sheet
//	find <x> <y>              find-and-replace
//	paste <range> <addr>      copy-paste a range (top-left anchor)
//	rowins <row> [n]          insert n blank rows before A1 row <row>
//	rowdel <row> [n]          delete n rows starting at A1 row <row>
//	recalc                    force a full recalculation
//
// Parsing and execution are separate: Parse returns positioned statements
// (or a *Error carrying the statement index, byte offset, and offending
// text), and Exec applies them to an engine. Every Op prints as its own
// canonical statement, so an op sequence built programmatically — e.g. a
// minimized fuzzer counterexample — replays verbatim through sheetcli.
package tracelang

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cell"
	"repro/internal/engine"
	"repro/internal/sheet"
)

// Op is one executable statement. String returns the canonical statement
// text, which re-parses to an equivalent op.
type Op interface {
	apply(x *Exec) error
	String() string
}

// Stmt is a parsed statement with its position in the script.
type Stmt struct {
	Index int // 1-based statement number
	Pos   int // 1-based byte offset of the statement's first non-space byte
	Op    Op
}

// Error is a positioned parse failure: which statement, where in the
// script, what text, and why.
type Error struct {
	Index int    // 1-based statement number
	Pos   int    // 1-based byte offset into the script
	Stmt  string // the offending statement, trimmed
	Msg   string
}

func (e *Error) Error() string {
	return fmt.Sprintf("trace script: statement %d at offset %d (%q): %s",
		e.Index, e.Pos, e.Stmt, e.Msg)
}

// Parse splits the script on semicolons and parses each statement. Blank
// statements are skipped (so trailing semicolons are fine). The first
// malformed statement aborts parsing with a *Error.
func Parse(script string) ([]Stmt, error) {
	var stmts []Stmt
	index := 0
	offset := 0
	for _, raw := range strings.Split(script, ";") {
		trimmed := strings.TrimSpace(raw)
		pos := offset + strings.Index(raw, trimmed) + 1
		offset += len(raw) + 1
		if trimmed == "" {
			continue
		}
		index++
		op, msg := parseStmt(trimmed)
		if msg != "" {
			return nil, &Error{Index: index, Pos: pos, Stmt: trimmed, Msg: msg}
		}
		stmts = append(stmts, Stmt{Index: index, Pos: pos, Op: op})
	}
	return stmts, nil
}

// Format renders ops as a replayable script.
func Format(ops []Op) string {
	parts := make([]string, len(ops))
	for i, op := range ops {
		parts[i] = op.String()
	}
	return strings.Join(parts, "; ")
}

// parseStmt parses one trimmed, non-empty statement; on failure it returns
// a diagnostic message and the error position is supplied by the caller.
func parseStmt(stmt string) (Op, string) {
	f := strings.Fields(stmt)
	switch kw := strings.ToLower(f[0]); kw {
	case "sheet":
		if len(f) != 2 {
			return nil, "want: sheet <name>"
		}
		return SheetOp{Name: f[1]}, ""
	case "set":
		if len(f) < 3 {
			return nil, "want: set <addr> <value>"
		}
		a, err := cell.ParseAddr(f[1])
		if err != nil {
			return nil, err.Error()
		}
		return SetOp{At: a, Raw: strings.Join(f[2:], " ")}, ""
	case "clear":
		if len(f) != 2 {
			return nil, "want: clear <addr>"
		}
		a, err := cell.ParseAddr(f[1])
		if err != nil {
			return nil, err.Error()
		}
		return ClearOp{At: a}, ""
	case "formula":
		if len(f) < 3 {
			return nil, "want: formula <addr> =TEXT"
		}
		a, err := cell.ParseAddr(f[1])
		if err != nil {
			return nil, err.Error()
		}
		text := strings.Join(f[2:], " ")
		if !strings.HasPrefix(text, "=") {
			return nil, "formula text must start with '='"
		}
		return FormulaOp{At: a, Text: text}, ""
	case "sort":
		if len(f) < 2 || len(f) > 3 {
			return nil, "want: sort <col> [asc|desc]"
		}
		col, err := cell.ParseColName(f[1])
		if err != nil {
			return nil, err.Error()
		}
		asc := true
		if len(f) == 3 {
			switch strings.ToLower(f[2]) {
			case "asc":
			case "desc":
				asc = false
			default:
				return nil, "sort order must be asc or desc"
			}
		}
		return SortOp{Col: col, Asc: asc}, ""
	case "filter":
		if len(f) == 2 && strings.EqualFold(f[1], "off") {
			return FilterOffOp{}, ""
		}
		if len(f) != 3 {
			return nil, "want: filter <col> <value> | filter off"
		}
		col, err := cell.ParseColName(f[1])
		if err != nil {
			return nil, err.Error()
		}
		return FilterOp{Col: col, Value: f[2]}, ""
	case "pivot":
		if len(f) != 3 {
			return nil, "want: pivot <dimcol> <measurecol>"
		}
		dim, err := cell.ParseColName(f[1])
		if err != nil {
			return nil, err.Error()
		}
		meas, err := cell.ParseColName(f[2])
		if err != nil {
			return nil, err.Error()
		}
		return PivotOp{Dim: dim, Measure: meas}, ""
	case "find":
		if len(f) != 3 {
			return nil, "want: find <x> <y>"
		}
		return FindOp{Find: f[1], Replace: f[2]}, ""
	case "paste":
		if len(f) != 3 {
			return nil, "want: paste <range> <addr>"
		}
		src, err := cell.ParseRange(f[1])
		if err != nil {
			return nil, err.Error()
		}
		dst, err := cell.ParseAddr(f[2])
		if err != nil {
			return nil, err.Error()
		}
		return PasteOp{Src: src, Dst: dst}, ""
	case "rowins", "rowdel":
		if len(f) < 2 || len(f) > 3 {
			return nil, "want: " + kw + " <row> [n]"
		}
		at, err := strconv.Atoi(f[1])
		if err != nil || at < 1 {
			return nil, "row must be a positive A1 row number"
		}
		n := 1
		if len(f) == 3 {
			n, err = strconv.Atoi(f[2])
			if err != nil || n < 1 {
				return nil, "count must be a positive integer"
			}
		}
		if kw == "rowins" {
			return RowInsOp{At: at, N: n}, ""
		}
		return RowDelOp{At: at, N: n}, ""
	case "recalc":
		if len(f) != 1 {
			return nil, "want: recalc"
		}
		return RecalcOp{}, ""
	default:
		return nil, "unknown operation " + strconv.Quote(kw)
	}
}

// Exec holds the execution state of a script: the engine and the active
// sheet the next statement targets.
type Exec struct {
	Eng *engine.Engine
	S   *sheet.Sheet
}

// NewExec starts execution on the workbook's first sheet.
func NewExec(eng *engine.Engine) *Exec {
	return &Exec{Eng: eng, S: eng.Workbook().First()}
}

// Apply runs one op against the current state.
func (x *Exec) Apply(op Op) error { return op.apply(x) }

// Run parses and executes a whole script on a fresh Exec. Execution errors
// are wrapped with the statement's index and canonical text.
func Run(eng *engine.Engine, script string) error {
	stmts, err := Parse(script)
	if err != nil {
		return err
	}
	x := NewExec(eng)
	for _, st := range stmts {
		if err := x.Apply(st.Op); err != nil {
			return fmt.Errorf("trace script: statement %d (%s): %w", st.Index, st.Op, err)
		}
	}
	return nil
}

// SheetOp switches the active sheet.
type SheetOp struct{ Name string }

func (o SheetOp) String() string { return "sheet " + o.Name }
func (o SheetOp) apply(x *Exec) error {
	s := x.Eng.Workbook().Sheet(o.Name)
	if s == nil {
		return fmt.Errorf("no sheet %q", o.Name)
	}
	x.S = s
	return nil
}

// SetOp writes a literal cell; numeric-looking text becomes a number, the
// same coercion a cell editor applies.
type SetOp struct {
	At  cell.Addr
	Raw string
}

func (o SetOp) String() string { return fmt.Sprintf("set %s %s", o.At.A1(), o.Raw) }
func (o SetOp) apply(x *Exec) error {
	v := cell.Str(o.Raw)
	if n, err := strconv.ParseFloat(o.Raw, 64); err == nil {
		v = cell.Num(n)
	}
	_, err := x.Eng.SetCell(x.S, o.At, v)
	return err
}

// ClearOp empties a cell, dropping any formula it held.
type ClearOp struct{ At cell.Addr }

func (o ClearOp) String() string { return "clear " + o.At.A1() }
func (o ClearOp) apply(x *Exec) error {
	_, err := x.Eng.SetCell(x.S, o.At, cell.Value{})
	return err
}

// FormulaOp inserts a formula at a cell.
type FormulaOp struct {
	At   cell.Addr
	Text string
}

func (o FormulaOp) String() string { return fmt.Sprintf("formula %s %s", o.At.A1(), o.Text) }
func (o FormulaOp) apply(x *Exec) error {
	_, _, err := x.Eng.InsertFormula(x.S, o.At, o.Text)
	return err
}

// SortOp sorts the active sheet by a column (one header row).
type SortOp struct {
	Col int
	Asc bool
}

func (o SortOp) String() string {
	dir := "asc"
	if !o.Asc {
		dir = "desc"
	}
	return fmt.Sprintf("sort %s %s", cell.ColName(o.Col), dir)
}
func (o SortOp) apply(x *Exec) error {
	_, err := x.Eng.Sort(x.S, o.Col, o.Asc, 1)
	return err
}

// FilterOp filters rows on a column value (one header row).
type FilterOp struct {
	Col   int
	Value string
}

func (o FilterOp) String() string { return fmt.Sprintf("filter %s %s", cell.ColName(o.Col), o.Value) }
func (o FilterOp) apply(x *Exec) error {
	_, _, err := x.Eng.Filter(x.S, o.Col, cell.Str(o.Value), 1)
	return err
}

// FilterOffOp clears the active sheet's filter.
type FilterOffOp struct{}

func (o FilterOffOp) String() string { return "filter off" }
func (o FilterOffOp) apply(x *Exec) error {
	x.Eng.ClearFilter(x.S)
	return nil
}

// PivotOp builds a pivot table into a new sheet (one header row).
type PivotOp struct{ Dim, Measure int }

func (o PivotOp) String() string {
	return fmt.Sprintf("pivot %s %s", cell.ColName(o.Dim), cell.ColName(o.Measure))
}
func (o PivotOp) apply(x *Exec) error {
	_, _, err := x.Eng.PivotTable(x.S, o.Dim, o.Measure, 1)
	return err
}

// FindOp is find-and-replace over the active sheet.
type FindOp struct{ Find, Replace string }

func (o FindOp) String() string { return fmt.Sprintf("find %s %s", o.Find, o.Replace) }
func (o FindOp) apply(x *Exec) error {
	_, _, err := x.Eng.FindReplace(x.S, o.Find, o.Replace)
	return err
}

// PasteOp copy-pastes a range to a destination anchor.
type PasteOp struct {
	Src cell.Range
	Dst cell.Addr
}

func (o PasteOp) String() string { return fmt.Sprintf("paste %s %s", o.Src, o.Dst.A1()) }
func (o PasteOp) apply(x *Exec) error {
	_, _, err := x.Eng.CopyPaste(x.S, o.Src, o.Dst)
	return err
}

// RowInsOp inserts N blank rows before A1 row At.
type RowInsOp struct{ At, N int }

func (o RowInsOp) String() string { return fmt.Sprintf("rowins %d %d", o.At, o.N) }
func (o RowInsOp) apply(x *Exec) error {
	_, err := x.Eng.InsertRows(x.S, o.At-1, o.N)
	return err
}

// RowDelOp deletes N rows starting at A1 row At.
type RowDelOp struct{ At, N int }

func (o RowDelOp) String() string { return fmt.Sprintf("rowdel %d %d", o.At, o.N) }
func (o RowDelOp) apply(x *Exec) error {
	_, err := x.Eng.DeleteRows(x.S, o.At-1, o.N)
	return err
}

// RecalcOp forces a full recalculation of the active sheet.
type RecalcOp struct{}

func (o RecalcOp) String() string { return "recalc" }
func (o RecalcOp) apply(x *Exec) error {
	_, err := x.Eng.Recalculate(x.S)
	return err
}
