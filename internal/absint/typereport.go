package absint

import (
	"fmt"
	"io"

	"repro/internal/cell"
	"repro/internal/report"
	"repro/internal/sheet"
	"repro/internal/typecheck"
)

// TypeReportOptions tunes the type report. The zero value selects the
// defaults.
type TypeReportOptions struct {
	// MaxList caps the error-possible and disagreement cell listings per
	// sheet; counts are always complete. Default 25; -1 removes the cap.
	MaxList int
}

func (o TypeReportOptions) withDefaults() TypeReportOptions {
	if o.MaxList == 0 {
		o.MaxList = 25
	}
	return o
}

// ColumnSummary is the inferred kind profile (the kind/error projection
// Value.Ab) of one sheet column over the data rows (row 0 is the header
// and excluded from the join).
type ColumnSummary struct {
	// Col is the zero-based column index; Name is its letter.
	Col  int    `json:"col"`
	Name string `json:"name"`
	// Header is the row-0 text, when the header cell holds text.
	Header string `json:"header,omitempty"`
	// Kinds and Errs render the joined abstraction of the data cells.
	Kinds string `json:"kinds"`
	Errs  string `json:"errs,omitempty"`
	// Cells counts non-empty data cells; Formulas counts formula cells.
	Cells    int `json:"cells"`
	Formulas int `json:"formulas"`
	// Numeric reports the typed-column certificate: every data cell is
	// statically exactly a number, so the optimized engine may fill
	// columnar storage without per-cell coercion checks.
	Numeric bool `json:"numeric_certificate"`
}

// CellFact is one listed cell: an error-possible formula or an
// inferred-vs-stored disagreement.
type CellFact struct {
	// Cell is the A1 address.
	Cell string `json:"cell"`
	// Kinds and Errs render the inferred abstraction.
	Kinds string `json:"kinds"`
	Errs  string `json:"errs,omitempty"`
	// Formula is the effective formula text, truncated.
	Formula string `json:"formula,omitempty"`
	// Stored is the stored value's kind name (disagreements only).
	Stored string `json:"stored,omitempty"`
}

// SheetTypeReport is the kind/error report for one worksheet.
type SheetTypeReport struct {
	// Sheet is the worksheet name.
	Sheet string `json:"sheet"`
	// Formulas is the number of formula cells inferred.
	Formulas int `json:"formulas"`
	// Columns summarizes every column, left to right.
	Columns []ColumnSummary `json:"columns"`
	// ErrorCells lists formula cells with a non-empty error-possibility
	// set (capped); ErrorCellCount is the complete count.
	ErrorCells     []CellFact `json:"error_cells,omitempty"`
	ErrorCellCount int        `json:"error_cell_count"`
	// Disagreements lists formula cells whose stored (cached) value is not
	// admitted by the inferred abstraction — stale caches, foreign saves,
	// or inference bugs. Cells whose cache is empty (never evaluated) are
	// skipped. DisagreementCount is the complete count.
	Disagreements     []CellFact `json:"disagreements,omitempty"`
	DisagreementCount int        `json:"disagreement_count"`
}

// TypeReport is the kind/error report for a workbook — the `sheetcli
// typecheck` output.
type TypeReport struct {
	// Sheets holds one report per worksheet, in tab order.
	Sheets []*SheetTypeReport `json:"sheets"`
	// Formulas, ErrorCells and Disagreements are workbook-wide complete
	// counts.
	Formulas      int `json:"formulas"`
	ErrorCells    int `json:"error_cells"`
	Disagreements int `json:"disagreements"`
}

// TypecheckWorkbook infers every sheet of a workbook and assembles the
// kind/error report.
func TypecheckWorkbook(wb *sheet.Workbook, opt TypeReportOptions) *TypeReport {
	opt = opt.withDefaults()
	res := &TypeReport{}
	for _, s := range wb.Sheets() {
		sr := TypecheckSheet(s, opt)
		res.Sheets = append(res.Sheets, sr)
		res.Formulas += sr.Formulas
		res.ErrorCells += sr.ErrorCellCount
		res.Disagreements += sr.DisagreementCount
	}
	return res
}

// TypecheckSheet infers one sheet and assembles its kind/error report.
func TypecheckSheet(s *sheet.Sheet, opt TypeReportOptions) *SheetTypeReport {
	opt = opt.withDefaults()
	inf := InferSheet(s)
	sr := &SheetTypeReport{Sheet: s.Name, Formulas: inf.Formulas()}

	numeric := typecheck.Abstract{Kinds: typecheck.KNumber}
	rows, cols := s.Rows(), s.Cols()
	for c := 0; c < cols; c++ {
		// The numeric certificate: every data-row cell is statically
		// exactly a number — no text, no bool, no empties, no possible
		// error.
		cs := ColumnSummary{Col: c, Name: cell.ColName(c), Numeric: rows > 1}
		if hv := s.Value(cell.Addr{Row: 0, Col: c}); hv.Kind == cell.Text {
			cs.Header = hv.Str
		}
		var join typecheck.Abstract
		for r := 1; r < rows; r++ {
			a := cell.Addr{Row: r, Col: c}
			ab := inf.abAt(a)
			join = join.Union(ab)
			cs.Numeric = cs.Numeric && ab == numeric
			if ab != (typecheck.Abstract{Kinds: typecheck.KEmpty}) {
				cs.Cells++
			}
			if _, isFormula := s.Formula(a); isFormula {
				cs.Formulas++
			}
		}
		cs.Kinds = join.Kinds.String()
		cs.Errs = join.Errs.String()
		sr.Columns = append(sr.Columns, cs)
	}

	// Error-possible formulas and disagreements, in the sites' row-major
	// order so the listing is deterministic.
	for _, st := range inf.sites {
		ab := inf.byCell[st.at].Ab
		if ab.MayError() {
			sr.ErrorCellCount++
			if opt.MaxList < 0 || len(sr.ErrorCells) < opt.MaxList {
				sr.ErrorCells = append(sr.ErrorCells, cellFact(st, ab))
			}
		}
		stored := s.Value(st.at)
		if stored.Kind == cell.Empty {
			continue // never evaluated; nothing to disagree with
		}
		if !ab.Admits(stored) {
			sr.DisagreementCount++
			if opt.MaxList < 0 || len(sr.Disagreements) < opt.MaxList {
				f := cellFact(st, ab)
				f.Stored = stored.Kind.String()
				if stored.Kind == cell.ErrorVal {
					f.Stored = stored.Str
				}
				sr.Disagreements = append(sr.Disagreements, f)
			}
		}
	}
	return sr
}

// cellFact renders one site's listing row.
func cellFact(st site, ab typecheck.Abstract) CellFact {
	t := st.code.RewriteRelative(st.dr, st.dc)
	if len(t) > 60 {
		t = t[:57] + "..."
	}
	return CellFact{
		Cell:    st.at.A1(),
		Kinds:   ab.Kinds.String(),
		Errs:    ab.Errs.String(),
		Formula: t,
	}
}

// WriteText renders the result for terminals: a workbook summary line,
// then per sheet the column table, the error-possible listing, and the
// disagreement listing.
func (r *TypeReport) WriteText(w io.Writer) error {
	l := report.NewLines(w)
	l.Printf("workbook: %d sheet(s), %d formula(s), %d error-possible cell(s), %d disagreement(s)\n",
		len(r.Sheets), r.Formulas, r.ErrorCells, r.Disagreements)
	for _, sr := range r.Sheets {
		l.Printf("\nsheet %q: %d column(s), %d formula(s)\n", sr.Sheet, len(sr.Columns), sr.Formulas)
		for _, cs := range sr.Columns {
			t := cs.Kinds
			if cs.Errs != "" {
				t += " errs=" + cs.Errs
			}
			cert := ""
			if cs.Numeric {
				cert = "  [numeric]"
			}
			l.Printf("  %-3s %-10s %-28s cells=%d formulas=%d%s\n",
				cs.Name, cs.Header, t, cs.Cells, cs.Formulas, cert)
		}
		writeFacts(l, "error-possible cells", sr.ErrorCells, sr.ErrorCellCount)
		writeFacts(l, "disagreements", sr.Disagreements, sr.DisagreementCount)
	}
	return l.Err()
}

func writeFacts(l *report.Lines, title string, facts []CellFact, total int) {
	if total == 0 {
		l.Printf("  %s: none\n", title)
		return
	}
	l.Printf("  %s (%d):\n", title, total)
	for _, f := range facts {
		detail := f.Errs
		if f.Stored != "" {
			detail = fmt.Sprintf("inferred %s, stored %s", f.Kinds, f.Stored)
			if f.Errs != "" {
				detail = fmt.Sprintf("inferred %s errs=%s, stored %s", f.Kinds, f.Errs, f.Stored)
			}
		}
		l.Printf("    %-5s %-20s %s\n", f.Cell, detail, f.Formula)
	}
	if total > len(facts) {
		l.Printf("    ... %d more\n", total-len(facts))
	}
}
