package main

import (
	"io"
	"sort"

	"repro/internal/absint"
	"repro/internal/cell"
	"repro/internal/report"
	"repro/internal/sheet"
)

// absintColumnEntry is one column certificate in the report.
type absintColumnEntry struct {
	// Range is the column's used span in A1 notation.
	Range string `json:"range"`
	Cells int    `json:"cells"`
	// Kinds is the abstract possibility set over the span.
	Kinds string `json:"kinds"`
	// Interval is the numeric interval join over the span.
	Interval string `json:"interval"`
	// Dir is "asc"/"desc" when the numeric run's order is statically
	// certified, empty otherwise.
	Dir string `json:"dir,omitempty"`
	// ErrorFree reports no cell of the span can evaluate to an error.
	ErrorFree bool `json:"error_free"`
	// NumericRun is the trailing certainly-Number error-free run in A1
	// notation, empty when no cell qualifies.
	NumericRun string `json:"numeric_run,omitempty"`
	// HasFormula reports the span contains formula cells.
	HasFormula bool `json:"has_formula"`
}

// absintConstEntry is one certified-constant formula cell.
type absintConstEntry struct {
	Cell  string `json:"cell"`
	Value string `json:"value"`
}

// sheetAbsintReport is the value-analysis summary for one worksheet.
type sheetAbsintReport struct {
	Sheet    string `json:"sheet"`
	Formulas int    `json:"formulas"`
	Cyclic   int    `json:"cyclic"`
	// Consts counts certified-constant formula cells; ConstDropped counts
	// constants discarded because the formula is volatile.
	Consts       int `json:"consts"`
	ConstDropped int `json:"const_dropped"`
	// AscColumns counts statically certified ascending columns — the ones
	// that unlock binary-search lookups with no verification rescan.
	AscColumns int `json:"asc_columns"`
	// ErrorFreeColumns counts columns whose whole used span is certified
	// error-free.
	ErrorFreeColumns int                 `json:"error_free_columns"`
	Columns          []absintColumnEntry `json:"columns"`
	ConstList        []absintConstEntry  `json:"const_list"`
}

// absintReport is the workbook-level report.
type absintReport struct {
	Sheets   []*sheetAbsintReport `json:"sheets"`
	Formulas int                  `json:"formulas"`
	Consts   int                  `json:"consts"`
}

// absintReportFor runs the abstract-interpretation value analysis
// (internal/absint) over a workbook: the certificates the optimized engine
// consumes, namely per-column abstract kinds, numeric intervals,
// error-freedom and sortedness direction, and the certified-constant
// formula cells.
func absintReportFor(wb *sheet.Workbook) *absintReport {
	rep := &absintReport{}
	for _, s := range wb.Sheets() {
		cert := absint.InferSheet(s).Certify()
		out := &sheetAbsintReport{
			Sheet:        s.Name,
			Formulas:     cert.Formulas,
			Cyclic:       cert.Cyclic,
			Consts:       len(cert.Consts),
			ConstDropped: cert.ConstDropped,
		}
		for i := range cert.Columns {
			cc := &cert.Columns[i]
			en := absintColumnEntry{
				Range:      spanA1(cc.Col, cc.R0, cc.R1),
				Cells:      cc.R1 - cc.R0 + 1,
				Kinds:      cc.Ab.String(),
				Interval:   cc.Num.String(),
				Dir:        cc.Dir.String(),
				ErrorFree:  cc.ErrorFree,
				HasFormula: cc.HasFormula,
			}
			if cc.NumericFrom <= cc.R1 {
				en.NumericRun = spanA1(cc.Col, cc.NumericFrom, cc.R1)
			}
			out.Columns = append(out.Columns, en)
			if cc.Dir == absint.DirAsc {
				out.AscColumns++
			}
			if cc.ErrorFree {
				out.ErrorFreeColumns++
			}
		}
		addrs := make([]cell.Addr, 0, len(cert.Consts))
		for a := range cert.Consts {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool {
			if addrs[i].Row != addrs[j].Row {
				return addrs[i].Row < addrs[j].Row
			}
			return addrs[i].Col < addrs[j].Col
		})
		for _, a := range addrs {
			out.ConstList = append(out.ConstList, absintConstEntry{Cell: a.A1(), Value: cert.Consts[a].AsString()})
		}
		rep.Sheets = append(rep.Sheets, out)
		rep.Formulas += out.Formulas
		rep.Consts += out.Consts
	}
	return rep
}

// spanA1 renders a single-column row span in A1 notation; a single row
// renders as its single cell.
func spanA1(col, r0, r1 int) string {
	from := cell.Addr{Row: r0, Col: col}.A1()
	if r1 == r0 {
		return from
	}
	return from + ":" + cell.Addr{Row: r1, Col: col}.A1()
}

// writeText renders the report for terminals: a workbook summary line, then
// per sheet the column certificates and the certified constants, each list
// capped at maxList entries.
func (rep *absintReport) writeText(w io.Writer, maxList int) error {
	l := report.NewLines(w)
	l.Printf("workbook: %d sheet(s), %d formula(s), %d certified constant(s)\n",
		len(rep.Sheets), rep.Formulas, rep.Consts)
	for _, sr := range rep.Sheets {
		l.Printf("\nsheet %q: %d formula(s), %d cyclic, %d constant(s) (%d dropped volatile)\n",
			sr.Sheet, sr.Formulas, sr.Cyclic, sr.Consts, sr.ConstDropped)
		l.Printf("  certificates: %d column(s), %d ascending, %d error-free\n",
			len(sr.Columns), sr.AscColumns, sr.ErrorFreeColumns)
		report.List(l, sr.Columns, maxList, func(en absintColumnEntry) {
			flags := ""
			if en.Dir != "" {
				flags += " " + en.Dir
			}
			if en.ErrorFree {
				flags += " error-free"
			}
			if en.HasFormula {
				flags += " formulas"
			}
			if en.NumericRun != "" && en.NumericRun != en.Range {
				flags += " numeric:" + en.NumericRun
			}
			kinds := en.Kinds
			if len(kinds) > 28 {
				kinds = kinds[:25] + "..."
			}
			l.Printf("    %-14s %6d cell(s)  %-28s %-18s%s\n", en.Range, en.Cells, kinds, en.Interval, flags)
		})
		if len(sr.ConstList) > 0 {
			l.Println("  constants:")
		}
		report.List(l, sr.ConstList, maxList, func(c absintConstEntry) {
			l.Printf("    %-6s = %s\n", c.Cell, c.Value)
		})
	}
	return l.Err()
}
