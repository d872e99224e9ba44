package main

import (
	"fmt"
	"io"

	"repro/internal/absint"
	"repro/internal/cell"
	"repro/internal/regions"
	"repro/internal/report"
	"repro/internal/sheet"
)

// regionEntry is one inferred region in the report.
type regionEntry struct {
	// Range is the region's extent in A1 notation ("K2:K201"; a singleton
	// renders as its single cell).
	Range string `json:"range"`
	// Cells is the region height.
	Cells int `json:"cells"`
	// Class indexes the sheet's class list.
	Class int `json:"class"`
	// Text is the class's relative R1C1 canonical form.
	Text string `json:"text"`
	// ErrorFree reports the value analysis (internal/absint) certifies no
	// cell of the region can evaluate to an error.
	ErrorFree bool `json:"error_free"`
	// Consts counts the region's certified-constant formula cells.
	Consts int `json:"consts"`
}

// sheetRegionsReport is the inference summary for one worksheet.
type sheetRegionsReport struct {
	Sheet    string `json:"sheet"`
	Formulas int    `json:"formulas"`
	Regions  int    `json:"regions"`
	Classes  int    `json:"classes"`
	// CompressionRatio is formula cells per region.
	CompressionRatio float64 `json:"compression_ratio"`
	// Sequencable reports whether the region graph orders cleanly; when
	// false the engine falls back to per-cell sequencing.
	Sequencable bool `json:"sequencable"`
	// IntervalEdges and CrossEdges size the region dependency graph.
	IntervalEdges int `json:"interval_edges"`
	CrossEdges    int `json:"cross_edges"`
	// RegionList holds every region, largest first.
	RegionList []regionEntry `json:"region_list"`
	// Outliers holds the height-1 regions — the cells that break up
	// otherwise-uniform columns.
	Outliers []regionEntry `json:"outliers"`
	// ErrorFreeRegions and ConstCells summarize the value certificates
	// (internal/absint) over the region set.
	ErrorFreeRegions int `json:"error_free_regions"`
	ConstCells       int `json:"const_cells"`
}

// regionsReport is the workbook-level report.
type regionsReport struct {
	Sheets   []*sheetRegionsReport `json:"sheets"`
	Formulas int                   `json:"formulas"`
	Regions  int                   `json:"regions"`
}

// regionsReportFor runs the fill-region inference (internal/regions) over
// a workbook: how far each sheet's formula set compresses, the region
// dependency graph's size and sequencability, and the irregular outlier
// cells that resist compression.
func regionsReportFor(wb *sheet.Workbook) *regionsReport {
	rep := &regionsReport{}
	for _, s := range wb.Sheets() {
		sr := regions.Infer(s)
		g := regions.Build(sr)
		deps, cross := g.EdgeCount()
		// Overlay the value analysis: which regions are certified
		// error-free, and how many certified constants each contains.
		inf := absint.InferSheet(s)
		consts := inf.Certify().Consts
		constByRegion := make(map[int]int)
		for a := range consts {
			if ri := sr.RegionFor(a); ri >= 0 {
				constByRegion[ri]++
			}
		}
		out := &sheetRegionsReport{
			Sheet:            s.Name,
			Formulas:         sr.Formulas,
			Regions:          len(sr.Regions),
			Classes:          len(sr.Classes),
			CompressionRatio: sr.CompressionRatio(),
			Sequencable:      g.OK(),
			IntervalEdges:    deps,
			CrossEdges:       cross,
		}
		for i, r := range sr.Regions {
			en := entryFor(r, sr)
			en.ErrorFree = !inf.JoinSpan(r.Col, r.Start, r.End).Ab.MayError()
			en.Consts = constByRegion[i]
			if en.ErrorFree {
				out.ErrorFreeRegions++
			}
			out.ConstCells += en.Consts
			out.RegionList = append(out.RegionList, en)
		}
		// Largest regions first; ties keep (col, row) inference order.
		sortStable(out.RegionList)
		for _, r := range sr.Singletons() {
			out.Outliers = append(out.Outliers, entryFor(r, sr))
		}
		rep.Sheets = append(rep.Sheets, out)
		rep.Formulas += sr.Formulas
		rep.Regions += len(sr.Regions)
	}
	return rep
}

func entryFor(r regions.Region, sr *regions.SheetRegions) regionEntry {
	from := cell.Addr{Row: r.Start, Col: r.Col}
	rng := from.A1()
	if r.End > r.Start {
		rng += ":" + cell.Addr{Row: r.End, Col: r.Col}.A1()
	}
	return regionEntry{Range: rng, Cells: r.Rows(), Class: r.Class, Text: sr.Classes[r.Class].Text}
}

// sortStable orders region entries by descending height without importing
// sort tie-break subtleties into the JSON shape.
func sortStable(entries []regionEntry) {
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0 && entries[j].Cells > entries[j-1].Cells; j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
}

// writeText renders the report for terminals: a workbook summary line, then
// per sheet its graph and value-certificate summary, the regions largest
// first and the outliers, each list capped at maxList entries.
func (rep *regionsReport) writeText(w io.Writer, maxList int) error {
	ratio := 1.0
	if rep.Regions > 0 {
		ratio = float64(rep.Formulas) / float64(rep.Regions)
	}
	l := report.NewLines(w)
	l.Printf("workbook: %d sheet(s), %d formula(s), %d region(s), compression %.1fx\n",
		len(rep.Sheets), rep.Formulas, rep.Regions, ratio)
	for _, sr := range rep.Sheets {
		l.Printf("\nsheet %q: %d formula(s), %d region(s), %d class(es), compression %.1fx\n",
			sr.Sheet, sr.Formulas, sr.Regions, sr.Classes, sr.CompressionRatio)
		seq := "sequencable"
		if !sr.Sequencable {
			seq = "NOT sequencable (engine falls back to the per-cell graph)"
		}
		l.Printf("  graph: %d interval edge(s), %d cross edge(s), %s\n", sr.IntervalEdges, sr.CrossEdges, seq)
		l.Printf("  value certs: %d error-free region(s), %d certified constant cell(s)\n",
			sr.ErrorFreeRegions, sr.ConstCells)
		writeEntries(l, "regions", sr.RegionList, maxList)
		writeEntries(l, "outliers", sr.Outliers, maxList)
	}
	return l.Err()
}

func writeEntries(l *report.Lines, label string, entries []regionEntry, maxList int) {
	if len(entries) == 0 {
		return
	}
	l.Printf("  %s:\n", label)
	report.List(l, entries, maxList, func(en regionEntry) {
		text := en.Text
		if len(text) > 60 {
			text = text[:57] + "..."
		}
		flags := ""
		if en.ErrorFree {
			flags += "  error-free"
		}
		if en.Consts > 0 {
			flags += fmt.Sprintf("  const(%d)", en.Consts)
		}
		l.Printf("    %-12s %6d cell(s)  class %-3d %s%s\n", en.Range, en.Cells, en.Class, text, flags)
	})
}
