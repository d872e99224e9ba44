package main

import (
	"io"

	"repro/internal/interfere"
	"repro/internal/regions"
	"repro/internal/report"
	"repro/internal/sheet"
)

// stageEntry is one certified stage: its regions may evaluate concurrently.
type stageEntry struct {
	Stage int `json:"stage"`
	// Regions lists the stage's members in A1 notation.
	Regions []string `json:"regions"`
	Cells   int      `json:"cells"`
}

// blockerEntry is one certification blocker.
type blockerEntry struct {
	// Cell anchors the blocker at its region's first cell.
	Cell string `json:"cell"`
	// Text is the region's relative R1C1 class text.
	Text string `json:"text"`
	// Reason says why the region cannot be staged.
	Reason string `json:"reason"`
	// Cells is the region height the blocker keeps serial.
	Cells int `json:"cells"`
}

// sheetInterfereReport is the certification summary for one worksheet.
type sheetInterfereReport struct {
	Sheet    string `json:"sheet"`
	Formulas int    `json:"formulas"`
	Regions  int    `json:"regions"`
	// Certified reports whether every region staged — the engine's staged
	// scheduler refuses the sheet otherwise.
	Certified bool `json:"certified"`
	// Stages counts the certified phases; Widest is the largest phase's
	// region count — the available parallelism.
	Stages int `json:"stages"`
	Widest int `json:"widest"`
	// Edges counts cross-region read dependencies the stages must respect.
	Edges     int            `json:"edges"`
	StageList []stageEntry   `json:"stage_list"`
	Blockers  []blockerEntry `json:"blockers"`
}

// interfereReport is the workbook-level report.
type interfereReport struct {
	Sheets    []*sheetInterfereReport `json:"sheets"`
	Certified bool                    `json:"certified"`
}

// interfereReportFor runs the parallel-safety certification
// (internal/interfere) over a workbook: whether each sheet's regions stage
// into certified parallel phases, and when they do not, which cells block
// it and why.
func interfereReportFor(wb *sheet.Workbook) *interfereReport {
	rep := &interfereReport{Certified: true}
	for _, s := range wb.Sheets() {
		sr := regions.Infer(s)
		cert := interfere.Analyze(sr)
		out := &sheetInterfereReport{
			Sheet:     s.Name,
			Formulas:  sr.Formulas,
			Regions:   cert.Regions,
			Certified: cert.OK,
			Stages:    cert.StageCount(),
			Widest:    cert.Widest(),
			Edges:     len(cert.Edges),
		}
		for i, stage := range cert.Stages {
			en := stageEntry{Stage: i}
			for _, ri := range stage {
				r := sr.Regions[ri]
				en.Regions = append(en.Regions, entryFor(r, sr).Range)
				en.Cells += r.Rows()
			}
			out.StageList = append(out.StageList, en)
		}
		for _, b := range cert.Blockers {
			out.Blockers = append(out.Blockers, blockerEntry{
				Cell:   b.Cell.A1(),
				Text:   b.Text,
				Reason: b.Reason,
				Cells:  sr.Regions[b.Region].Rows(),
			})
		}
		rep.Sheets = append(rep.Sheets, out)
		rep.Certified = rep.Certified && cert.OK
	}
	return rep
}

// writeText renders the report for terminals: the workbook verdict, then
// per sheet the certificate summary, each stage's regions (capped at
// maxList) and every blocker.
func (rep *interfereReport) writeText(w io.Writer, maxList int) error {
	verdict := "certified for staged parallel recalculation"
	if !rep.Certified {
		verdict = "NOT certified (engine falls back to the serial calc chain)"
	}
	l := report.NewLines(w)
	l.Printf("workbook: %d sheet(s), %s\n", len(rep.Sheets), verdict)
	for _, sr := range rep.Sheets {
		l.Printf("\nsheet %q: %d formula(s), %d region(s), %d cross edge(s)\n",
			sr.Sheet, sr.Formulas, sr.Regions, sr.Edges)
		l.Printf("  certificate: %d stage(s), widest %d, %d blocker(s)\n", sr.Stages, sr.Widest, len(sr.Blockers))
		for _, st := range sr.StageList {
			l.Printf("  stage %d (%d region(s), %d cell(s)):", st.Stage, len(st.Regions), st.Cells)
			shown, more := report.Head(st.Regions, maxList)
			for _, r := range shown {
				l.Printf(" %s", r)
			}
			if more > 0 {
				l.Printf(" ... %d more", more)
			}
			l.Println()
		}
		if len(sr.Blockers) > 0 {
			l.Println("  blockers:")
		}
		for _, b := range sr.Blockers {
			text := b.Text
			if len(text) > 40 {
				text = text[:37] + "..."
			}
			l.Printf("    %-6s %-40s %s\n", b.Cell, text, b.Reason)
		}
	}
	return l.Err()
}
