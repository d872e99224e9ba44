// Package analyze is a static analyzer for loaded workbooks. It walks
// compiled formula ASTs (internal/formula) and a dependency graph
// (internal/graph) without evaluating anything, and emits typed Findings:
// volatile-function blast radii, oversized range scans (the paper's
// AGG-on-500k pathology), shared-subexpression candidates (the direct
// precursor to the §5.3/§6 shared-computation optimization), constant-
// foldable subexpressions, cross-type comparisons, reference cycles, and a
// static recalculation-cost estimate per formula and per workbook.
//
// The paper's central OOT finding is that Excel, Calc, and Sheets execute
// formulas with essentially no prior analysis; this package is the analysis
// pass that every optimization the ROADMAP plans builds on. Call sites are
// classified and lookups priced by the cost planner (internal/plan), the
// same reader the optimized engine's install pre-flight uses, so the
// analyzer's estimates and the engine's choices rest on one site model.
package analyze

import (
	"sort"

	"repro/internal/absint"
	"repro/internal/cell"
	"repro/internal/formula"
	"repro/internal/graph"
	"repro/internal/regions"
	"repro/internal/sheet"
)

// Rule identifiers, one per analysis. Stable: they appear in JSON output
// and golden files.
const (
	RuleVolatile     = "volatile-recalc"
	RuleWideRange    = "wide-range"
	RuleSharedSubexp = "shared-subexpr"
	RuleConstFold    = "const-fold"
	RuleTypeMismatch = "type-mismatch"
	RuleCycle        = "cycle"
	RuleHotFormula   = "hot-formula"
	RuleErrorBlast   = "error-blast-radius"
	RuleCoercion     = "coercion-hot-path"
	RuleBrokenFill   = "broken-fill"
	// RuleParallelBlocker flags the cells whose formulas keep the sheet's
	// parallel-safety certificate (internal/interfere) from staging.
	RuleParallelBlocker = "parallel-blocker"
	// RuleUnsortedLookup flags lookups that scan a numeric key column
	// linearly when sorting it would certify binary search
	// (internal/absint).
	RuleUnsortedLookup = "unsorted-lookup"
)

// Severity ranks findings. High findings change results or dominate recalc
// cost; Warn findings waste work; Info findings are opportunities.
type Severity uint8

// Severity levels, least severe first so numeric comparison works.
const (
	Info Severity = iota
	Warn
	High
)

// String returns the lowercase level name.
func (s Severity) String() string {
	switch s {
	case High:
		return "high"
	case Warn:
		return "warn"
	default:
		return "info"
	}
}

// MarshalJSON renders the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// Finding is one analyzer diagnostic, anchored to a cell.
type Finding struct {
	// Rule is the Rule* identifier that produced the finding.
	Rule string `json:"rule"`
	// Severity ranks the finding.
	Severity Severity `json:"severity"`
	// Sheet is the worksheet name.
	Sheet string `json:"sheet"`
	// Cell is the anchor cell in A1 notation.
	Cell string `json:"cell"`
	// Message is the human-readable diagnosis.
	Message string `json:"message"`
	// Cost is the rule-specific magnitude (blast radius, cells scanned,
	// estimated ops saved or spent); zero when not meaningful.
	Cost int64 `json:"cost,omitempty"`
}

// Options tunes the analyzer. The zero value selects the defaults below.
type Options struct {
	// WideRangeCells is the precedent-range size from which RuleWideRange
	// fires (default 4096 cells).
	WideRangeCells int
	// SharedMin is the occurrence count from which a repeated subtree
	// becomes a RuleSharedSubexp candidate (default 3).
	SharedMin int
	// HotCostMin is the static recalc-cost threshold for RuleHotFormula
	// findings (default 4096).
	HotCostMin int64
	// TypeSampleLimit caps how many cells of a range the type-mismatch
	// rule samples (default 64).
	TypeSampleLimit int
	// MaxFindingsPerRule caps emitted findings per rule per sheet; counts
	// in RuleCounts are always complete. Default 25; -1 removes the cap.
	MaxFindingsPerRule int
	// ErrorBlastMin is the transitive-dependent count from which an
	// error-possible formula becomes a RuleErrorBlast finding (default 4).
	ErrorBlastMin int
	// CoercionMinCells is the range size from which a numeric-criterion
	// aggregate over possibly-text cells becomes a RuleCoercion finding
	// (default 128).
	CoercionMinCells int
	// BrokenFillMin is the formula count a column needs before its fill
	// uniformity is judged by RuleBrokenFill (default 16).
	BrokenFillMin int
	// UnsortedLookupMin is the key-span size from which an unsorted linear
	// lookup becomes a RuleUnsortedLookup finding (default 64).
	UnsortedLookupMin int
}

func (o Options) withDefaults() Options {
	if o.WideRangeCells == 0 {
		o.WideRangeCells = 4096
	}
	if o.SharedMin == 0 {
		o.SharedMin = 3
	}
	if o.HotCostMin == 0 {
		o.HotCostMin = 4096
	}
	if o.TypeSampleLimit == 0 {
		o.TypeSampleLimit = 64
	}
	if o.MaxFindingsPerRule == 0 {
		o.MaxFindingsPerRule = 25
	}
	if o.ErrorBlastMin == 0 {
		o.ErrorBlastMin = 4
	}
	if o.CoercionMinCells == 0 {
		o.CoercionMinCells = 128
	}
	if o.BrokenFillMin == 0 {
		o.BrokenFillMin = 16
	}
	if o.UnsortedLookupMin == 0 {
		o.UnsortedLookupMin = 64
	}
	return o
}

// SheetReport is the analysis result for one worksheet.
type SheetReport struct {
	// Sheet is the worksheet name.
	Sheet string `json:"sheet"`
	// Formulas is the number of formula cells analyzed.
	Formulas int `json:"formulas"`
	// EstRecalcOps is the static estimate of the dependency-graph
	// maintenance ops a full recalculation's sequencing pass costs; see
	// EstimateRecalcOps for the model it mirrors.
	EstRecalcOps int64 `json:"est_recalc_ops"`
	// EstEvalCells estimates how many cell reads one full evaluation pass
	// performs. It is the total precedent-cell cardinality of all
	// formulas, except that lookups served sub-linearly by the optimized
	// engine (hash-indexed exact VLOOKUP, binary search over
	// ascending-certified key columns — see internal/absint) are charged
	// their probe count instead of a linear table scan.
	EstEvalCells int64 `json:"est_eval_cells"`
	// Regions is the number of uniform fill regions the formulas collapse
	// to (internal/regions); equal-shape fill columns count once.
	Regions int `json:"regions"`
	// CompressionRatio is formula cells per region — the node-count
	// advantage a region-level dependency graph has over per-cell.
	CompressionRatio float64 `json:"compression_ratio"`
	// RuleCounts maps rule ID to the complete finding count, including
	// findings dropped by the per-rule cap.
	RuleCounts map[string]int `json:"rule_counts"`
	// Findings holds the emitted findings, most severe first.
	Findings []Finding `json:"findings"`
}

// Report is the analysis result for a workbook.
type Report struct {
	// Sheets holds one report per worksheet, in tab order.
	Sheets []*SheetReport `json:"sheets"`
	// Formulas is the workbook-wide formula count.
	Formulas int `json:"formulas"`
	// Findings is the workbook-wide complete finding count.
	Findings int `json:"findings"`
	// EstRecalcOps sums the per-sheet sequencing estimates.
	EstRecalcOps int64 `json:"est_recalc_ops"`
}

// formulaSite is one formula cell prepared for analysis: its address, the
// compiled code, and the displacement of the cell from the formula's
// authored origin (relative references shift by this much).
type formulaSite struct {
	at     cell.Addr
	code   *formula.Compiled
	dr, dc int
}

// Workbook analyzes every sheet of a workbook.
func Workbook(wb *sheet.Workbook, opt Options) *Report {
	opt = opt.withDefaults()
	rep := &Report{}
	for _, s := range wb.Sheets() {
		sr := analyzeSheet(s, opt)
		rep.Sheets = append(rep.Sheets, sr)
		rep.Formulas += sr.Formulas
		rep.EstRecalcOps += sr.EstRecalcOps
		for _, n := range sr.RuleCounts {
			rep.Findings += n
		}
	}
	return rep
}

// SheetReportFor analyzes a single sheet.
func SheetReportFor(s *sheet.Sheet, opt Options) *SheetReport {
	return analyzeSheet(s, opt.withDefaults())
}

// analyzeSheet runs every rule over one sheet. opt has defaults applied.
func analyzeSheet(s *sheet.Sheet, opt Options) *SheetReport {
	sr := &SheetReport{Sheet: s.Name, RuleCounts: make(map[string]int)}

	sites := collectSites(s)
	sr.Formulas = len(sites)

	// The analyzer's private dependency graph; the engine's own graphs and
	// meters are never touched.
	g := graph.New()
	for _, f := range sites {
		g.SetFormula(f.at, f.code.PrecedentRanges(f.dr, f.dc))
	}

	emit := newEmitter(sr, opt)
	shared := newSharedScan()

	// One abstract-interpretation pass (internal/absint) per sheet, shared
	// by the error-flow rules (its kind/error projection) and the lookup
	// view (its column certificates); like the graph above it is private
	// to the analyzer.
	inf := absint.InferSheet(s)

	// The lookup view's certificates and sortedness rescans materialize
	// lazily on the first classifiable lookup call, so lookup-free sheets
	// skip them entirely.
	lv := newLookupView(s, inf)

	for _, f := range sites {
		evalCells := lv.estEvalCells(f)
		checkVolatile(emit, s, g, f)
		checkWideRange(emit, s, f, opt)
		checkConstFold(emit, s, f)
		checkTypes(emit, s, f, opt)
		checkHotFormula(emit, s, g, f, evalCells, opt)
		checkErrorBlast(emit, s, g, inf, f, opt)
		checkCoercion(emit, s, inf, f, opt)
		checkUnsortedLookup(emit, s, f, lv, opt)
		shared.add(f)
		sr.EstEvalCells += evalCells
	}

	shared.report(emit, opt)
	checkCycles(emit, s, g)

	// Region inference (internal/regions) backs both the fill-uniformity
	// rule and the report's compression metrics.
	regs := regions.Infer(s)
	sr.Regions = len(regs.Regions)
	sr.CompressionRatio = regs.CompressionRatio()
	checkBrokenFill(emit, s, regs, opt)
	checkParallelBlockers(emit, s, regs)

	sr.EstRecalcOps = EstimateRecalcOps(sites)

	emit.finish()
	return sr
}

// collectSites gathers the sheet's formulas in row-major order (EachFormula
// iterates a map; analysis output must be deterministic).
func collectSites(s *sheet.Sheet) []formulaSite {
	sites := make([]formulaSite, 0, s.FormulaCount())
	s.EachFormula(func(a cell.Addr, fc sheet.Formula) bool {
		dr, dc := fc.DeltaAt(a)
		sites = append(sites, formulaSite{at: a, code: fc.Code, dr: dr, dc: dc})
		return true
	})
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].at.Row != sites[j].at.Row {
			return sites[i].at.Row < sites[j].at.Row
		}
		return sites[i].at.Col < sites[j].at.Col
	})
	return sites
}

// emitter applies the per-rule cap and keeps the complete counts.
type emitter struct {
	sr  *SheetReport
	cap int
}

func newEmitter(sr *SheetReport, opt Options) *emitter {
	return &emitter{sr: sr, cap: opt.MaxFindingsPerRule}
}

func (e *emitter) emit(f Finding) {
	e.sr.RuleCounts[f.Rule]++
	if e.cap >= 0 && e.sr.RuleCounts[f.Rule] > e.cap {
		return
	}
	e.sr.Findings = append(e.sr.Findings, f)
}

// finish orders findings for presentation: most severe first, then by rule,
// then by cell position.
func (e *emitter) finish() {
	fs := e.sr.Findings
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].Severity != fs[j].Severity {
			return fs[i].Severity > fs[j].Severity
		}
		if fs[i].Rule != fs[j].Rule {
			return fs[i].Rule < fs[j].Rule
		}
		ai, _ := cell.ParseAddr(fs[i].Cell)
		aj, _ := cell.ParseAddr(fs[j].Cell)
		if ai.Row != aj.Row {
			return ai.Row < aj.Row
		}
		return ai.Col < aj.Col
	})
}

// describe renders a formula site's effective text (references shifted to
// where the cell sits), truncated for report hygiene.
func describe(f formulaSite) string {
	t := f.code.RewriteRelative(f.dr, f.dc)
	if len(t) > 60 {
		t = t[:57] + "..."
	}
	return t
}

// subtreeText renders one subtree's effective text, truncated.
func subtreeText(n formula.Node, dr, dc int) string {
	t := formula.ShiftedText(n, dr, dc)
	if len(t) > 48 {
		t = t[:45] + "..."
	}
	return t
}
