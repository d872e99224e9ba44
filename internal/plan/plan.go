// Package plan implements the cost-based recalculation planner: per-column
// statistics collection (row counts, distinct-count and selectivity
// estimates from deterministic stride samples, sortedness and numeric-run
// facts from the abstract interpreter's certificates), a cost model that
// prices every candidate execution strategy in costmodel.Meter work units,
// and a planner that picks one strategy per operation site — index probe
// vs binary search vs scan for lookups and COUNTIF, eager vs lazy index
// builds, region-level vs per-cell recalculation sequencing, and delta vs
// recompute aggregate maintenance.
//
// The result is an explainable Plan: every Choice carries the full
// candidate set it was selected from, each candidate priced in work units
// and scalarized to simulated time under the profile's coefficients, plus
// the statistics the decision rested on. Certify re-checks each choice
// (argmin over the feasible candidates) and verifies the load-bearing
// preconditions — sortedness runs, numeric-only claims, region
// orderability — against the concrete sheet, producing witnesses.
//
// The package is engine-agnostic by design: the optimized engine consumes
// plans through version-keyed entries (mirroring its value-certificate
// lifecycle) and gates its hard-wired fast paths on the chosen strategies,
// but nothing here imports the engine. A plan is advisory for cost, never
// for correctness — every engine fast path keeps its own soundness guard,
// so executing a stale plan can waste work but cannot change a result.
package plan

import (
	"strconv"
	"time"

	"repro/internal/costmodel"
)

// Strategy names one executable technique a choice can select.
type Strategy string

// Strategies, grouped by the decision they compete in.
const (
	// Lookup and COUNTIF access paths.
	Scan         Strategy = "scan"
	BinarySearch Strategy = "binary-search"
	HashProbe    Strategy = "hash-index"
	BTreeCount   Strategy = "btree-index"
	// Aggregate evaluation.
	PrefixSum Strategy = "prefix-sum"
	// Index build scheduling.
	EagerBuild Strategy = "eager-build"
	LazyBuild  Strategy = "lazy-build"
	// Recalculation sequencing.
	RegionChain Strategy = "region-chain"
	PerCell     Strategy = "per-cell"
	// Edit-time aggregate maintenance.
	Delta     Strategy = "delta-maintenance"
	Recompute Strategy = "recompute"
)

// Choice kinds.
const (
	KindLookup     = "lookup"
	KindCountIf    = "countif"
	KindAggregate  = "aggregate"
	KindIndexBuild = "index-build"
	KindRecalc     = "recalc"
	KindMaint      = "maintenance"
)

// SiteKey identifies one lookup site the way the engine presents it at
// run time: the searched key column and row span on the sheet the lookup
// actually reads, plus whether the match is exact. It deliberately matches
// the (col, r0, r1) triple the engine's certificate and index hooks
// receive, so a plan consult is a map probe with no translation.
type SiteKey struct {
	Col    int
	R0, R1 int
	Exact  bool
}

// Span returns the number of key cells the site searches.
func (k SiteKey) Span() int64 { return int64(k.R1 - k.R0 + 1) }

// less orders site keys by column, span and approximate-before-exact.
func (k SiteKey) less(o SiteKey) bool {
	if k.Col != o.Col {
		return k.Col < o.Col
	}
	if k.R0 != o.R0 {
		return k.R0 < o.R0
	}
	if k.R1 != o.R1 {
		return k.R1 < o.R1
	}
	return !k.Exact && o.Exact
}

// Candidate is one priced strategy for a choice. Work is the per-evaluation
// work-unit cost with any one-time build amortized over the site's
// instance count; Sim is that meter scalarized by the planning
// coefficients. Infeasible candidates stay in the list with the reason, so
// a plan explains not only what it picked but what it could not pick.
type Candidate struct {
	Strategy Strategy        `json:"strategy"`
	Work     costmodel.Meter `json:"-"`
	Sim      time.Duration   `json:"sim_ns"`
	Feasible bool            `json:"feasible"`
	Note     string          `json:"note,omitempty"`
}

// Choice is one planned decision: the site it covers, the chosen strategy,
// and every candidate it was selected from (feasible candidates are in
// ascending Sim order ahead of infeasible ones).
type Choice struct {
	Kind  string  `json:"kind"`
	Sheet string  `json:"sheet"`
	Site  SiteKey `json:"site"`
	// Fn is the formula function the site serves (VLOOKUP, MATCH, COUNTIF,
	// SUM, ...); empty for sheet-level choices.
	Fn string `json:"fn,omitempty"`
	// Count is how many formula instances share the site — the amortization
	// divisor for one-time build costs.
	Count      int         `json:"count,omitempty"`
	Chosen     Strategy    `json:"chosen"`
	Candidates []Candidate `json:"candidates"`
	// Basis states the statistics the decision rested on.
	Basis string `json:"basis"`

	// serveWork / buildWork split the chosen candidate's cost into the
	// steady-state per-evaluation work and the one-time structure build the
	// amortized Work folds in. The drift monitor consults them so its
	// per-observation predictions can follow the backing structure's actual
	// freshness instead of the plan's amortization assumption.
	serveWork costmodel.Meter
	buildWork costmodel.Meter
}

// Alternative returns the best feasible candidate other than the chosen
// one, if any — the cost the plan explanation compares against.
func (c *Choice) Alternative() (Candidate, bool) {
	for _, cand := range c.Candidates {
		if cand.Feasible && cand.Strategy != c.Chosen {
			return cand, true
		}
	}
	return Candidate{}, false
}

// chosenCandidate returns the candidate matching the chosen strategy.
func (c *Choice) chosenCandidate() (Candidate, bool) {
	for _, cand := range c.Candidates {
		if cand.Strategy == c.Chosen {
			return cand, true
		}
	}
	return Candidate{}, false
}

// SheetPlan is the per-sheet slice of a plan: the statistics summary, the
// choices that execute against this sheet (a cross-sheet lookup's choice
// lives with the sheet holding the key column, where the engine consults
// it), and the predicted steady-state recalculation work of the formulas
// hosted here.
type SheetPlan struct {
	Sheet   string       `json:"sheet"`
	Stats   SheetSummary `json:"stats"`
	Choices []*Choice    `json:"choices"`
	// Predicted is the work of evaluating every formula hosted on this
	// sheet once, under the chosen strategies.
	Predicted costmodel.Meter `json:"-"`
	// PredictedExt is the subset of Predicted contributed by cross-sheet
	// formulas, which the engine's refresh by rounds re-evaluates once more
	// per settled recalculation.
	PredictedExt costmodel.Meter `json:"-"`
	// PredictedReads is, per foreign sheet name, the subset of Predicted
	// contributed by the formulas reading that sheet: what the engine's
	// cross-sheet settle re-evaluates once more after the foreign sheet is
	// recalculated. Nil when no formula here reads another sheet.
	PredictedReads map[string]costmodel.Meter `json:"-"`

	lookups map[SiteKey]*Choice
	countIf map[int]*Choice
	aggs    map[int]*Choice
	builds  map[int]*Choice
	recalc  *Choice
	maint   *Choice
	// maintLoads counts materialized aggregates per edited column — the
	// per-column form of the maintenance choice's worst-column basis.
	maintLoads map[int]int64
}

// SheetSummary is the statistics digest included with a sheet plan.
type SheetSummary struct {
	Rows     int `json:"rows"`
	Cols     int `json:"cols"`
	Formulas int `json:"formulas"`
	External int `json:"external"`
	Regions  int `json:"regions,omitempty"`
	// Columns lists the statistics actually collected — only the columns
	// some site referenced, never the whole grid.
	Columns []ColumnStats `json:"columns,omitempty"`
}

// LookupStrategy reports the planned strategy for a lookup site, keyed
// exactly as the engine presents it. ok is false for unplanned sites (the
// engine falls back to its hard-wired behavior there).
func (sp *SheetPlan) LookupStrategy(col, r0, r1 int, exact bool) (Strategy, bool) {
	c, ok := sp.lookups[SiteKey{Col: col, R0: r0, R1: r1, Exact: exact}]
	if !ok {
		return "", false
	}
	return c.Chosen, true
}

// CountIfIndexed reports whether COUNTIF over the column should probe the
// hash/btree index; unplanned columns default to true (the hard-wired
// behavior).
func (sp *SheetPlan) CountIfIndexed(col int) bool {
	if c, ok := sp.countIf[col]; ok {
		return c.Chosen != Scan
	}
	return true
}

// PrefixServe reports whether SUM/COUNT/AVERAGE over the column should be
// answered from prefix sums; unplanned columns default to true.
func (sp *SheetPlan) PrefixServe(col int) bool {
	if c, ok := sp.aggs[col]; ok {
		return c.Chosen == PrefixSum
	}
	return true
}

// EagerIndexCols returns the columns whose prefix-sum indexes the plan
// schedules for the install-time build.
func (sp *SheetPlan) EagerIndexCols() []int {
	var cols []int
	for col, c := range sp.builds {
		if c.Chosen == EagerBuild {
			cols = append(cols, col)
		}
	}
	sortInts(cols)
	return cols
}

// UseRegionChain reports whether recalculation should sequence over
// inferred fill regions (true) or per-cell graph nodes (false).
func (sp *SheetPlan) UseRegionChain() bool {
	return sp.recalc == nil || sp.recalc.Chosen == RegionChain
}

// UseDeltas reports whether cell edits should maintain materialized
// aggregates by O(1) deltas (true) or recompute dependents (false).
func (sp *SheetPlan) UseDeltas() bool {
	return sp.maint == nil || sp.maint.Chosen == Delta
}

// LookupServeWork returns the planned lookup site's cost split: the
// steady-state per-probe work, the one-time build the chosen structure
// needs when cold, and the chosen strategy. ok is false for unplanned sites
// and for sites with no feasible choice.
func (sp *SheetPlan) LookupServeWork(col, r0, r1 int, exact bool) (serve, build costmodel.Meter, strat Strategy, ok bool) {
	c, found := sp.lookups[SiteKey{Col: col, R0: r0, R1: r1, Exact: exact}]
	if !found || c.Chosen == "" {
		return costmodel.Meter{}, costmodel.Meter{}, "", false
	}
	return c.serveWork, c.buildWork, c.Chosen, true
}

// CountIfServeWork returns the planned COUNTIF cost split for the column.
func (sp *SheetPlan) CountIfServeWork(col int) (serve, build costmodel.Meter, ok bool) {
	c, found := sp.countIf[col]
	if !found || c.Chosen == "" {
		return costmodel.Meter{}, costmodel.Meter{}, false
	}
	return c.serveWork, c.buildWork, true
}

// AggServeWork returns the planned SUM/COUNT/AVERAGE cost split for the
// column.
func (sp *SheetPlan) AggServeWork(col int) (serve, build costmodel.Meter, ok bool) {
	c, found := sp.aggs[col]
	if !found || c.Chosen == "" {
		return costmodel.Meter{}, costmodel.Meter{}, false
	}
	return c.serveWork, c.buildWork, true
}

// RecalcWork returns the chosen recalculation-sequencing candidate's cost
// split. For the region chain, serve is the per-recalc emission work and
// build the region inference — charged at runtime only when the engine's
// incrementally maintained region cache is actually stale. The per-cell
// chain has no reusable structure, so its full model is all serve.
func (sp *SheetPlan) RecalcWork() (serve, build costmodel.Meter, ok bool) {
	if sp.recalc == nil || sp.recalc.Chosen == "" {
		return costmodel.Meter{}, costmodel.Meter{}, false
	}
	return sp.recalc.serveWork, sp.recalc.buildWork, true
}

// MaintWork returns the predicted delta-maintenance work of one edit in the
// column — the per-column instantiation of the sheet's maintenance choice.
// ok is false when the plan chose recompute or the column hosts no
// materialized aggregates.
func (sp *SheetPlan) MaintWork(col int) (costmodel.Meter, bool) {
	if !sp.UseDeltas() {
		return costmodel.Meter{}, false
	}
	n := sp.maintLoads[col]
	if n <= 0 {
		return costmodel.Meter{}, false
	}
	return deltaMaintWork(n), true
}

// StatColumn records one column whose statistics informed the plan, with
// the version the statistics were collected under — the plan's
// invalidation key (mirroring the engine's colVer-keyed sortedness cache).
type StatColumn struct {
	Sheet   string
	Col     int
	Version int64
}

// Plan is a complete workbook plan.
type Plan struct {
	// Sheets holds, in tab order, a plan for every sheet that hosts
	// formulas or that a lookup site probes.
	Sheets      []*SheetPlan `json:"sheets"`
	Certificate *Certificate `json:"certificate,omitempty"`

	statCols []StatColumn
	derived  Derivation
}

// CertSource names where a build's sortedness certificates came from.
type CertSource string

// Certificate sources, in increasing cost.
const (
	CertNone  CertSource = "none"  // no sortedness question was asked
	CertValue CertSource = "value" // formula-free columns, from stored values
	CertInfer CertSource = "infer" // a key column held a formula: whole-sheet fixpoint
)

// note raises the source to src when src is the costlier one.
func (c *CertSource) note(src CertSource) {
	if *c == "" || *c == CertNone || src == CertInfer {
		*c = src
	}
}

// Derivation records how a build obtained its inputs: how many sheets'
// formula-derived analyses (site inventory, recalc facts) were reused from
// the Cache or built, how many column statistics were reused or
// (re)collected, and the costliest certificate source consulted.
type Derivation struct {
	SitesReused, SitesBuilt     int
	RecalcReused, RecalcBuilt   int
	StatsReused, StatsCollected int
	Cert                        CertSource
}

// Derivation reports how the plan's inputs were derived.
func (p *Plan) Derivation() Derivation {
	d := p.derived
	if d.Cert == "" {
		d.Cert = CertNone
	}
	return d
}

// SheetPlan returns the named sheet's plan section, or nil.
func (p *Plan) SheetPlan(name string) *SheetPlan {
	for _, sp := range p.Sheets {
		if sp.Sheet == name {
			return sp
		}
	}
	return nil
}

// StatColumns returns the columns (with versions) whose statistics the
// plan was derived from. A consumer re-validates these before trusting the
// plan's cost claims; a mismatch means re-plan.
func (p *Plan) StatColumns() []StatColumn { return p.statCols }

// Choices returns every choice across all sheets, in sheet order.
func (p *Plan) Choices() []*Choice {
	var out []*Choice
	for _, sp := range p.Sheets {
		out = append(out, sp.Choices...)
	}
	return out
}

// PredictedRecalc predicts the steady-state work of the engine's
// Recalculate(main): one evaluation of every formula hosted on the main
// sheet, plus the cross-sheet settle, in which the formulas of other sheets
// that read main evaluate once more and find no change. Where sheets read
// one another in a cycle the engine settles by rounds instead, whose last
// round re-evaluates every cross-sheet formula workbook-wide once more.
func (p *Plan) PredictedRecalc(main string) costmodel.Meter {
	var m costmodel.Meter
	rounds := p.readCycle()
	for _, sp := range p.Sheets {
		if sp.Sheet == main {
			addMeter(&m, sp.Predicted)
		}
		switch {
		case rounds:
			addMeter(&m, sp.PredictedExt)
		case sp.Sheet != main:
			addMeter(&m, sp.PredictedReads[main])
		}
	}
	return m
}

// readCycle reports whether the planned sheets read one another in a
// cycle (a sheet reading itself by name included), as the engine's
// sheet-level reader graph sees it.
func (p *Plan) readCycle() bool {
	// A sheet that reads no other sheet closes no cycle.
	reader := func(name string) bool {
		sp := p.SheetPlan(name)
		return sp != nil && len(sp.PredictedReads) > 0
	}
	done := make(map[string]bool, len(p.Sheets))
	for progress := true; progress; {
		progress = false
		for _, sp := range p.Sheets {
			if done[sp.Sheet] {
				continue
			}
			ready := true
			for name := range sp.PredictedReads {
				if name == sp.Sheet || !done[name] && reader(name) {
					ready = false
					break
				}
			}
			if ready {
				done[sp.Sheet], progress = true, true
			}
		}
	}
	return len(done) < len(p.Sheets)
}

// addMeter accumulates src into dst metric by metric.
func addMeter(dst *costmodel.Meter, src costmodel.Meter) { addMeterTimes(dst, src, 1) }

// addMeterTimes accumulates n copies of src into dst (exact: meters count
// in int64).
func addMeterTimes(dst *costmodel.Meter, src costmodel.Meter, n int64) {
	if n == 0 {
		return
	}
	for i := costmodel.Metric(0); int(i) < costmodel.NumMetrics; i++ {
		dst.Add(i, n*src.Count(i))
	}
}

// siteID renders a choice's site for explanations: "sheet!col[r0:r1]".
func siteID(sheet string, k SiteKey) string {
	return newBasis(sheet).num("!c", int64(k.Col)).num("[", int64(k.R0+1)).num(":", int64(k.R1+1)).String() + "]"
}

// basis assembles a choice's explanation: a label followed by
// "key=value" fields. It formats with strconv, not fmt: fmt takes its
// printers from a per-P sync.Pool, which made a plan build's allocation
// count vary with goroutine scheduling by more than the bench gate's 1%
// allocation slack.
type basis []byte

func newBasis(label string) basis { return append(make(basis, 0, 96), label...) }

func (b basis) num(key string, v int64) basis { return strconv.AppendInt(append(b, key...), v, 10) }

func (b basis) flag(key string, v bool) basis { return strconv.AppendBool(append(b, key...), v) }

func (b basis) String() string { return string(b) }

// put stores v under k, allocating the map on first use: most sheets
// plan few site kinds and consult few columns.
func put[K comparable, V any](m *map[K]V, k K, v V) {
	if *m == nil {
		*m = make(map[K]V)
	}
	(*m)[k] = v
}

// sortInts insertion-sorts the (short) eager-column list ascending.
func sortInts(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
