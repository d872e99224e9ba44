// Package interfere is the whole-workbook parallel-safety analysis: given
// the inferred fill regions of a sheet (internal/regions), it derives each
// region's precedent coverage from its class footprint (internal/formula),
// computes the region-pair interference relation — which regions read cells
// some other region writes — and levels the conflict-free DAG into
// certified parallel stages.
//
// The certificate's contract: regions assigned to the same stage have
// disjoint read/write interactions, so they may execute concurrently once
// every earlier stage has completed; within one region, rows still evaluate
// sequentially in the region's required direction (internal/regions owns
// intra-region ordering). A formula whose read set cannot be bounded
// statically — volatile functions and computed references (OFFSET,
// INDIRECT) — is conservatively conflicting: its regions, everything that
// reads from them, and any region caught in an interference cycle are left
// unstaged and reported as blockers, and the certificate as a whole is not
// issued (OK is false).
package interfere

import (
	"sort"

	"repro/internal/cell"
	"repro/internal/formula"
	"repro/internal/regions"
)

// Edge records one interference pair: region To reads at least one cell
// written by region From, so To must be staged strictly after From.
type Edge struct {
	From, To int
}

// Blocker names a formula shape that prevents staging.
type Blocker struct {
	// Region indexes the SheetRegions the analysis ran over.
	Region int
	// Cell is the region's first member — a concrete cell to point at.
	Cell cell.Addr
	// Text is the region class's relative R1C1 canonical text.
	Text string
	// Reason explains the exclusion.
	Reason string
}

// Cert is a parallel-safety certificate for one sheet's region set.
type Cert struct {
	// Version is the sheet's formula-set version the certificate was
	// issued against; the engine refuses to consult a certificate whose
	// version does not match the live one.
	Version int64
	// Regions and Formulas mirror the underlying inference's counts.
	Regions  int
	Formulas int
	// Stage maps region index to its certified stage, -1 when the region
	// could not be staged.
	Stage []int
	// Stages lists region indices per stage, each ascending.
	Stages [][]int
	// Edges is the interference relation over staged regions, sorted by
	// (From, To).
	Edges []Edge
	// Blockers names the regions left unstaged, ascending by region index.
	Blockers []Blocker
	// OK reports whether every region was staged — only then may the
	// engine schedule stages concurrently.
	OK bool

	ops int64
}

// Analyze computes the interference relation and parallel stages for an
// inferred region set. The result is deterministic: stages and blockers
// follow region index order. The caller stamps Version.
func Analyze(sr *regions.SheetRegions) *Cert {
	n := len(sr.Regions)
	c := &Cert{
		Regions:  n,
		Formulas: sr.Formulas,
		Stage:    make([]int, n),
	}

	// Per-class footprints, derived once and shared by every region of the
	// class — the same (code, origin) collapse region inference exploits.
	fps := make([]formula.Footprint, len(sr.Classes))
	for i, cls := range sr.Classes {
		fps[i] = formula.ReadFootprint(cls.Code, cls.Origin)
		c.ops++
	}

	// Exclude regions with unanalyzable footprints, then propagate: a
	// region reading from an excluded region has no stage to wait on.
	excluded := make([]bool, n)
	reason := make([]string, n)
	for i, r := range sr.Regions {
		if fp := fps[r.Class]; fp.Unanalyzable {
			excluded[i] = true
			reason[i] = "unanalyzable footprint (" + fp.Reason + ")"
		}
	}

	// The interference relation. For each dependent region, every read
	// interval of its class covers one rectangle over the whole region
	// (CoverOver); any other region whose written cells — its own column
	// span — intersect that rectangle is a precedent.
	edge := make([]bool, n*n)
	for di, d := range sr.Regions {
		for _, iv := range fps[d.Class].Reads {
			rect := iv.CoverOver(d.Col, d.Start, d.End)
			if rect.End.Row < 0 || rect.End.Col < 0 {
				continue // entirely off-sheet
			}
			for pi, p := range sr.Regions {
				c.ops++
				if pi == di {
					continue // intra-region ordering is the region's own
				}
				if p.Col < rect.Start.Col || p.Col > rect.End.Col {
					continue
				}
				if p.End < rect.Start.Row || p.Start > rect.End.Row {
					continue
				}
				edge[pi*n+di] = true
			}
		}
	}
	for pi := 0; pi < n; pi++ {
		for di := 0; di < n; di++ {
			if edge[pi*n+di] {
				c.Edges = append(c.Edges, Edge{From: pi, To: di})
			}
		}
	}
	sort.Slice(c.Edges, func(i, j int) bool {
		if c.Edges[i].From != c.Edges[j].From {
			return c.Edges[i].From < c.Edges[j].From
		}
		return c.Edges[i].To < c.Edges[j].To
	})

	// Propagate exclusion along edges: reading an unanalyzable region is
	// itself unstageable.
	for changed := true; changed; {
		changed = false
		for _, e := range c.Edges {
			c.ops++
			if excluded[e.From] && !excluded[e.To] {
				excluded[e.To] = true
				reason[e.To] = "reads an unanalyzable region"
				changed = true
			}
		}
	}

	// Level the included subgraph: longest path from any source, Kahn
	// order, smallest region index first for determinism. Whatever Kahn
	// cannot emit sits on (or downstream of) an interference cycle.
	indeg := make([]int, n)
	adj := make([][]int, n)
	for _, e := range c.Edges {
		if excluded[e.From] || excluded[e.To] {
			continue
		}
		adj[e.From] = append(adj[e.From], e.To)
		indeg[e.To]++
	}
	for i := range c.Stage {
		c.Stage[i] = -1
	}
	level := make([]int, n)
	emitted := make([]bool, n)
	remaining := 0
	for i := 0; i < n; i++ {
		if !excluded[i] {
			remaining++
		}
	}
	maxStage := -1
	for remaining > 0 {
		next := -1
		for i := 0; i < n; i++ {
			c.ops++
			if !excluded[i] && !emitted[i] && indeg[i] == 0 {
				next = i
				break
			}
		}
		if next < 0 {
			break // interference cycle among the rest
		}
		emitted[next] = true
		remaining--
		c.Stage[next] = level[next]
		if level[next] > maxStage {
			maxStage = level[next]
		}
		for _, to := range adj[next] {
			indeg[to]--
			if level[next]+1 > level[to] {
				level[to] = level[next] + 1
			}
		}
	}
	for i := 0; i < n; i++ {
		if !excluded[i] && !emitted[i] {
			excluded[i] = true
			reason[i] = "interference cycle"
		}
	}

	c.Stages = make([][]int, maxStage+1)
	for i := 0; i < n; i++ {
		if s := c.Stage[i]; s >= 0 {
			c.Stages[s] = append(c.Stages[s], i)
		}
	}
	for i, r := range sr.Regions {
		if excluded[i] {
			c.Blockers = append(c.Blockers, Blocker{
				Region: i,
				Cell:   cell.Addr{Row: r.Start, Col: r.Col},
				Text:   sr.Classes[r.Class].Text,
				Reason: reason[i],
			})
		}
	}
	c.OK = len(c.Blockers) == 0
	return c
}

// StageCount returns the number of certified stages.
func (c *Cert) StageCount() int { return len(c.Stages) }

// Widest returns the size of the largest stage — the peak parallelism the
// certificate licenses.
func (c *Cert) Widest() int {
	w := 0
	for _, s := range c.Stages {
		if len(s) > w {
			w = len(s)
		}
	}
	return w
}

// CheckStages verifies an independently derived edge set against the
// certificate: every (from, to) pair must span strictly increasing stages.
// It returns the violating pairs (nil means certified order holds). The
// engine's scheduler shim runs this against the region graph's cross-region
// edges on every staged recalculation — two separate derivations of the
// same dependency structure must agree, or the certificate is unsound.
func (c *Cert) CheckStages(edges [][2]int) [][2]int {
	var bad [][2]int
	for _, e := range edges {
		from, to := e[0], e[1]
		if from < 0 || from >= len(c.Stage) || to < 0 || to >= len(c.Stage) {
			bad = append(bad, e)
			continue
		}
		if c.Stage[from] < 0 || c.Stage[to] < 0 || c.Stage[from] >= c.Stage[to] {
			bad = append(bad, e)
		}
	}
	return bad
}

// Ops returns the analysis work counter (charged to the engine's DepOp
// metric when the pass runs inside a metered operation).
func (c *Cert) Ops() int64 { return c.ops }

// ResetOps zeroes the work counter.
func (c *Cert) ResetOps() { c.ops = 0 }
