// Package graph tracks formula dependencies and produces recalculation
// orders. It models the "calculation sequence" machinery Excel documents
// and the paper repeatedly implicates in its latency findings [6]: when a
// cell changes, the transitive dependents must be re-evaluated in
// topological order; when the sheet is structurally changed (sort, open),
// systems re-sequence the entire chain.
package graph

import (
	"math/bits"
	"sort"

	"repro/internal/cell"
	"repro/internal/obs"
)

// smallRangeMax is the precedent-range size up to which dependencies are
// expanded into exact per-cell edges. Larger ranges (e.g. a COUNTIF over an
// entire column) are kept as interval entries and matched by scan — the
// region-based bookkeeping real engines use, cheap because sheets have few
// huge-range formulae but possibly millions of single-ref ones.
const smallRangeMax = 16

// SmallRangeMax exports the small/large range threshold for consumers that
// model the graph's cost behavior (internal/analyze's static recalc-cost
// estimate must classify precedent ranges the same way SetFormula does).
const SmallRangeMax = smallRangeMax

type rangeDep struct {
	rng cell.Range
	dep cell.Addr
}

// Graph is a single-sheet dependency graph. It is not safe for concurrent
// use.
type Graph struct {
	// byCell maps a precedent cell to the formula cells that read it via
	// small references.
	byCell map[cell.Addr][]cell.Addr
	// large holds big-range precedents, scanned on updates.
	large []rangeDep
	// precedents remembers each formula's registered ranges for removal.
	precedents map[cell.Addr][]cell.Range
	// ops counts graph maintenance operations since construction; the
	// engine charges these to the DepOp metric.
	ops int64
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		byCell:     make(map[cell.Addr][]cell.Addr),
		precedents: make(map[cell.Addr][]cell.Range),
	}
}

// Ops returns the number of maintenance operations performed since the last
// ResetOps; the engine transfers this onto its meter.
func (g *Graph) Ops() int64 { return g.ops }

// ResetOps zeroes the maintenance-operation counter.
func (g *Graph) ResetOps() { g.ops = 0 }

// FormulaCount returns the number of registered formula cells.
func (g *Graph) FormulaCount() int { return len(g.precedents) }

// Stats summarizes the graph's materialized size: how many formula nodes
// are registered, how many per-cell reverse edges the small-range expansion
// produced, and how many precedent ranges were classified large (held as
// intervals and scanned on update instead of expanded).
type Stats struct {
	// Formulas is the number of registered formula cells (nodes).
	Formulas int
	// CellEdges counts the expanded precedent-cell -> formula edges from
	// ranges of at most SmallRangeMax cells.
	CellEdges int
	// LargeRanges counts precedent ranges kept in the interval list.
	LargeRanges int
}

// Stats returns the graph's current size statistics. The small/large split
// mirrors SetFormula's classification, so analyze's static cost model
// (EstimateRecalcOps) can be validated against a built graph.
func (g *Graph) Stats() Stats {
	st := Stats{Formulas: len(g.precedents), LargeRanges: len(g.large)}
	for _, deps := range g.byCell {
		st.CellEdges += len(deps)
	}
	return st
}

// SetFormula registers (or replaces) the formula at the given cell with the
// given precedent ranges. Single cells are passed as 1x1 ranges.
func (g *Graph) SetFormula(at cell.Addr, ranges []cell.Range) {
	if _, exists := g.precedents[at]; exists {
		g.RemoveFormula(at)
	}
	stored := make([]cell.Range, len(ranges))
	copy(stored, ranges)
	g.precedents[at] = stored
	g.ops++
	for _, r := range stored {
		if r.Cells() <= smallRangeMax {
			for row := r.Start.Row; row <= r.End.Row; row++ {
				for col := r.Start.Col; col <= r.End.Col; col++ {
					p := cell.Addr{Row: row, Col: col}
					g.byCell[p] = append(g.byCell[p], at)
					g.ops++
				}
			}
		} else {
			g.large = append(g.large, rangeDep{rng: r, dep: at})
			g.ops++
		}
	}
}

// RemoveFormula unregisters the formula at the given cell.
func (g *Graph) RemoveFormula(at cell.Addr) {
	ranges, ok := g.precedents[at]
	if !ok {
		return
	}
	delete(g.precedents, at)
	g.ops++
	for _, r := range ranges {
		if r.Cells() <= smallRangeMax {
			for row := r.Start.Row; row <= r.End.Row; row++ {
				for col := r.Start.Col; col <= r.End.Col; col++ {
					p := cell.Addr{Row: row, Col: col}
					g.byCell[p] = removeAddr(g.byCell[p], at)
					if len(g.byCell[p]) == 0 {
						delete(g.byCell, p)
					}
					g.ops++
				}
			}
		} else {
			for i := range g.large {
				if g.large[i].dep == at && g.large[i].rng == r {
					g.large = append(g.large[:i], g.large[i+1:]...)
					break
				}
			}
			g.ops++
		}
	}
}

func removeAddr(s []cell.Addr, a cell.Addr) []cell.Addr {
	for i := range s {
		if s[i] == a {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// Precedents returns the registered precedent ranges of a formula cell.
func (g *Graph) Precedents(at cell.Addr) []cell.Range { return g.precedents[at] }

// Read reports whether any registered formula reads the given cell. Like
// TransitiveDependents it charges no maintenance ops.
func (g *Graph) Read(a cell.Addr) bool {
	if len(g.byCell[a]) > 0 {
		return true
	}
	for _, rd := range g.large {
		if rd.rng.Contains(a) {
			return true
		}
	}
	return false
}

// DirectDependents returns the formula cells that directly read the given
// cell. The result is freshly allocated.
func (g *Graph) DirectDependents(changed cell.Addr) []cell.Addr {
	var out []cell.Addr
	out = append(out, g.byCell[changed]...)
	g.ops++
	for _, rd := range g.large {
		g.ops++
		if rd.rng.Contains(changed) {
			out = append(out, rd.dep)
		}
	}
	return out
}

// TransitiveDependents returns every formula cell that transitively depends
// on the given cell, in row-major order. Unlike DirectDependents it charges
// no maintenance ops: it serves the static analyzer (internal/analyze),
// which must observe the graph without perturbing the engine's meters. The
// count of the result is a volatile formula's "blast radius" — how much of
// the sheet a naive profile re-derives every calculation pass.
func (g *Graph) TransitiveDependents(start cell.Addr) []cell.Addr {
	seen := make(map[cell.Addr]bool)
	queue := make([]cell.Addr, 0, 8)
	visit := func(changed cell.Addr) {
		for _, d := range g.byCell[changed] {
			if !seen[d] {
				seen[d] = true
				queue = append(queue, d)
			}
		}
		for _, rd := range g.large {
			if rd.rng.Contains(changed) && !seen[rd.dep] {
				seen[rd.dep] = true
				queue = append(queue, rd.dep)
			}
		}
	}
	visit(start)
	for i := 0; i < len(queue); i++ {
		visit(queue[i])
	}
	out := append([]cell.Addr(nil), queue...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Row != out[j].Row {
			return out[i].Row < out[j].Row
		}
		return out[i].Col < out[j].Col
	})
	return out
}

// Dirty computes the transitive dependents of the changed cells in
// topological (evaluation) order: every formula appears after all formulae
// it reads. Cells participating in a reference cycle are still returned
// (in an arbitrary order within the cycle) so the engine can mark them
// #CYCLE!; the second result lists them.
func (g *Graph) Dirty(changed []cell.Addr) (order []cell.Addr, cyclic []cell.Addr) {
	sp := obs.Start("graph.dirty").Int("seeds", int64(len(changed)))
	defer func() { sp.Int("order", int64(len(order))).End() }()
	// Phase 1: discover the affected formula set by BFS over dependents.
	affected := make(map[cell.Addr]bool)
	queue := make([]cell.Addr, 0, len(changed))
	for _, c := range changed {
		for _, d := range g.DirectDependents(c) {
			if !affected[d] {
				affected[d] = true
				queue = append(queue, d)
			}
		}
	}
	for len(queue) > 0 {
		at := queue[0]
		queue = queue[1:]
		for _, d := range g.DirectDependents(at) {
			if !affected[d] {
				affected[d] = true
				queue = append(queue, d)
			}
		}
	}
	if len(affected) == 0 {
		return nil, nil
	}

	// Phase 2: Kahn's algorithm restricted to the affected set. An edge
	// A -> B exists when B's precedents include A's cell.
	indeg := make(map[cell.Addr]int, len(affected))
	edges := make(map[cell.Addr][]cell.Addr, len(affected))
	for b := range affected {
		indeg[b] += 0
		for _, r := range g.precedents[b] {
			g.ops++
			// A formula that reads its own cell is a cycle of length one
			// (sorts displace ranges onto their host). The permanent
			// indegree keeps it — and everything downstream — off the
			// ready queue, so the engine marks them #CYCLE!.
			if r.Contains(b) {
				indeg[b]++
			}
			// Walk the affected formulae that lie inside b's precedent
			// ranges. For small ranges enumerate cells; for large ranges
			// test each affected cell (affected sets are small relative
			// to huge ranges in real sheets).
			if r.Cells() <= smallRangeMax {
				for row := r.Start.Row; row <= r.End.Row; row++ {
					for col := r.Start.Col; col <= r.End.Col; col++ {
						a := cell.Addr{Row: row, Col: col}
						if a != b && affected[a] {
							edges[a] = append(edges[a], b)
							indeg[b]++
						}
					}
				}
			} else {
				for a := range affected {
					if a != b && r.Contains(a) {
						edges[a] = append(edges[a], b)
						indeg[b]++
					}
				}
			}
		}
	}

	ready := make([]cell.Addr, 0, len(affected))
	for a, d := range indeg {
		if d == 0 {
			ready = append(ready, a)
		}
	}
	// Deterministic order for reproducible benchmarks and tests.
	g.sortAddrs(ready)

	order = make([]cell.Addr, 0, len(affected))
	for len(ready) > 0 {
		a := ready[0]
		ready = ready[1:]
		order = append(order, a)
		next := edges[a]
		g.sortAddrs(next)
		for _, b := range next {
			indeg[b]--
			if indeg[b] == 0 {
				ready = append(ready, b)
			}
		}
		g.ops++
	}
	if len(order) < len(affected) {
		for a := range affected {
			if indeg[a] > 0 {
				cyclic = append(cyclic, a)
			}
		}
		g.sortAddrs(cyclic)
	}
	return order, cyclic
}

// AllFormulas returns every registered formula cell in topological order,
// for full recalculation (open, and the re-sequencing after sort). Formulae
// in cycles are appended at the end and also returned separately.
func (g *Graph) AllFormulas() (order []cell.Addr, cyclic []cell.Addr) {
	sp := obs.Start("graph.calc_chain").Int("formulas", int64(len(g.precedents)))
	defer sp.End()
	roots := make([]cell.Addr, 0, len(g.precedents))
	for a := range g.precedents {
		roots = append(roots, a)
	}
	if len(roots) == 0 {
		return nil, nil
	}
	// Treat every formula as affected and reuse the Kahn pass by seeding
	// phase 2 directly.
	affected := make(map[cell.Addr]bool, len(roots))
	for _, a := range roots {
		affected[a] = true
	}
	indeg := make(map[cell.Addr]int, len(affected))
	edges := make(map[cell.Addr][]cell.Addr, len(affected))
	for b := range affected {
		indeg[b] += 0
		for _, r := range g.precedents[b] {
			g.ops++
			// Self-reads are cycles of length one; see Dirty.
			if r.Contains(b) {
				indeg[b]++
			}
			if r.Cells() <= smallRangeMax {
				for row := r.Start.Row; row <= r.End.Row; row++ {
					for col := r.Start.Col; col <= r.End.Col; col++ {
						a := cell.Addr{Row: row, Col: col}
						if a != b && affected[a] {
							edges[a] = append(edges[a], b)
							indeg[b]++
						}
					}
				}
			} else {
				// Large-range formulae over mostly-value cells: scan the
				// large list once below instead of per-cell tests here.
			}
		}
	}
	// Large-range edges: for each large-range dep, link every affected
	// formula inside the range to the dependent.
	for _, rd := range g.large {
		if !affected[rd.dep] {
			continue
		}
		for a := range affected {
			if a != rd.dep && rd.rng.Contains(a) {
				edges[a] = append(edges[a], rd.dep)
				indeg[rd.dep]++
			}
		}
		g.ops++
	}

	ready := make([]cell.Addr, 0, len(affected))
	for a, d := range indeg {
		if d == 0 {
			ready = append(ready, a)
		}
	}
	g.sortAddrs(ready)
	order = make([]cell.Addr, 0, len(affected))
	for len(ready) > 0 {
		a := ready[0]
		ready = ready[1:]
		order = append(order, a)
		next := edges[a]
		g.sortAddrs(next)
		for _, b := range next {
			indeg[b]--
			if indeg[b] == 0 {
				ready = append(ready, b)
			}
		}
		g.ops++
	}
	if len(order) < len(affected) {
		for a := range affected {
			if indeg[a] > 0 {
				cyclic = append(cyclic, a)
			}
		}
		g.sortAddrs(cyclic)
	}
	return order, cyclic
}

// sortAddrs orders addresses row-major, charging n·⌈log2 n⌉ maintenance ops
// — sequencing the ready set is the sort-like phase of calc-chain
// construction, and the source of the superlinear trend the engine's filter
// re-sequencing exhibits (§4.3.1). The charge is analytic rather than a live
// comparison count: the slices arrive in map-iteration order, so the actual
// comparison count varies run to run while the sorted result (and this
// model's cost) must not.
func (g *Graph) sortAddrs(s []cell.Addr) {
	if n := int64(len(s)); n > 1 {
		g.ops += n * int64(bits.Len64(uint64(n-1)))
	}
	sort.Slice(s, func(i, j int) bool {
		if s[i].Row != s[j].Row {
			return s[i].Row < s[j].Row
		}
		return s[i].Col < s[j].Col
	})
}
