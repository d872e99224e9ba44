package analyze

import (
	"repro/internal/graph"
	"repro/internal/plan"
)

// EstimateRecalcOps predicts, without building or running anything, the
// dependency-maintenance ops that graph.AllFormulas charges to sequence a
// full recalculation of the given formulas. It mirrors the graph's own
// accounting term by term:
//
//   - one op per precedent range per formula (the edge-derivation scan),
//   - one op per large-classified range (> graph.SmallRangeMax cells,
//     registered once in the interval list and scanned once),
//   - one op per formula popped from the ready queue (the Kahn loop),
//   - plus the comparison count of sequencing the ready set, which the
//     graph meters inside sortAddrs; for F formulas entering the queue the
//     sort work is bounded by F*ceil(log2 F) comparisons.
//
// The last term is the only approximation: the real comparison count
// depends on how the topological frontier fragments. The package test
// holds the estimate within a factor of two of the measured graph.Ops()
// across workload sizes, which is the precision a "should I recalculate
// or rebuild" planner needs.
func EstimateRecalcOps(sites []formulaSite) int64 {
	var est int64
	f := int64(len(sites))
	if f == 0 {
		return 0
	}
	for _, site := range sites {
		for _, r := range site.code.PrecedentRanges(site.dr, site.dc) {
			est++ // edge-derivation visit
			if r.Cells() > graph.SmallRangeMax {
				est++ // interval-list scan entry
			}
		}
	}
	est += f                    // ready-queue pops
	est += f * plan.CeilLog2(f) // sequencing comparisons
	return est
}
