package analyze

import (
	"fmt"
	"sort"

	"repro/internal/cell"
	"repro/internal/formula"
)

// sharedScan implements RuleSharedSubexp: it buckets every non-trivial
// subtree of every formula by its displacement-adjusted fingerprint
// (formula.SubtreeHash). Two subtrees land in the same bucket exactly when
// they read the same cells and apply the same operations — i.e. when one
// evaluation could serve all occurrences. This is the static precursor to
// the shared-computation optimization of the paper's §6 ("one aggregate
// feeding N formulas need not be recomputed N times").
type sharedScan struct {
	buckets map[uint64]*sharedBucket
}

type sharedBucket struct {
	text  string      // effective text of the first occurrence
	count int         // total occurrences across formulas
	cost  int         // precedent-cell cardinality of one evaluation
	first cell.Addr   // anchor: first hosting cell, row-major
	cells []cell.Addr // up to 3 example hosts
}

func newSharedScan() *sharedScan {
	return &sharedScan{buckets: make(map[uint64]*sharedBucket)}
}

// add buckets the shareable subtrees of one formula. A subtree is shareable
// when it is an operation (call or binary op) that reads at least one cell:
// pure-literal subtrees belong to RuleConstFold, and bare references are
// free to re-read.
func (sc *sharedScan) add(f formulaSite) {
	formula.Walk(f.code.Root, func(n formula.Node) {
		switch n.(type) {
		case formula.CallNode, formula.BinaryNode:
		default:
			return
		}
		cost := subtreeCells(n)
		if cost == 0 {
			return
		}
		h := formula.SubtreeHash(n, f.dr, f.dc)
		b := sc.buckets[h]
		if b == nil {
			b = &sharedBucket{
				text:  subtreeText(n, f.dr, f.dc),
				cost:  cost,
				first: f.at,
			}
			sc.buckets[h] = b
		}
		b.count++
		if len(b.cells) < 3 {
			b.cells = append(b.cells, f.at)
		}
	})
}

// subtreeCells counts the precedent cells read by one subtree (refs plus
// range cardinalities). Displacement does not change cardinality, so the
// un-shifted tree is counted.
func subtreeCells(n formula.Node) int {
	cells := 0
	formula.Walk(n, func(m formula.Node) {
		switch t := m.(type) {
		case formula.RefNode:
			cells++
		case formula.RangeNode:
			cells += t.Range().Cells()
		}
	})
	return cells
}

// report emits one finding per bucket whose occurrence count reaches
// SharedMin, anchored at the first hosting cell. Cost is the cell reads a
// compute-once strategy saves: (count-1) x one evaluation's reads.
func (sc *sharedScan) report(e *emitter, opt Options) {
	cands := make([]*sharedBucket, 0, len(sc.buckets))
	for _, b := range sc.buckets {
		if b.count >= opt.SharedMin {
			cands = append(cands, b)
		}
	}
	cands = dropNestedBuckets(cands)
	// Map order is random; present biggest saving first, position as the
	// tiebreak, text last (two distinct subtrees can share a host cell).
	sort.Slice(cands, func(i, j int) bool {
		si := int64(cands[i].count-1) * int64(cands[i].cost)
		sj := int64(cands[j].count-1) * int64(cands[j].cost)
		if si != sj {
			return si > sj
		}
		if cands[i].first != cands[j].first {
			if cands[i].first.Row != cands[j].first.Row {
				return cands[i].first.Row < cands[j].first.Row
			}
			return cands[i].first.Col < cands[j].first.Col
		}
		return cands[i].text < cands[j].text
	})
	for _, b := range cands {
		saved := int64(b.count-1) * int64(b.cost)
		e.emit(Finding{
			Rule:     RuleSharedSubexp,
			Severity: Info,
			Sheet:    e.sr.Sheet,
			Cell:     b.first.A1(),
			Message: fmt.Sprintf("subexpression %s occurs in %d formulas (e.g. %s); computing it once would save ~%d cell reads",
				b.text, b.count, exampleCells(b.cells), saved),
			Cost: saved,
		})
	}
}

// dropNestedBuckets suppresses a qualifying bucket when a strictly larger
// qualifying bucket always encloses it: same occurrence count, same hosts,
// and its text contains the smaller one's. Sharing the enclosing subtree
// subsumes sharing the inner one; reporting both would double-count.
func dropNestedBuckets(cands []*sharedBucket) []*sharedBucket {
	out := cands[:0]
	for _, b := range cands {
		nested := false
		for _, p := range cands {
			if p == b || p.count != b.count || p.first != b.first ||
				len(p.text) <= len(b.text) {
				continue
			}
			if sameCells(p.cells, b.cells) && containsSubexpr(p.text, b.text) {
				nested = true
				break
			}
		}
		if !nested {
			out = append(out, b)
		}
	}
	return out
}

func sameCells(a, b []cell.Addr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// containsSubexpr reports whether the inner canonical text appears inside
// the outer one (canonical text is fully parenthesized, so plain substring
// search cannot false-positive across operator boundaries).
func containsSubexpr(outer, inner string) bool {
	for i := 0; i+len(inner) <= len(outer); i++ {
		if outer[i:i+len(inner)] == inner {
			return true
		}
	}
	return false
}

func exampleCells(cs []cell.Addr) string {
	out := ""
	for i, a := range cs {
		if i > 0 {
			out += ","
		}
		out += a.A1()
	}
	return out
}
