package plan

import (
	"math/bits"
	"time"

	"repro/internal/costmodel"
)

// This file prices candidate strategies in costmodel.Meter work units —
// the same currency the engine meters — and scalarizes them to simulated
// time under the planning coefficients. Every formula here mirrors the
// engine's actual charging (funcs_lookup.go, optimized.go, regions.go);
// the validation suite holds the totals to within 2x of the meters.

// pricer scalarizes meters under one coefficient set.
type pricer struct {
	coeff costmodel.Coefficients
}

func (p pricer) sim(m costmodel.Meter) time.Duration { return p.coeff.Time(&m) }

// mk builds a meter from (metric, count) pairs.
func mk(pairs ...int64) costmodel.Meter {
	var m costmodel.Meter
	for i := 0; i+1 < len(pairs); i += 2 {
		m.Add(costmodel.Metric(pairs[i]), pairs[i+1])
	}
	return m
}

// scaleMeter divides every count by div (ceiling), for amortizing one-time
// builds over an instance count.
func scaleMeter(m costmodel.Meter, div int64) costmodel.Meter {
	if div <= 1 {
		return m
	}
	var out costmodel.Meter
	for i := costmodel.Metric(0); int(i) < costmodel.NumMetrics; i++ {
		if c := m.Count(i); c > 0 {
			out.Add(i, (c+div-1)/div)
		}
	}
	return out
}

// CeilLog2 returns ceil(log2(n)) for n >= 1, 0 otherwise.
func CeilLog2(n int64) int64 {
	if n <= 1 {
		return 0
	}
	return int64(bits.Len64(uint64(n - 1)))
}

const (
	mTouch   = int64(costmodel.CellTouch)
	mWrite   = int64(costmodel.CellWrite)
	mCompare = int64(costmodel.Compare)
	mProbe   = int64(costmodel.IndexProbe)
	mDepOp   = int64(costmodel.DepOp)
	mEval    = int64(costmodel.FormulaEval)
)

// ScanLookupWork prices one linear-scan evaluation of a lookup over n key
// cells. Exact matches under the early-exit policy terminate at the
// expected hit, half way; approximate and descending matches scan the full
// span. VLOOKUP reads one result cell on a hit; MATCH returns the
// position.
func ScanLookupWork(fn string, mode int, n int64) costmodel.Meter {
	cells := n
	if mode == 0 {
		cells = (n + 1) / 2
	}
	m := mk(mTouch, cells, mCompare, cells)
	if fn == "VLOOKUP" {
		m.Add(costmodel.CellTouch, 1)
	}
	return m
}

// BinSearchLookupWork prices one binary-search evaluation: one probe
// (touch + compare) per halving, plus the result read for VLOOKUP. When
// the ascending run is not statically certified, the engine's first use
// pays a verification rescan of the span (one touch per cell), amortized
// over the site's instance count here.
func BinSearchLookupWork(fn string, n int64, static bool, count int64) costmodel.Meter {
	probes := CeilLog2(n) + 1
	m := mk(mTouch, probes, mCompare, probes)
	if fn == "VLOOKUP" {
		m.Add(costmodel.CellTouch, 1)
	}
	if !static {
		addMeter(&m, scaleMeter(mk(mTouch, n), count))
	}
	return m
}

// hashLookupWork prices one hash-index probe for an exact lookup: the
// index build (one touch + one probe per row) amortized over the site's
// instances, the probe itself (one probe per duplicate row list visit,
// priced from the distinct estimate), and the result read.
func hashLookupWork(n int64, dupProbes int64, count int64) costmodel.Meter {
	m := scaleMeter(mk(mTouch, n, mProbe, n), count)
	m.Add(costmodel.IndexProbe, dupProbes)
	m.Add(costmodel.CellTouch, 1) // result read
	return m
}

// scanCountWork prices one full-scan COUNTIF/aggregate evaluation over n
// cells.
func scanCountWork(n int64) costmodel.Meter {
	return mk(mTouch, n, mCompare, n, mEval, 1)
}

// hashCountWork prices one hash-index COUNTIF: build amortized, then one
// probe per matching row (the index walks the value's row list).
func hashCountWork(n, matches, count int64) costmodel.Meter {
	m := scaleMeter(mk(mTouch, n, mProbe, n), count)
	m.Add(costmodel.IndexProbe, matches)
	m.Add(costmodel.FormulaEval, 1)
	return m
}

// btreeCountWork prices one B-tree COUNTIF for a relational criterion:
// build amortized, then two descents (a CountLE/CountLT pair).
func btreeCountWork(n, count int64) costmodel.Meter {
	m := scaleMeter(mk(mTouch, n, mProbe, n), count)
	m.Add(costmodel.IndexProbe, 2*(CeilLog2(n)+1))
	m.Add(costmodel.FormulaEval, 1)
	return m
}

// prefixAggWork prices one prefix-sum aggregate evaluation: the column
// fill amortized (when lazily built), then two prefix probes.
func prefixAggWork(n, count int64, eager bool) costmodel.Meter {
	var m costmodel.Meter
	if !eager {
		m = scaleMeter(mk(mTouch, n), count)
	}
	m.Add(costmodel.IndexProbe, 2)
	m.Add(costmodel.FormulaEval, 1)
	return m
}

// scanAggWork prices one full-scan SUM/COUNT/AVERAGE over n cells.
func scanAggWork(n int64) costmodel.Meter {
	return mk(mTouch, n, mEval, 1)
}

// perCellSequenceWork prices per-cell calc-chain sequencing of f formulas:
// Kahn propagation plus sort-like ordering comparisons. It approximates
// graph.AllFormulas with a flat 4 ops per formula plus f·⌈log2 f⌉; the
// analyze package's EstimateRecalcOps counts the graph's terms instead —
// one op per precedent range (two past SmallRangeMax), one pop per
// formula, plus the same f·⌈log2 f⌉.
func perCellSequenceWork(f int64) costmodel.Meter {
	return mk(mDepOp, 4*f+f*CeilLog2(f))
}

// regionSequenceWork prices region-level sequencing: the measured
// inference and graph-build op counts (the planner runs the real inference
// — planning is uncharged static analysis, so the exact figure is free)
// plus one op per emitted cell.
func regionSequenceWork(inferOps, f int64) costmodel.Meter {
	return mk(mDepOp, inferOps+f)
}

// deltaMaintWork prices maintaining m materialized aggregates through one
// cell edit: two criterion compares (or one numeric update) and the cached
// write per aggregate.
func deltaMaintWork(aggs int64) costmodel.Meter {
	return mk(mCompare, 2*aggs, mWrite, aggs)
}

// recomputeMaintWork prices recomputing those aggregates from scratch on
// one edit: a full range scan each.
func recomputeMaintWork(totalRangeCells int64) costmodel.Meter {
	return mk(mTouch, totalRangeCells, mEval, 1)
}
