package engine

import (
	"time"

	"repro/internal/costmodel"
	"repro/internal/formula"
	"repro/internal/netsim"
)

// This file holds the calibrated system profiles. Coefficients are
// nanoseconds per work unit; they were fitted once against the curves and
// violation points published in the paper (anchors cited inline), and are
// never adjusted per experiment. Where a single system implements one
// operation family disproportionately slowly — a fact the paper's own
// figures demonstrate, e.g. Calc's VLOOKUP costing ~11x its native scan —
// the per-operation Multiplier encodes that implementation gap with the
// evidence cited. EXPERIMENTS.md records residual deviations.

// ExcelProfile models Microsoft Excel 2016 driven through VBA (§2.2.1).
func ExcelProfile() Profile {
	p := Profile{
		Name: "excel",
		// §4.3.4/Fig 8a: exact match terminates at the first hit;
		// approximate match on sorted data is near-constant (binary
		// search).
		Lookup: formula.LookupPolicy{ExactEarlyExit: true, ApproxBinarySearch: true},
		Recalc: RecalcPolicy{
			OnOpen:           true, // §4.1 [6]
			OnSort:           true, // §4.2.1
			OnFilter:         true, // §4.3.1 (superlinear re-sequencing)
			OnCondFormat:     false,
			OnNewSheet:       true, // §4.3.2
			StaleCheckOnRead: true, // §4.3.3: small F-vs-V gap for COUNTIF
		},
		WindowRows: 50,
	}
	c := &p.Coeff
	// Anchors: Fig 7a COUNTIF(V) ~60 ms at 500k rows -> 120 ns/cell.
	c[costmodel.CellTouch] = 120
	// Fig 3a sort(V) violates 500 ms at 70k rows (Table 2: 7%) with
	// 17-column rows -> 300 ns/moved cell.
	c[costmodel.CellWrite] = 300
	// §4.2.2: conditional formatting of 90k cells in 7.5 ms.
	c[costmodel.StyleWrite] = 80
	c[costmodel.FormulaEval] = 1000
	c[costmodel.RefResolve] = 100
	// Fig 8a: exact-match scan of 200k rows ~10 ms.
	c[costmodel.Compare] = 50
	// Fig 3a / Table 2 sort E(F) 1%: sort(F) violates 500 ms at 10k rows
	// but not 6k; calc-chain rebuild + re-evaluation prices out at ~7 us
	// per formula (~4 graph ops + one evaluation each).
	c[costmodel.DepOp] = 1400
	// §4.3.3: F-vs-V COUNTIF gap ~20 ms over 500k formula cells.
	c[costmodel.StaleCheck] = 40
	// §4.1: open(F) passes one minute at 40k rows = 280k embedded
	// formulae -> ~215 us to parse + register + first-evaluate each.
	c[costmodel.FormulaCompile] = 200000
	// Fig 10a: 500k scripted single-cell reads ~3.3 s.
	c[costmodel.APICall] = 6500
	c[costmodel.RenderCell] = 1000
	// §4.1: open(V) violates 500 ms at 6k rows (~570 KB of SVF).
	c[costmodel.ParseByte] = 580
	c[costmodel.IndexProbe] = 50

	p.FixedCost = [numOpKinds]time.Duration{
		OpOpen:        200 * time.Millisecond,
		OpSort:        100 * time.Millisecond,
		OpFilter:      50 * time.Millisecond,
		OpCondFormat:  5 * time.Millisecond,
		OpPivot:       150 * time.Millisecond,
		OpFindReplace: 30 * time.Millisecond,
		OpCopyPaste:   30 * time.Millisecond,
		// Per-formula scripting overhead of a VBA-driven insert; small
		// enough that Figure 11's reusable curve stays flat against the
		// repeated curve's quadratic term.
		OpAggregate: 30 * time.Microsecond,
		OpLookup:    30 * time.Microsecond,
		OpSetCell:   5 * time.Millisecond,
	}
	p.Multiplier = [numOpKinds]float64{
		// Fig 5a: filter(F) follows a superlinear trend but a far lower
		// constant than sort's full rebuild — re-sequencing without
		// reference rewriting; violates at 40k rows, ~7.5 s at 500k.
		OpFilter: 0.065,
		// §4.2.2: Excel formats 90k cells in 7.5 ms — an order cheaper
		// than its generic scan cost.
		OpCondFormat: 0.1,
		// Fig 6a: pivot violates at 50k rows (Table 2: 5%) — the GUI
		// pivot machinery costs ~9 us/row, far above a raw scan.
		OpPivot: 34,
		// Fig 8a absolute level vs the raw Compare anchor.
		OpLookup: 0.35,
		// Fig 9a: find-and-replace over 110k x 17 string cells ~6 s;
		// string matching costs ~18x the numeric compare anchor.
		OpFindReplace: 18,
	}
	return p
}

// CalcProfile models LibreOffice Calc 6.0 driven through Calc Basic
// (§2.2.1).
func CalcProfile() Profile {
	p := Profile{
		Name: "calc",
		// §4.3.4/Fig 8b: no early exit, no sorted-data optimization —
		// "Calc ends up scanning the entire dataset even after finding
		// the value".
		Lookup: formula.LookupPolicy{},
		Recalc: RecalcPolicy{
			OnOpen:       true,
			OnSort:       true, // §4.2.1
			OnFilter:     false,
			OnCondFormat: true,  // §4.2.2
			OnNewSheet:   false, // §4.3.2: pivot unaffected by formulae
			ReevalOnRead: true,  // §4.3.3
		},
		WindowRows: 50,
	}
	c := &p.Coeff
	// Fig 7b: COUNTIF(V) stays just under 500 ms at 500k -> ~0.9 us/cell
	// with the criteria compare below.
	c[costmodel.CellTouch] = 700
	// Fig 3a: sort(V) violates at 10k rows (Table 2: 1%).
	c[costmodel.CellWrite] = 2200
	// §4.2.2: 90k cells formatted in 79.5 ms.
	c[costmodel.StyleWrite] = 150
	// §4.3.3/Fig 7b: the F-vs-V gap (violation at 110k) prices one
	// re-evaluation of an embedded single-reference COUNTIF.
	c[costmodel.FormulaEval] = 2800
	c[costmodel.RefResolve] = 300
	c[costmodel.Compare] = 200
	// Table 2 sort C(F) 0.6%: rebuild+reeval ~10 us per formula.
	c[costmodel.DepOp] = 2000
	c[costmodel.StaleCheck] = 100
	// §4.1: open(F) passes one minute at 6k rows = 42k formulae.
	c[costmodel.FormulaCompile] = 1400000
	// Fig 10b: 500k scripted reads ~60 s.
	c[costmodel.APICall] = 120000
	c[costmodel.RenderCell] = 2000
	// §4.1/Table 2: open(V) violates at 150 rows given the fixed cost
	// below; Fig 2a: ~160 s for 500k rows of SVF.
	c[costmodel.ParseByte] = 3400
	c[costmodel.IndexProbe] = 100

	p.FixedCost = [numOpKinds]time.Duration{
		OpOpen:        480 * time.Millisecond,
		OpSort:        120 * time.Millisecond,
		OpFilter:      80 * time.Millisecond,
		OpCondFormat:  60 * time.Millisecond,
		OpPivot:       100 * time.Millisecond,
		OpFindReplace: 50 * time.Millisecond,
		OpCopyPaste:   50 * time.Millisecond,
		OpAggregate:   60 * time.Microsecond,
		OpLookup:      60 * time.Microsecond,
		OpSetCell:     8 * time.Millisecond,
	}
	p.Multiplier = [numOpKinds]float64{
		// Fig 5a vs Fig 7b: filter's per-row cost is ~2x its raw scan
		// (predicate + row-visibility bookkeeping), violating at 200k.
		OpFilter: 2.3,
		// Fig 8b vs Fig 7b: Calc's VLOOKUP costs ~11x its native scan
		// per row (interpreted lookup layer) — ~5 s at 500k, violation
		// just above 50k.
		OpLookup: 11,
		// Fig 9b: string find-and-replace ~10x the numeric scan cost.
		OpFindReplace: 10,
		// Fig 14a: batch recalculation of many instances of the same
		// formula after one update amortizes interpreter dispatch,
		// costing ~1/7 of a scripted one-off COUNTIF per instance.
		OpSetCell: 0.15,
	}
	return p
}

// SheetsProfile models Google Sheets driven through Google Apps Script
// (§2.2.2). Script-level operations carry heavy per-call and per-cell API
// cost, while the server's internal recalculation is native-fast — the
// split the paper's Figures 3b vs 7c make visible.
func SheetsProfile() Profile {
	p := Profile{
		Name:   "sheets",
		Lookup: formula.LookupPolicy{}, // §4.3.4: full scan either way
		Recalc: RecalcPolicy{
			OnOpen:       true,
			OnSort:       true, // §4.2.1
			OnFilter:     false,
			OnCondFormat: true, // §4.2.2
			OnNewSheet:   true, // §4.3.2
			ReevalOnRead: true, // §4.3.3
		},
		Web:          true,
		LazyViewport: true, // §4.1: "load the first m rows visible within the screen"
		WindowRows:   50,
		Net: netsim.Config{
			// §4.1: even a screenful breaks the 500 ms bound — network
			// delay plus DOM rendering.
			RTT:            120 * time.Millisecond,
			CallOverhead:   80 * time.Millisecond,
			BytesPerSecond: 5 << 20,
			// §3.3: "the variance in response times for certain
			// operations was very high".
			JitterFraction: 0.25,
			Seed:           0x5EED5,
			// §3.3: daily quotas bounded each experiment's data sizes.
			DailyQuota: 6 * time.Hour,
		},
	}
	c := &p.Coeff
	// Internal (server-native) costs; the script-facing cost of each
	// operation family is layered on via multipliers.
	c[costmodel.CellTouch] = 1500
	// Table 2 sort G(V) 2.04% = 6k rows.
	c[costmodel.CellWrite] = 3200
	c[costmodel.StyleWrite] = 500
	c[costmodel.FormulaEval] = 400
	c[costmodel.RefResolve] = 100
	c[costmodel.Compare] = 200
	c[costmodel.DepOp] = 300
	c[costmodel.StaleCheck] = 100
	// Fig 2b/§4.1: open(F) grows linearly — server-side dependency
	// resolution of ~7 formulae/row before first paint (~4.4 s at 90k,
	// matching Fig 2b's curve; the text's "~40 seconds" includes the
	// manual Drive conversion step).
	c[costmodel.FormulaCompile] = 2000
	// Fig 10c: 80k scripted reads ~56 s (calls run server-side; no
	// network round trip per call).
	c[costmodel.APICall] = 700000
	// §4.1: rendering HTML DOM for the visible window dominates the
	// value-only open floor (~1.3 s for a 50x17 window).
	c[costmodel.RenderCell] = 1200000
	c[costmodel.ParseByte] = 500
	c[costmodel.IndexProbe] = 100

	// Fixed costs ride on netsim round trips instead.
	p.Multiplier = [numOpKinds]float64{
		// Fig 7c: scripted COUNTIF ~3.6 s over 90k rows — ~23x the
		// server's native scan cost.
		OpAggregate: 23,
		// Fig 8c: VLOOKUP ~0.6 s at 90k — ~3x native.
		OpLookup: 2.9,
		// Fig 5b / Table 2 filter G(V) 6.8%.
		OpFilter: 10,
		// Fig 6b / Table 2 pivot G(V) 6.8%.
		OpPivot: 5,
		// Fig 4c: conditional-formatting recalculation of the formula
		// column violates at 50k rows.
		OpCondFormat: 1.2,
		// Fig 9c: ~7.5 s at 30k rows.
		OpFindReplace: 8.6,
	}
	return p
}

// OptimizedProfile is the §6 "future spreadsheet system": a desktop-class
// engine with every database-style optimization enabled. Its coefficients
// are Excel's (native desktop costs) — the point of the profile is the
// asymptotic change, not the constants.
func OptimizedProfile() Profile {
	p := ExcelProfile()
	p.Name = "optimized"
	p.Lookup = formula.LookupPolicy{ExactEarlyExit: true, ApproxBinarySearch: true, Indexed: true}
	p.Recalc = RecalcPolicy{
		OnOpen: true,
		// Sort recalculation is decided per formula by the row-locality
		// analysis instead of a blanket policy.
		OnSort:       true,
		OnFilter:     false,
		OnCondFormat: false,
		OnNewSheet:   false,
	}
	p.Opt = Optimizations{
		ColumnarLayout:        true,
		HashIndex:             true,
		InvertedIndex:         true,
		IncrementalAggregates: true,
		SharedComputation:     true,
		RedundantElimination:  true,
		SortRecalcAnalysis:    true,
		LazyOpen:              true,
		RegionGraph:           true,
		ValueCerts:            true,
	}
	p.Multiplier = [numOpKinds]float64{}
	return p
}

// PlannedProfile is the optimized engine driven by the cost-based planner
// (internal/plan) instead of its hard-wired strategy choices: the same
// optimization inventory, but each site's access path, index-build
// schedule, recalculation sequencing, and maintenance policy comes from
// priced candidates over collected column statistics. It is a separate
// profile so "optimized" stays byte-stable for meter-sensitive tests and
// ablations compare planner against fixed strategies directly.
func PlannedProfile() Profile {
	p := OptimizedProfile()
	p.Name = "planned"
	p.Opt.CostPlanner = true
	return p
}

// Profiles returns the standard profiles keyed by name.
func Profiles() map[string]Profile {
	return map[string]Profile{
		"excel":     ExcelProfile(),
		"calc":      CalcProfile(),
		"sheets":    SheetsProfile(),
		"optimized": OptimizedProfile(),
		"planned":   PlannedProfile(),
	}
}
