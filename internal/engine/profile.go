// Package engine implements the spreadsheet system under test: a complete,
// profile-parameterized engine providing every operation the paper
// benchmarks (open, sort, filter, conditional formatting, pivot tables,
// find-and-replace, copy-paste, formula insertion and evaluation, cell
// edits with dependency-driven recalculation), plus the optimization layer
// of §6 (indexes, incremental aggregates, shared and deduplicated
// computation, recalculation-necessity analysis, columnar access).
//
// A Profile encodes one system's externally observable policies — which
// operations trigger formula recalculation, which lookup algorithm runs,
// whether loading is viewport-lazy, how work units map to simulated time —
// per the evidence in §4–§5 of the paper. The work the engine performs is
// always real; only the clock conversion is calibrated.
package engine

import (
	"time"

	"repro/internal/costmodel"
	"repro/internal/formula"
	"repro/internal/netsim"
)

// OpKind identifies one benchmarked operation class for fixed-cost and
// multiplier lookup.
type OpKind int

// Operation kinds, following the taxonomy of Table 1.
const (
	OpOpen OpKind = iota
	OpSort
	OpFilter
	OpCondFormat
	OpPivot
	OpFindReplace
	OpCopyPaste
	OpAggregate   // inserting/evaluating an aggregate formula (COUNTIF, SUM, ...)
	OpLookup      // inserting/evaluating a lookup formula (VLOOKUP, MATCH, ...)
	OpSetCell     // a single cell edit, plus triggered recalculation
	OpRead        // scripting-API read of one cell (the §5.2 layout probe)
	OpBatchInsert // bulk formula fill (one script call, native evaluation)
	OpRowEdit     // structural row insertion/deletion with reference rewriting
	numOpKinds
)

var opKindNames = [numOpKinds]string{
	"open", "sort", "filter", "condformat", "pivot", "findreplace",
	"copypaste", "aggregate", "lookup", "setcell", "read", "batchinsert",
	"rowedit",
}

// String returns the operation kind's name.
func (k OpKind) String() string {
	if k < 0 || k >= numOpKinds {
		return "unknown"
	}
	return opKindNames[k]
}

// RecalcPolicy captures when a system recomputes embedded formulae — the
// interaction effects of §1 and the findings of §4. Values for the three
// systems come from the paper's observations and the Excel recalculation
// documentation it cites [6].
type RecalcPolicy struct {
	// OnOpen: determine the calculation sequence and recompute every
	// formula when a workbook is opened. All three systems do this (§4.1).
	OnOpen bool
	// OnSort: recompute all formulae after a sort, necessary or not
	// (§4.2.1: "sorting triggers formula recomputation that is often
	// unnecessary"). All three systems.
	OnSort bool
	// OnFilter: recompute after a filter. Observed only for Excel (§4.3.1:
	// "filtering likely triggers unnecessary formula recalculation in
	// Excel ... the other systems avoid this recomputation").
	OnFilter bool
	// OnCondFormat: recompute the formulae in the formatted range.
	// Observed for Calc and Google Sheets, not Excel (§4.2.2).
	OnCondFormat bool
	// OnNewSheet: recompute when a worksheet is inserted (pivot-table
	// output). Observed for Excel and Google Sheets, not Calc (§4.3.2).
	OnNewSheet bool
	// ReevalOnRead: re-evaluate a formula cell whenever another formula
	// references it, instead of trusting the cached value. Observed for
	// Calc and Google Sheets (§4.3.3: "issuing a COUNTIF formula over a
	// cell ... the value of which is a result of another formula,
	// triggers a recalculation at that cell").
	ReevalOnRead bool
	// StaleCheckOnRead: pay a per-cell staleness check when a scan crosses
	// a formula cell, without re-evaluating. Models Excel's cheaper
	// Formula-value overhead in §4.3.3.
	StaleCheckOnRead bool
}

// Optimizations lists the §6 database-style techniques. All are false for
// the three benchmarked systems — establishing that is the OOT benchmark's
// finding — and true (individually toggleable for ablations) in the
// optimized profile.
type Optimizations struct {
	// ColumnarLayout stores sheets column-major and serves sequential
	// column scans from contiguous memory with a bulk API (§5.2, §6).
	ColumnarLayout bool
	// HashIndex maintains per-column hash indexes consulted by exact-match
	// lookups (§5.1, §6 "Indexing and data layout").
	HashIndex bool
	// InvertedIndex maintains a token index consulted by find-and-replace
	// (§5.1.2).
	InvertedIndex bool
	// IncrementalAggregates maintains materialized aggregate results and
	// applies single-cell deltas instead of recomputing (§5.5, §6).
	IncrementalAggregates bool
	// SharedComputation answers overlapping range aggregates from shared
	// prefix sums (§5.3, §6 "Shared computation").
	SharedComputation bool
	// RedundantElimination detects formulae identical to an already
	// computed one by fingerprint and reuses the result (§5.4).
	RedundantElimination bool
	// SortRecalcAnalysis skips recomputation of row-local relative-
	// reference formulae after a sort (§6 "Detecting what needs
	// recomputation").
	SortRecalcAnalysis bool
	// LazyOpen loads only the visible window eagerly, resolving the rest
	// in the background (§6, generalizing Google Sheets' behavior).
	LazyOpen bool
	// RegionGraph sequences recalculation over inferred uniform fill
	// regions (internal/regions) instead of per-cell graph nodes — the
	// shared-formula compression real engines apply to filled columns, run
	// as a static pre-flight. Falls back to the per-cell graph whenever
	// the sheet's regions cannot be ordered.
	RegionGraph bool
	// ValueCerts consumes the abstract interpreter's value certificates
	// (internal/absint): certified error-free numeric columns fill typed
	// columnar storage without per-cell coercion checks (§6 "Indexing and
	// data layout" meets the analysis pass), and formula-free ones keep
	// that certificate until a write into the column; certified ascending
	// lookup columns switch VLOOKUP/MATCH from linear scan to binary
	// search; and certified-constant formula cells are skipped by calc
	// passes under a per-use value guard (internal/engine/valuecert.go).
	ValueCerts bool
	// CostPlanner replaces the hard-wired strategy choices above with a
	// cost-based plan (internal/plan): per-column statistics and priced
	// candidates decide per site whether lookups probe an index, binary
	// search, or scan; whether COUNTIF and shared aggregates use their
	// index services; which prefix indexes build eagerly; whether
	// recalculation sequences by region or per cell; and whether edits
	// maintain aggregates by deltas. Plans are advisory for cost only —
	// every fast path keeps its own soundness guard
	// (internal/engine/planner.go).
	CostPlanner bool
}

// Any reports whether any optimization is enabled.
func (o Optimizations) Any() bool { return o != Optimizations{} }

// Profile is a complete system model.
type Profile struct {
	// Name identifies the system ("excel", "calc", "sheets", "optimized").
	Name string
	// Lookup selects the lookup algorithms (§4.3.4).
	Lookup formula.LookupPolicy
	// Recalc is the recalculation policy.
	Recalc RecalcPolicy
	// Opt is the optimization set (zero for the real systems).
	Opt Optimizations

	// Web routes operations through the simulated network, models
	// viewport-lazy loading and formatting, and enforces quotas.
	Web bool
	// LazyViewport makes open and conditional formatting touch only the
	// visible window for value-only data (Google Sheets, §4.1, §4.2.2).
	LazyViewport bool
	// WindowRows is the number of rows in the visible window.
	WindowRows int
	// Net configures the simulated network (Web systems only).
	Net netsim.Config

	// Coeff converts metered work units to simulated nanoseconds.
	Coeff costmodel.Coefficients
	// FixedCost is a per-operation fixed simulated overhead (application
	// dispatch, rendering setup, script startup).
	FixedCost [numOpKinds]time.Duration
	// Multiplier scales the metered (variable) simulated cost of one
	// operation kind; 0 means 1. Used where a system's implementation of
	// one specific operation is disproportionately slow (e.g. Calc's
	// interpreted VLOOKUP, §4.3.4), with the justification documented in
	// calibration.go.
	Multiplier [numOpKinds]float64
}

// multiplier returns the effective variable-cost multiplier for an op.
func (p *Profile) multiplier(k OpKind) float64 {
	m := p.Multiplier[k]
	if m == 0 {
		return 1
	}
	return m
}

// OpTime converts one operation's metered work delta into simulated time.
func (p *Profile) OpTime(k OpKind, work *costmodel.Meter) time.Duration {
	variable := p.Coeff.Time(work)
	return p.FixedCost[k] + time.Duration(float64(variable)*p.multiplier(k))
}
