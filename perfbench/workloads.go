package main

import (
	"fmt"
	"math/rand"

	"repro/internal/cell"
	"repro/internal/engine"
	"repro/internal/sheet"
	"repro/internal/workload"
)

// class is one timed operation class. Each class is reported on its own;
// no latency is ever pooled across classes.
type class int

const (
	clsEdit    class = iota // Engine.SetCell
	clsRead                 // Engine.CellValue
	clsFormula              // Engine.InsertFormula
	clsSort                 // Engine.Sort
	clsFilter               // Engine.Filter followed by Engine.ClearFilter
	clsFind                 // Engine.FindReplace
	clsPivot                // Engine.PivotTable
	clsPaste                // Engine.CopyPaste
	clsRowEdit              // Engine.InsertRows or Engine.DeleteRows
	numClasses
)

var classNames = [numClasses]string{
	"edit", "read", "formula", "sort", "filter", "find", "pivot", "paste", "rowedit",
}

func (c class) String() string { return classNames[c] }

// settled reports whether an action of the class is timed together with a
// settle edit: everything but edits and reads, so that a rebuild the engine
// defers into the next edit is charged to the action that caused it.
func (c class) settled() bool { return c != clsEdit && c != clsRead }

// edit is one SetCell. It writes Val, or Alt when the cell already holds
// Val, so that every edit changes the cell and the edit class never mixes
// no-op writes with real ones.
type edit struct {
	Sheet string
	At    cell.Addr
	Val   cell.Value
	Alt   cell.Value
}

// action is one call (or, for a filter, one Filter/ClearFilter pair) into
// the engine's public operations. Fields unused by a class stay zero, so
// two streams compare with ==.
type action struct {
	Cls   class
	Sheet string
	At    cell.Addr  // edit/read/formula target, paste destination
	Val   cell.Value // edit value, filter criterion
	Alt   cell.Value // edit value when the cell already holds Val
	Text  string     // formula text, find string
	Repl  string     // replacement string
	Src   cell.Range // paste source
	Col   int        // sort/filter/pivot key column
	Col2  int        // pivot measure column
	// Rows is, for a row edit, the rows inserted (>0) or deleted (<0); for
	// a sort, filter or pivot, the leading rows left out.
	Rows int
	// Settle is the probe edit timed together with a settled action.
	Settle edit
}

// unit is a group of actions placed in a round as a whole. Paired units
// undo themselves (sort back by id, replace back, delete the inserted
// rows), so the workbook stays stationary over a long stream.
type unit int

const (
	uEdit  unit = iota // the workload's main edit, also used as settle edit
	uEdit2             // its second edit kind, in a fixed share per round
	uRead
	uFormula
	uSortPair
	uFilter
	uFindPair
	uPivot
	uPaste
	uRowEditPair
	numUnits
)

// workloadDef describes one workload: its dataset, engine profile, set-up
// formulas and the exact unit mix of one round of its op stream.
type workloadDef struct {
	Name    string
	Dataset string
	Rows    int
	Profile func() engine.Profile
	// Round holds how many of each unit one round of the stream contains.
	Round [numUnits]int
	// fixedRows is the number of leading sheet rows that sorts and row
	// edits leave in place (header plus set-up formulas).
	fixedRows int
	// setup returns the set-up formulas inserted after Install.
	setup func(rows int, seed uint64) []formulaAt
	// gen supplies the per-workload operation parameters.
	gen func(g *gen) opGen
}

type formulaAt struct {
	Sheet string
	At    cell.Addr
	Text  string
}

// opGen draws the workload-specific parameters of each unit.
type opGen struct {
	edit    func() edit
	edit2   func() edit
	read    func() action
	formula func() action
	// sortKeys are used in turn by successive sort pairs; a round holds a
	// multiple of their number, so every round sorts by each key alike.
	sortKeys []int
	filter   func() action
	find     func() (from, to string)
	pivot    func() action
	paste    func() action
}

// Column letters of the weather dataset used below.
const (
	colA = workload.ColID
	colB = workload.ColState
	colJ = workload.ColStorm
	colK = workload.ColFormula0
	colQ = workload.ColFormula0 + workload.NumEvents - 1
	colS = 18 // dashboard formulas
	colT = 19 // edit: scratch formulas; reorg: dashboard
)

// Weather sizes. The edit workload is smaller than the others because
// every edit there rebuilds the cost plan; at this size a 20 s run still
// holds more than 100 edits, which the edit p90 needs.
const (
	editRows  = 1000
	reorgRows = 10000
	xsRows    = 10000
	// editFixed keeps the dashboard (S2:S9) and scratch cells (T2:T17) in
	// place under sorts, filters and row edits.
	editFixed = 17
	// scratchCells is the number of formula-insert targets per workload.
	scratchCells = 16
)

// workloads are the benchmark's three sessions; README.md gives the full
// rationale. Each loads a different layer and bypasses the others'.
var workloads = []*workloadDef{
	{
		// Every edit on the planned profile rebuilds the cost plan
		// (plan.Build, with absint.InferSheet inside it).
		Name:    "edit",
		Dataset: "weather",
		Rows:    editRows,
		Profile: engine.PlannedProfile,
		Round: [numUnits]int{
			uEdit: 13, uEdit2: 12, uRead: 8, uFormula: 4,
			uSortPair: 2, uFilter: 4, uFindPair: 2, uPivot: 4, uPaste: 4, uRowEditPair: 2,
		},
		fixedRows: editFixed,
		setup:     editDashboard,
		gen:       weatherGen(true),
	},
	{
		// Every value change re-evaluates every cross-sheet formula
		// (Engine.refreshExternals); the planner is absent.
		Name:    "xsheet",
		Dataset: "ledger",
		Rows:    xsRows,
		Profile: engine.OptimizedProfile,
		Round: [numUnits]int{
			uEdit: 29, uEdit2: 5, uRead: 8, uFormula: 5,
			uSortPair: 2, uFilter: 5, uFindPair: 2, uPivot: 5, uPaste: 5, uRowEditPair: 2,
		},
		fixedRows: 1,
		setup:     func(int, uint64) []formulaAt { return nil },
		gen:       ledgerGen,
	},
	{
		// Bulk reorders (grid moves, formula re-adjustment, graph, region
		// and index rebuilds) beside cheap edits; neither the planner nor
		// the cross-sheet refresh does any work.
		Name:    "reorg",
		Dataset: "weather",
		Rows:    reorgRows,
		Profile: engine.OptimizedProfile,
		Round: [numUnits]int{
			uEdit: 40, uFormula: 4,
			uSortPair: 2, uFilter: 12, uFindPair: 3, uPivot: 8, uPaste: 6, uRowEditPair: 2,
		},
		fixedRows: 1,
		setup:     reorgDashboard,
		gen:       weatherGen(false),
	},
}

func workloadByName(name string) (*workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return nil, false
}

// build generates the workload's workbook for a seed.
func (w *workloadDef) build(seed uint64) *sheet.Workbook {
	spec := workload.Spec{Rows: w.Rows, Formulas: true, Seed: seed}
	if w.Dataset == "ledger" {
		return workload.Ledger(spec)
	}
	return workload.Weather(spec)
}

// lastRow is the A1 row number of the last data row.
func (w *workloadDef) lastRow() int { return w.Rows + 1 }

// editDashboard is the edit workload's 8-cell dashboard in S2:S9: counts
// and sums over the edited columns J and B, two aggregates over formula
// columns, and exact lookups on the id column A.
func editDashboard(rows int, seed uint64) []formulaAt {
	last := rows + 1
	rng := rand.New(rand.NewSource(int64(seed)))
	id1 := 2 + rng.Intn(rows) // ids are A1 row numbers: row r holds r+1
	id2 := 2 + rng.Intn(rows)
	texts := []string{
		fmt.Sprintf("=COUNTIF(J2:J%d,1)", last),
		fmt.Sprintf("=SUM(J2:J%d)", last),
		fmt.Sprintf("=MAX(J2:J%d)", last),
		fmt.Sprintf("=COUNTIF(B2:B%d,\"SD\")", last),
		fmt.Sprintf("=AVERAGE(K2:K%d)", last),
		fmt.Sprintf("=SUM(L2:L%d)", last),
		fmt.Sprintf("=MATCH(%d,A2:A%d,0)", id1, last),
		fmt.Sprintf("=VLOOKUP(%d,A2:Q%d,10,FALSE)", id2, last),
	}
	out := make([]formulaAt, len(texts))
	for i, t := range texts {
		out[i] = formulaAt{Sheet: "weather", At: cell.Addr{Row: 1 + i, Col: colS}, Text: t}
	}
	return out
}

// reorgDashboard puts a count and a sum over the edited column J into the
// header row (S1, T1), which sorts and row edits leave in place, so every
// edit has the same dependents.
func reorgDashboard(rows int, _ uint64) []formulaAt {
	last := rows + 1
	return []formulaAt{
		{Sheet: "weather", At: cell.Addr{Row: 0, Col: colS}, Text: fmt.Sprintf("=COUNTIF(J2:J%d,1)", last)},
		{Sheet: "weather", At: cell.Addr{Row: 0, Col: colT}, Text: fmt.Sprintf("=SUM(J2:J%d)", last)},
	}
}

// gen draws one workload's op stream from a seed.
type gen struct {
	w       *workloadDef
	rng     *rand.Rand
	ops     opGen
	scratch int // next scratch cell, round robin
	sorts   int // sort pairs drawn so far
	finds   int // find-replace pairs drawn so far
}

func newGen(w *workloadDef, seed uint64) *gen {
	g := &gen{w: w, rng: rand.New(rand.NewSource(int64(seed)))}
	g.ops = w.gen(g)
	return g
}

// dataRow draws a 0-based sheet row among the movable data rows, leaving
// margin for the 4-row paste blocks and the 2-row edits.
func (g *gen) dataRow() int {
	lo := g.w.fixedRows + 2
	return lo + g.rng.Intn(g.w.Rows-lo-8)
}

func (g *gen) nextScratch() int {
	i := g.scratch
	g.scratch = (g.scratch + 1) % scratchCells
	return i
}

// weatherGen returns the op parameters for a weather workbook. dash selects
// the edit workload's parameters: B edits beside J edits, reads of the
// dashboard, scratch cells in T2:T17 instead of the header row, and one
// sort key.
func weatherGen(dash bool) func(g *gen) opGen {
	return func(g *gen) opGen {
		last := g.w.lastRow()
		anyRow := func() int { return 1 + g.rng.Intn(g.w.Rows) }
		keys := []int{colB, colJ}
		if dash {
			keys = keys[:1]
		}
		return opGen{
			edit: func() edit {
				storm := g.rng.Intn(2)
				return edit{Sheet: "weather", At: cell.Addr{Row: anyRow(), Col: colJ},
					Val: cell.Num(float64(storm)), Alt: cell.Num(float64(1 - storm))}
			},
			edit2: func() edit {
				k := g.rng.Intn(len(workload.States))
				return edit{Sheet: "weather", At: cell.Addr{Row: anyRow(), Col: colB},
					Val: cell.Str(workload.States[k]),
					Alt: cell.Str(workload.States[(k+1)%len(workload.States)])}
			},
			read: func() action {
				return action{Cls: clsRead, Sheet: "weather", At: cell.Addr{Row: 1 + g.rng.Intn(8), Col: colS}}
			},
			formula: func() action {
				col := colJ + g.rng.Intn(colQ-colJ+1)
				at := cell.Addr{Row: 1 + g.nextScratch(), Col: colT}
				if !dash {
					// Header-row scratch cells stay put under sorts. They
					// count formula columns only, so the edits to J keep
					// the same dependents whatever was inserted.
					col = colK + g.rng.Intn(colQ-colK+1)
					at = cell.Addr{Row: 0, Col: colT + 1 + g.nextScratch()}
				}
				text := fmt.Sprintf("=COUNTIF(%s2:%s%d,1)", cell.ColName(col), cell.ColName(col), last)
				return action{Cls: clsFormula, Sheet: "weather", At: at, Text: text}
			},
			sortKeys: keys,
			filter: func() action {
				st := workload.States[g.rng.Intn(len(workload.States))]
				return action{Cls: clsFilter, Sheet: "weather", Col: colB, Val: cell.Str(st), Rows: g.w.fixedRows}
			},
			find: func() (string, string) {
				// Keywords in turn: a replacement's cost depends on the
				// keyword (on how many formulas count its column), so
				// every run replaces the same keywords.
				kw := workload.Keywords[g.finds%len(workload.Keywords)]
				g.finds++
				return kw, kw + "X"
			},
			pivot: func() action {
				return action{Cls: clsPivot, Sheet: "weather", Col: colB, Col2: colJ, Rows: 1}
			},
			paste: func() action {
				r := g.dataRow()
				return action{
					Cls: clsPaste, Sheet: "weather",
					Src: cell.RangeOf(cell.Addr{Row: r, Col: colJ}, cell.Addr{Row: r + 3, Col: colQ}),
					At:  cell.Addr{Row: g.dataRow(), Col: colJ},
				}
			},
		}
	}
}

// ledgerGen returns the op parameters for the ledger workbook: edits to
// ledger amounts and account budgets, reads of the summary totals, and
// SUMIF inserts into a summary scratch column.
func ledgerGen(g *gen) opGen {
	last := g.w.lastRow()
	nAcc := len(workload.LedgerAccounts)
	nCat := len(workload.LedgerCategories)
	return opGen{
		edit: func() edit {
			k := g.rng.Intn(500)
			return edit{Sheet: "ledger",
				At:  cell.Addr{Row: 1 + g.rng.Intn(g.w.Rows), Col: workload.LedgerColAmount},
				Val: cell.Num(float64(1 + k)),
				Alt: cell.Num(float64(1 + (k+1)%500))}
		},
		edit2: func() edit {
			k := g.rng.Intn(30)
			return edit{Sheet: "accounts",
				At:  cell.Addr{Row: 1 + g.rng.Intn(nAcc), Col: 2},
				Val: cell.Num(float64(100 * (1 + k))),
				Alt: cell.Num(float64(100 * (1 + (k+1)%30)))}
		},
		read: func() action {
			return action{Cls: clsRead, Sheet: "summary",
				At: cell.Addr{Row: 1 + g.rng.Intn(nCat+1), Col: 1 + g.rng.Intn(2)}}
		},
		formula: func() action {
			cat := workload.LedgerCategories[g.rng.Intn(nCat)]
			text := fmt.Sprintf("=SUMIF(ledger!C2:C%d,%q,ledger!D2:D%d)", last, cat, last)
			return action{Cls: clsFormula, Sheet: "summary",
				At: cell.Addr{Row: 1 + g.nextScratch(), Col: 4}, Text: text}
		},
		sortKeys: []int{workload.LedgerColCategory},
		filter: func() action {
			cat := workload.LedgerCategories[g.rng.Intn(nCat)]
			return action{Cls: clsFilter, Sheet: "ledger", Col: workload.LedgerColCategory, Val: cell.Str(cat), Rows: 1}
		},
		find: func() (string, string) {
			// "misc" is the only category that is not also an account
			// name, so the toggle touches the category column alone.
			return "misc", "miscX"
		},
		pivot: func() action {
			return action{Cls: clsPivot, Sheet: "ledger", Col: workload.LedgerColCategory, Col2: workload.LedgerColAmount, Rows: 1}
		},
		paste: func() action {
			r := g.dataRow()
			return action{
				Cls: clsPaste, Sheet: "ledger",
				Src: cell.RangeOf(cell.Addr{Row: r, Col: workload.LedgerColAmount},
					cell.Addr{Row: r + 3, Col: workload.LedgerColShare}),
				At: cell.Addr{Row: g.dataRow(), Col: workload.LedgerColAmount},
			}
		},
	}
}

// settle attaches a probe edit to a settled action.
func (g *gen) settle(a action) action {
	a.Settle = g.ops.edit()
	return a
}

// unitActions draws the actions of one unit.
func (g *gen) unitActions(u unit) []action {
	main := g.w.mainSheet()
	switch u {
	case uEdit, uEdit2:
		e := g.ops.edit()
		if u == uEdit2 {
			e = g.ops.edit2()
		}
		return []action{{Cls: clsEdit, Sheet: e.Sheet, At: e.At, Val: e.Val, Alt: e.Alt}}
	case uRead:
		return []action{g.ops.read()}
	case uFormula:
		return []action{g.settle(g.ops.formula())}
	case uSortPair:
		key := g.ops.sortKeys[g.sorts%len(g.ops.sortKeys)]
		g.sorts++
		return []action{
			g.settle(action{Cls: clsSort, Sheet: main, Col: key, Rows: g.w.fixedRows}),
			g.settle(action{Cls: clsSort, Sheet: main, Col: colA, Rows: g.w.fixedRows}),
		}
	case uFilter:
		return []action{g.settle(g.ops.filter())}
	case uFindPair:
		from, to := g.ops.find()
		return []action{
			g.settle(action{Cls: clsFind, Sheet: main, Text: from, Repl: to}),
			g.settle(action{Cls: clsFind, Sheet: main, Text: to, Repl: from}),
		}
	case uPivot:
		return []action{g.settle(g.ops.pivot())}
	case uPaste:
		return []action{g.settle(g.ops.paste())}
	case uRowEditPair:
		r := g.dataRow()
		return []action{
			g.settle(action{Cls: clsRowEdit, Sheet: main, At: cell.Addr{Row: r}, Rows: 2}),
			g.settle(action{Cls: clsRowEdit, Sheet: main, At: cell.Addr{Row: r}, Rows: -2}),
		}
	}
	panic(fmt.Sprintf("unknown unit %d", u))
}

func (w *workloadDef) mainSheet() string {
	if w.Dataset == "ledger" {
		return "ledger"
	}
	return "weather"
}

// round draws one round: every unit of the mix, in the workload's fixed
// order (see order), with seeded parameters.
func (g *gen) round() []action {
	var out []action
	for _, u := range g.w.order() {
		out = append(out, g.unitActions(u)...)
	}
	return out
}

// order spreads one round's units evenly over the round by smooth weighted
// round robin: each slot goes to the unit furthest behind its share. The
// order is the same in every round and for every seed, so every run puts
// each action after the same neighbours; an action whose cost depends on
// what ran before it (a paste after a paste, a formula insert after a sort)
// then has the same cost mix in every run. The seed draws the parameters.
func (w *workloadDef) order() []unit {
	total := 0
	for _, n := range w.Round {
		total += n
	}
	var credit [numUnits]int
	out := make([]unit, 0, total)
	for len(out) < total {
		best := unit(-1)
		for u := unit(0); u < numUnits; u++ {
			if w.Round[u] == 0 {
				continue
			}
			credit[u] += w.Round[u]
			if best < 0 || credit[u] > credit[best] {
				best = u
			}
		}
		credit[best] -= total
		out = append(out, best)
	}
	return out
}

// tour draws one unit of every kind the mix holds, in mix order: the
// warm-up slice of set-up, so that lazily built structures and the first
// row edit's formula re-anchoring are paid before the timed stream.
func (g *gen) tour() []action {
	var out []action
	for u := unit(0); u < numUnits; u++ {
		if g.w.Round[u] > 0 {
			out = append(out, g.unitActions(u)...)
		}
	}
	return out
}
