package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cell"
	"repro/internal/costmodel"
	"repro/internal/obs"
	"repro/internal/sheet"
	"repro/internal/workload"
)

// xsheetStream drives the same deterministic op stream through several
// engines, one per profile, each on its own build of a registry workload.
type xsheetStream struct {
	t     *testing.T
	names []string
	engs  []*Engine
	rng   *rand.Rand
	main  string
}

func newXsheetStream(t *testing.T, wl string, rows int, profiles ...string) *xsheetStream {
	t.Helper()
	gen, ok := workload.ByName(wl)
	if !ok {
		t.Fatalf("unknown workload %q", wl)
	}
	x := &xsheetStream{t: t, names: profiles, rng: rand.New(rand.NewSource(int64(rows)))}
	for _, p := range profiles {
		prof := Profiles()[p]
		wb := gen.Build(workload.Spec{Rows: rows, Formulas: true, Seed: 3, Columnar: prof.Opt.ColumnarLayout})
		e := New(prof)
		if err := e.Install(wb); err != nil {
			t.Fatal(err)
		}
		x.engs = append(x.engs, e)
		x.main = wb.First().Name
	}
	return x
}

// do applies one op to every engine, then checks that each engine's
// workbook matches the first's cell for cell and that its derived state
// (the reader index included) matches a from-scratch rebuild.
func (x *xsheetStream) do(desc string, op func(e *Engine, wb *sheet.Workbook) error) {
	x.t.Helper()
	for i, e := range x.engs {
		if err := op(e, e.Workbook()); err != nil {
			x.t.Fatalf("%s on %s: %v", desc, x.names[i], err)
		}
	}
	ref := x.engs[0].Workbook()
	for i, e := range x.engs[1:] {
		wb := e.Workbook()
		if wb.Len() != ref.Len() {
			x.t.Fatalf("after %s: %s has %d sheets, %s %d", desc, x.names[i+1], wb.Len(), x.names[0], ref.Len())
		}
		for _, rs := range ref.Sheets() {
			s := wb.Sheet(rs.Name)
			if s == nil || s.Rows() != rs.Rows() || s.Cols() != rs.Cols() {
				x.t.Fatalf("after %s: %s's sheet %s has another shape", desc, x.names[i+1], rs.Name)
			}
			for r := 0; r < rs.Rows(); r++ {
				for c := 0; c < rs.Cols(); c++ {
					a := cell.Addr{Row: r, Col: c}
					if got, want := s.Value(a), rs.Value(a); got != want {
						x.t.Fatalf("after %s: %s!%s = %v on %s, %v on %s",
							desc, rs.Name, a.A1(), got, x.names[i+1], want, x.names[0])
					}
				}
			}
		}
		if err := checkDerived(e); err != nil {
			x.t.Fatalf("after %s: %s: %v", desc, x.names[i+1], err)
		}
	}
}

// sheetAt picks one of the workload's sheets (pivot outputs excluded).
func (x *xsheetStream) sheetAt(wb *sheet.Workbook, i int) *sheet.Sheet {
	return wb.Sheets()[i]
}

// TestCrossSheetSettleMatchesRefresh holds the fast profiles' cross-sheet
// settle to excel's refresh by rounds on every registry workload: edits on
// every sheet, cross-sheet formula inserts (a reader of a reader among
// them), sorts and row edits on foreign sheets, pastes, find-replace, full
// recalculation, and a reader of a pivot sheet inserted before the pivot
// that creates it. Every cell and the derived state are checked after
// every op.
func TestCrossSheetSettleMatchesRefresh(t *testing.T) {
	for _, wl := range workload.Names() {
		t.Run(wl, func(t *testing.T) {
			t.Parallel()
			x := newXsheetStream(t, wl, 30, "excel", "optimized", "planned")
			nSheets := x.engs[0].Workbook().Len()
			main := x.main
			// Inserted readers read only sheets ranked below their host, so a
			// workbook without a sheet-level cycle keeps none (inventory has
			// one from the start and settles by rounds throughout).
			rank := make(map[string]int)
			if hosts, why := x.engs[1].readerOrder(); why == "" {
				for i, h := range hosts {
					rank[h.Name] = i + 1
				}
			}
			scratch := 0 // inserted readers so far
			x.do("insert a reader of the pivot sheet to come", func(e *Engine, wb *sheet.Workbook) error {
				_, _, err := e.InsertFormula(wb.Sheet(main), cell.Addr{Row: 1, Col: wb.Sheet(main).Cols() + 3}, "=SUM(Pivot!B2:B9)")
				return err
			})
			for i := 0; i < 90; i++ {
				si := x.rng.Intn(nSheets)
				other := (si + 1 + x.rng.Intn(max(nSheets-1, 1))) % nSheets
				rows := x.engs[0].Workbook().Sheets()[si].Rows()
				cols := x.engs[0].Workbook().Sheets()[si].Cols()
				r, c := 1+x.rng.Intn(max(rows-1, 1)), x.rng.Intn(cols)
				k := x.rng.Intn(100)
				v := cell.Num(float64(x.rng.Intn(900)))
				switch {
				case k < 35:
					x.do(fmt.Sprintf("edit %d at sheet %d %d,%d", int(v.Num), si, r, c), func(e *Engine, wb *sheet.Workbook) error {
						_, err := e.SetCell(x.sheetAt(wb, si), cell.Addr{Row: r, Col: c}, v)
						return err
					})
				case k < 50:
					// A cross-sheet reader of another sheet's data, or of a
					// reader inserted there before (a two-hop chain).
					wb0 := x.engs[0].Workbook()
					if other == si || rank[x.sheetAt(wb0, other).Name] >= rank[x.sheetAt(wb0, si).Name] {
						si, other = other, si
					}
					if other == si || rank[x.sheetAt(wb0, other).Name] >= rank[x.sheetAt(wb0, si).Name] {
						continue // a single sheet, or two unranked ones
					}
					name := x.sheetAt(wb0, other).Name
					cols := x.sheetAt(wb0, si).Cols()
					col := cell.ColName(x.rng.Intn(x.sheetAt(wb0, other).Cols()))
					text := fmt.Sprintf("=SUM(%s!%s2:%s%d)+1", name, col, col, 2+x.rng.Intn(12))
					if x.rng.Intn(3) == 0 {
						text = fmt.Sprintf("=%s!%s%d*2", name, cell.ColName(x.sheetAt(wb0, other).Cols()-1), 1+x.rng.Intn(20))
					}
					scratch++
					at := cell.Addr{Row: scratch % 20, Col: cols}
					x.do(fmt.Sprintf("insert %s at sheet %d %s", text, si, at.A1()), func(e *Engine, wb *sheet.Workbook) error {
						_, _, err := e.InsertFormula(x.sheetAt(wb, si), at, text)
						return err
					})
				case k < 60:
					asc := x.rng.Intn(2) == 0
					x.do(fmt.Sprintf("sort sheet %d by %d", si, c), func(e *Engine, wb *sheet.Workbook) error {
						_, err := e.Sort(x.sheetAt(wb, si), c, asc, 1)
						return err
					})
				case k < 70:
					n := 1 + x.rng.Intn(2)
					ins := x.rng.Intn(2) == 0 || rows < 8
					x.do(fmt.Sprintf("row edit %t sheet %d at %d", ins, si, r), func(e *Engine, wb *sheet.Workbook) error {
						s := x.sheetAt(wb, si)
						if ins {
							_, err := e.InsertRows(s, max(r, 1), n)
							return err
						}
						_, err := e.DeleteRows(s, max(min(r, s.Rows()-n-1), 1), n)
						return err
					})
				case k < 78:
					src := cell.RangeOf(cell.Addr{Row: r, Col: c}, cell.Addr{Row: min(r+2, rows-1), Col: c})
					dst := cell.Addr{Row: 1 + x.rng.Intn(max(rows-1, 1)), Col: x.rng.Intn(cols)}
					x.do(fmt.Sprintf("paste sheet %d %s to %s", si, src, dst.A1()), func(e *Engine, wb *sheet.Workbook) error {
						_, _, err := e.CopyPaste(x.sheetAt(wb, si), src, dst)
						return err
					})
				case k < 84:
					s0 := x.sheetAt(x.engs[0].Workbook(), si)
					tok := s0.Value(cell.Addr{Row: r, Col: c})
					if tok.Kind != cell.Text || tok.Str == "" {
						continue
					}
					x.do(fmt.Sprintf("find %q on sheet %d", tok.Str, si), func(e *Engine, wb *sheet.Workbook) error {
						_, _, err := e.FindReplace(x.sheetAt(wb, si), tok.Str, tok.Str+"x")
						return err
					})
				case k < 90:
					x.do(fmt.Sprintf("recalculate sheet %d", si), func(e *Engine, wb *sheet.Workbook) error {
						_, err := e.Recalculate(x.sheetAt(wb, si))
						return err
					})
				case k < 95:
					x.do("pivot the main sheet", func(e *Engine, wb *sheet.Workbook) error {
						s := wb.Sheet(main)
						_, _, err := e.PivotTable(s, 1, s.Cols()-1, 1)
						return err
					})
				default:
					x.do(fmt.Sprintf("insert a column in sheet %d", si), func(e *Engine, wb *sheet.Workbook) error {
						_, err := e.InsertCols(x.sheetAt(wb, si), cols, 1)
						return err
					})
				}
			}
			if x.engs[0].Workbook().Sheet("Pivot") == nil {
				t.Fatal("the stream never created the pivot sheet its first reader reads")
			}
		})
	}
}

// TestLedgerAmountEditSkipsLookups is the settle's complexity gate: on a
// 2,000-row ledger, one ledger!D edit on optimized re-evaluates the
// summary's readers of column D and their local dependents, not the
// ledger's VLOOKUPs into accounts, which a refresh by rounds re-evaluates
// every time.
func TestLedgerAmountEditSkipsLookups(t *testing.T) {
	const rows = 2000
	e := New(OptimizedProfile())
	wb := workload.Ledger(workload.Spec{Rows: rows, Formulas: true})
	if err := e.Install(wb); err != nil {
		t.Fatal(err)
	}
	led := wb.Sheet("ledger")
	at := cell.Addr{Row: 700, Col: workload.LedgerColAmount}
	res, err := e.SetCell(led, at, cell.Num(led.Value(at).Num+1))
	if err != nil {
		t.Fatal(err)
	}
	// Readers of D: the summary's five SUMIFs. Local dependents: the
	// summary's total over them and the edited row's share on the ledger.
	readers, dependents := int64(len(workload.LedgerCategories)), int64(2)
	if got := res.Work.Count(costmodel.FormulaEval); got > readers+dependents {
		t.Fatalf("a ledger amount edit evaluated %d formulas, want at most %d (its readers and their dependents)",
			got, readers+dependents)
	}
}

// TestSettleSource: the settle reports how it ran. Ledger's sheets read one
// another without a cycle, so its edits settle through the reader index;
// inventory's two sheets read each other, so its edits keep the refresh
// by rounds, as do the naive profiles and a workbook a sheet left behind
// the engine's back.
func TestSettleSource(t *testing.T) {
	withEngineTracing(t)
	for _, c := range []struct {
		profile, workload, source, reason string
		removed                           bool // a sheet left behind the engine's back
	}{
		{"optimized", "ledger", "readers", "", false},
		{"planned", "ledger", "readers", "", false},
		{"optimized", "inventory", "rounds", "cycle", false},
		{"excel", "ledger", "rounds", "profile", false},
		{"optimized", "ledger", "rounds", "sheets", true},
	} {
		gen, _ := workload.ByName(c.workload)
		wb := gen.Build(workload.Spec{Rows: 40, Formulas: true})
		e := New(Profiles()[c.profile])
		if err := e.Install(wb); err != nil {
			t.Fatal(err)
		}
		if c.removed {
			p, _, err := e.PivotTable(wb.First(), 1, 3, 1)
			if err != nil {
				t.Fatal(err)
			}
			wb.Remove(p.Name)
		}
		obs.Take()
		if _, err := e.SetCell(wb.First(), cell.Addr{Row: 3, Col: 2}, cell.Num(7)); err != nil {
			t.Fatal(err)
		}
		var source, reason string
		var readers int64 = -1
		obs.Take().Walk(func(sp *obs.TraceSpan, _ int) {
			if sp.Name == "engine.refresh_externals" {
				source, _ = sp.StrAttr("source")
				reason, _ = sp.StrAttr("reason")
				if n, ok := sp.IntAttr("readers"); ok {
					readers = n
				}
			}
		})
		if source != c.source || reason != c.reason {
			t.Errorf("%s/%s: settle source=%q reason=%q, want %q %q", c.profile, c.workload, source, reason, c.source, c.reason)
		}
		if c.source == "readers" && readers < 0 {
			t.Errorf("%s/%s: the settle span carries no reader count", c.profile, c.workload)
		}
	}
}
