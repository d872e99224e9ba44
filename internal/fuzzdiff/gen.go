package fuzzdiff

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/cell"
	"repro/internal/tracelang"
	"repro/internal/workload"
)

// sheetShape is a snapshot of one workload sheet taken from a probe build:
// enough structure to aim operations at plausible targets without ever
// touching the engines under test.
type sheetShape struct {
	name    string
	rows    int // tracked live: rowins/rowdel ops update it
	cols    int
	numCols []int            // columns whose first data row is numeric
	txtCols []int            // columns whose first data row is text
	pool    map[int][]string // text column -> distinct single-token values
}

// Generate produces a deterministic pseudo-random op sequence of length n
// for the configured workload and seed. Sequences are replayable: the same
// (workload, seed, n) always yields the same ops, every generated string is
// a single token free of ';' so tracelang.Format(ops) re-parses, and no op
// uses a volatile function (RAND/NOW would legitimately differ between
// engines evaluated at different times).
func Generate(cfg Config, n int) []tracelang.Op {
	gen, ok := workload.ByName(cfg.Workload)
	if !ok {
		return nil
	}
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	shapes := snapshot(gen, cfg)
	main := shapes[0]
	active := main

	ops := make([]tracelang.Op, 0, n)
	for len(ops) < n {
		var op tracelang.Op
		switch w := rng.Intn(100); {
		case w < 25: // set a literal
			at := cell.Addr{Row: 1 + rng.Intn(maxInt(active.rows-1, 1)), Col: rng.Intn(active.cols)}
			raw := fmt.Sprintf("%d", rng.Intn(10_000))
			if rng.Intn(3) == 0 {
				if s := active.token(rng); s != "" {
					raw = s
				}
			}
			op = tracelang.SetOp{At: at, Raw: raw}
		case w < 40: // insert a formula, mostly in a scratch column
			text := active.formulaText(rng, main, shapes)
			if text == "" {
				continue
			}
			at := cell.Addr{Row: rng.Intn(maxInt(active.rows, 1)), Col: active.cols + 1 + rng.Intn(2)}
			if active == main && len(shapes) > 1 && len(main.numCols) > 0 && rng.Intn(6) == 0 {
				// A formula over a data cell that other sheets' readers of
				// main read. It has no precedents: one reading its own
				// column would close a local reference cycle, which is not
				// what this op aims at.
				at = cell.Addr{Row: 1 + rng.Intn(maxInt(main.rows-1, 1)), Col: main.numCols[rng.Intn(len(main.numCols))]}
				text = fmt.Sprintf("=%d*2", rng.Intn(1000))
			}
			op = tracelang.FormulaOp{At: at, Text: text}
		case w < 50: // sort by a data column
			op = tracelang.SortOp{Col: rng.Intn(active.cols), Asc: rng.Intn(2) == 0}
		case w < 58: // filter on a text column value
			col, val := active.filterTarget(rng)
			if val == "" {
				continue
			}
			op = tracelang.FilterOp{Col: col, Value: val}
		case w < 62:
			op = tracelang.FilterOffOp{}
		case w < 70: // find-and-replace across the active sheet
			from := active.token(rng)
			if from == "" {
				continue
			}
			op = tracelang.FindOp{Find: from, Replace: from + "x"}
		case w < 78: // copy-paste a small block
			if active.rows < 4 || active.cols < 2 {
				continue
			}
			h, wd := 1+rng.Intn(3), 1+rng.Intn(2)
			sr := 1 + rng.Intn(active.rows-1)
			sc := rng.Intn(active.cols - wd + 1)
			src := cell.Range{
				Start: cell.Addr{Row: sr, Col: sc},
				End:   cell.Addr{Row: minInt(sr+h-1, active.rows-1), Col: sc + wd - 1},
			}
			dst := cell.Addr{Row: 1 + rng.Intn(active.rows+4), Col: rng.Intn(active.cols)}
			op = tracelang.PasteOp{Src: src, Dst: dst}
		case w < 84: // insert rows
			nIns := 1 + rng.Intn(3)
			op = tracelang.RowInsOp{At: 2 + rng.Intn(active.rows), N: nIns}
			active.rows += nIns
		case w < 90: // delete rows (keep the sheet from collapsing)
			if active.rows < 12 {
				continue
			}
			nDel := 1 + rng.Intn(2)
			at := 2 + rng.Intn(active.rows-nDel-1)
			op = tracelang.RowDelOp{At: at, N: nDel}
			active.rows -= nDel
		case w < 96: // switch the active sheet
			next := shapes[rng.Intn(len(shapes))]
			if next == active {
				continue
			}
			active = next
			op = tracelang.SheetOp{Name: next.name}
		case w < 98: // pivot the main sheet
			if active != main {
				continue
			}
			col, _ := active.filterTarget(rng)
			if len(active.numCols) == 0 {
				continue
			}
			op = tracelang.PivotOp{Dim: col, Measure: active.numCols[rng.Intn(len(active.numCols))]}
		default:
			op = tracelang.RecalcOp{}
		}
		ops = append(ops, op)
	}
	return ops
}

// snapshot builds the workload once (baseline layout) and records each
// sheet's dimensions, column typing, and text-value pools.
func snapshot(gen workload.Generator, cfg Config) []*sheetShape {
	wb := gen.Build(workload.Spec{Rows: cfg.Rows, Formulas: true, Seed: cfg.Seed})
	shapes := make([]*sheetShape, 0, len(wb.Sheets()))
	for _, s := range wb.Sheets() {
		sh := &sheetShape{name: s.Name, rows: s.Rows(), cols: s.Cols(), pool: map[int][]string{}}
		for c := 0; c < s.Cols(); c++ {
			switch v := s.Value(cell.Addr{Row: 1, Col: c}); v.Kind {
			case cell.Number:
				sh.numCols = append(sh.numCols, c)
			case cell.Text:
				sh.txtCols = append(sh.txtCols, c)
				seen := map[string]bool{}
				for r := 1; r < minInt(s.Rows(), 24); r++ {
					t := s.Value(cell.Addr{Row: r, Col: c}).AsString()
					if t == "" || seen[t] || strings.ContainsAny(t, "; \t") {
						continue
					}
					seen[t] = true
					sh.pool[c] = append(sh.pool[c], t)
				}
			}
		}
		shapes = append(shapes, sh)
	}
	return shapes
}

// token returns a random harvested text value from any text column.
func (sh *sheetShape) token(rng *rand.Rand) string {
	if len(sh.txtCols) == 0 {
		return ""
	}
	vals := sh.pool[sh.txtCols[rng.Intn(len(sh.txtCols))]]
	if len(vals) == 0 {
		return ""
	}
	return vals[rng.Intn(len(vals))]
}

// filterTarget picks a text column and one of its values.
func (sh *sheetShape) filterTarget(rng *rand.Rand) (int, string) {
	if len(sh.txtCols) == 0 {
		return 0, ""
	}
	col := sh.txtCols[rng.Intn(len(sh.txtCols))]
	vals := sh.pool[col]
	if len(vals) == 0 {
		return col, ""
	}
	return col, vals[rng.Intn(len(vals))]
}

// formulaText picks a non-volatile formula template over the sheet's numeric
// data columns, or a cross-sheet one: off the main sheet, an aggregate over
// the main sheet; on the main sheet, an aggregate over another sheet (with
// the first kind, a two-way chain); anywhere, a reader of another sheet's
// scratch columns, where inserted formulas — cross-sheet readers among
// them — live (a two-hop chain).
func (sh *sheetShape) formulaText(rng *rand.Rand, main *sheetShape, shapes []*sheetShape) string {
	if sh != main && len(main.numCols) > 0 && rng.Intn(3) == 0 {
		col := cell.ColName(main.numCols[rng.Intn(len(main.numCols))])
		return fmt.Sprintf("=SUM(%s!%s2:%s%d)", main.name, col, col, main.rows)
	}
	if len(shapes) > 1 {
		other := shapes[rng.Intn(len(shapes))]
		switch k := rng.Intn(8); {
		case other == sh:
		case k == 0 && sh == main && len(other.numCols) > 0:
			col := cell.ColName(other.numCols[rng.Intn(len(other.numCols))])
			return fmt.Sprintf("=SUM(%s!%s2:%s%d)", other.name, col, col, maxInt(other.rows, 2))
		case k == 1:
			col := cell.ColName(other.cols + 1 + rng.Intn(2))
			return fmt.Sprintf("=%s!%s%d+1", other.name, col, 1+rng.Intn(maxInt(other.rows, 1)))
		}
	}
	if len(sh.numCols) == 0 {
		return ""
	}
	col := cell.ColName(sh.numCols[rng.Intn(len(sh.numCols))])
	last := maxInt(sh.rows, 2)
	switch rng.Intn(5) {
	case 0:
		return fmt.Sprintf("=SUM(%s2:%s%d)", col, col, last)
	case 1:
		return fmt.Sprintf("=MAX(%s2:%s%d)", col, col, last)
	case 2:
		return fmt.Sprintf("=AVERAGE(%s2:%s%d)", col, col, last)
	case 3:
		return fmt.Sprintf("=COUNTIF(%s2:%s%d,%d)", col, col, last, rng.Intn(100))
	default:
		return fmt.Sprintf("=%s2*2+1", col)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
