// Derived-state coherence under generated and delete-heavy op streams: the
// tests live in an external package because they drive the engines through
// internal/fuzzdiff, which itself imports the engine.
package engine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cell"
	"repro/internal/engine"
	"repro/internal/fuzzdiff"
	"repro/internal/sheet"
	"repro/internal/tracelang"
	"repro/internal/workload"
)

// oracleProfiles are the profiles that keep derived optimization state,
// run beside excel so the states are also compared with each other.
var oracleProfiles = []string{"excel", "optimized", "planned"}

// checkDerivedAfterOp runs the derived-state oracle on the optimized and
// planned engines after every op, failing the test at the first
// incoherence.
func checkDerivedAfterOp(t *testing.T) func(string, *engine.Engine, *sheet.Sheet, tracelang.Op) {
	n := 0
	return func(profile string, eng *engine.Engine, _ *sheet.Sheet, op tracelang.Op) {
		if profile == oracleProfiles[0] {
			n++
			return
		}
		if err := engine.CheckDerived(eng); err != nil {
			t.Fatalf("%s after op %d (%s): %v", profile, n, op, err)
		}
	}
}

// TestDerivedStateCoherent: after every op of a generated stream, on every
// workload, each live derived artifact of the optimized and planned
// engines equals its from-scratch rebuild.
func TestDerivedStateCoherent(t *testing.T) {
	for _, wl := range workload.Names() {
		t.Run(wl, func(t *testing.T) {
			cfg := fuzzdiff.Config{Workload: wl, Rows: 24, Seed: 0xD5, Profiles: oracleProfiles}
			cfg.AfterOp = checkDerivedAfterOp(t)
			if f := fuzzdiff.Run(cfg, fuzzdiff.Generate(cfg, 60)); f != nil {
				t.Fatalf("%v\nrepro script:\n%s", f, f.Script())
			}
		})
	}
}

// TestDerivedStateCoherentDeleteHeavy aims clears, non-numeric overwrites
// and row deletes at the key columns that COUNTIF (hash and B+-tree),
// exact lookups (hash index and sortedness facts) and aggregates (prefix
// sums, materialized aggregates) read, with find-replace keeping the
// inverted index live.
func TestDerivedStateCoherentDeleteHeavy(t *testing.T) {
	for _, wl := range workload.Names() {
		t.Run(wl, func(t *testing.T) {
			cfg := fuzzdiff.Config{Workload: wl, Rows: 30, Seed: 0xDE1, Profiles: oracleProfiles}
			cfg.AfterOp = checkDerivedAfterOp(t)
			ops := deleteHeavyOps(t, cfg, 80)
			if f := fuzzdiff.Run(cfg, ops); f != nil {
				t.Fatalf("%v\nrepro script:\n%s", f, f.Script())
			}
		})
	}
}

// deleteHeavyOps builds the delete-heavy stream over the main sheet of the
// configured workload. It opens with a formula that leaves its cell's
// value unchanged (a formula-set change no cell change accompanies, while
// the install-time value certificate is still valid), then plants
// index-served formulas over one numeric and one text key column. The
// remaining ops mostly clear, overwrite with text, or delete rows inside
// those columns; row deletes wait for the first third of the stream, since
// a row move drops the typed-column facts the earlier writes test, and
// some clears land on the planted formulas' own cells.
func deleteHeavyOps(t *testing.T, cfg fuzzdiff.Config, n int) []tracelang.Op {
	t.Helper()
	gen, _ := workload.ByName(cfg.Workload)
	s := gen.Build(workload.Spec{Rows: cfg.Rows, Formulas: true, Seed: cfg.Seed}).First()
	var numCols []int
	txtCol := -1
	var token string
	for c := 0; c < s.Cols(); c++ {
		a := cell.Addr{Row: 1, Col: c}
		if _, isF := s.Formula(a); isF {
			continue
		}
		switch v := s.Value(a); {
		case v.Kind == cell.Number:
			numCols = append(numCols, c)
		case v.Kind == cell.Text && txtCol < 0:
			txtCol, token = c, v.Str
		}
	}
	if len(numCols) < 2 || txtCol < 0 {
		t.Fatalf("%s: want two numeric and one text key column on %s", cfg.Workload, s.Name)
	}
	numCol := numCols[0]
	rows := s.Rows()
	colRange := func(col int) string {
		return fmt.Sprintf("%s:%s", cell.Addr{Row: 1, Col: col}.A1(), cell.Addr{Row: rows - 1, Col: col}.A1())
	}
	key := s.Value(cell.Addr{Row: 3, Col: numCol}).Num
	same := cell.Addr{Row: 2, Col: numCols[1]}
	scratch := s.Cols() + 1
	at := func(r int) cell.Addr { return cell.Addr{Row: r, Col: scratch} }
	planted := func(i int) string {
		return [...]string{
			fmt.Sprintf("=COUNTIF(%s,%v)", colRange(numCol), key),
			fmt.Sprintf("=COUNTIF(%s,\">%v\")", colRange(numCol), key),
			fmt.Sprintf("=COUNTIF(%s,\"%s\")", colRange(txtCol), token),
			fmt.Sprintf("=MATCH(%v,%s,0)", key, colRange(numCol)),
			fmt.Sprintf("=SUM(%s)", colRange(numCol)),
			fmt.Sprintf("=COUNT(%s)", colRange(numCol)),
			fmt.Sprintf("=AVERAGE(%s)", colRange(numCol)),
		}[i]
	}
	ops := []tracelang.Op{tracelang.FormulaOp{At: same, Text: fmt.Sprintf("=%v", s.Value(same).Num)}}
	for i := 0; i < 7; i++ {
		ops = append(ops, tracelang.FormulaOp{At: at(i), Text: planted(i)})
	}
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	for len(ops) < n {
		col := numCol
		if rng.Intn(3) == 0 {
			col = txtCol
		}
		a := cell.Addr{Row: 1 + rng.Intn(rows-1), Col: col}
		switch w := rng.Intn(10); {
		case w < 3:
			ops = append(ops, tracelang.ClearOp{At: a})
		case w < 5:
			ops = append(ops, tracelang.SetOp{At: a, Raw: token})
		case w < 6:
			ops = append(ops, tracelang.ClearOp{At: at(rng.Intn(7))})
		case w < 8:
			if len(ops) < n/3 || rows < 12 {
				continue
			}
			ops = append(ops, tracelang.RowDelOp{At: 2 + rng.Intn(rows-3), N: 1})
			rows--
		case w < 9:
			ops = append(ops, tracelang.FindOp{Find: token, Replace: token + "x"})
		default:
			i := rng.Intn(7)
			ops = append(ops, tracelang.FormulaOp{At: at(i), Text: planted(i)})
		}
	}
	return ops
}
