package engine

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/cell"
	"repro/internal/quickseed"
	"repro/internal/sheet"
	"repro/internal/workload"
)

// TestProfilesComputeIdenticalValues is the cross-system correctness
// property: the four profiles differ in POLICIES and COST, never in
// results. A randomized operation sequence must leave all four engines'
// sheets in identical displayed states.
func TestProfilesComputeIdenticalValues(t *testing.T) {
	type op struct {
		Kind uint8
		A    uint8
		B    uint8
		Val  uint8
	}
	systems := []string{"excel", "calc", "sheets", "optimized"}

	run := func(ops []op) bool {
		const rows = 60
		engines := make([]*Engine, len(systems))
		sheets := make([]*sheet.Sheet, len(systems))
		for i, sys := range systems {
			prof := Profiles()[sys]
			eng := New(prof)
			wb := workload.Weather(workload.Spec{Rows: rows, Formulas: true, Columnar: prof.Opt.ColumnarLayout})
			if err := eng.Install(wb); err != nil {
				t.Fatal(err)
			}
			engines[i] = eng
			sheets[i] = wb.First()
		}

		apply := func(i int, o op) error {
			eng, s := engines[i], sheets[i]
			switch o.Kind % 6 {
			case 0: // edit a storm cell
				at := cell.Addr{Row: 1 + int(o.A)%rows, Col: workload.ColStorm}
				_, err := eng.SetCell(s, at, cell.Num(float64(o.Val%2)))
				return err
			case 1: // insert an aggregate
				text := fmt.Sprintf(`=COUNTIF(J2:J%d,"1")`, rows+1)
				_, _, err := eng.InsertFormula(s, cell.Addr{Row: 1 + int(o.A)%8, Col: workload.NumCols}, text)
				return err
			case 2: // insert a lookup
				key := 2 + int(o.Val)%rows
				text := fmt.Sprintf("=VLOOKUP(%d,A2:Q%d,2,FALSE)", key, rows+1)
				_, _, err := eng.InsertFormula(s, cell.Addr{Row: 9 + int(o.A)%8, Col: workload.NumCols}, text)
				return err
			case 3: // sort by a column
				col := []int{workload.ColID, workload.ColState}[int(o.A)%2]
				_, err := eng.Sort(s, col, o.Val%2 == 0, 1)
				return err
			case 4: // find and replace
				kw := workload.Keywords[int(o.A)%workload.NumEvents]
				_, _, err := eng.FindReplace(s, kw, "X"+kw)
				return err
			case 5: // edit an event cell (feeds embedded COUNTIFs)
				at := cell.Addr{Row: 1 + int(o.A)%rows, Col: workload.ColEvent0}
				_, err := eng.SetCell(s, at, cell.Str("STORM"))
				return err
			}
			return nil
		}

		for _, o := range ops {
			for i := range engines {
				if err := apply(i, o); err != nil {
					t.Fatalf("system %s: %v", systems[i], err)
				}
			}
		}
		// Compare every cell of every sheet against the first system.
		ref := sheets[0]
		for i := 1; i < len(sheets); i++ {
			got := sheets[i]
			if got.Rows() != ref.Rows() {
				t.Fatalf("%s rows %d != %d", systems[i], got.Rows(), ref.Rows())
			}
			for r := 0; r < ref.Rows(); r++ {
				for c := 0; c < ref.Cols()+2; c++ {
					at := cell.Addr{Row: r, Col: c}
					if !ref.Value(at).Equal(got.Value(at)) {
						t.Fatalf("%s differs at %s: %+v vs %+v (ops %v)",
							systems[i], at, got.Value(at), ref.Value(at), ops)
					}
				}
			}
		}
		return true
	}

	if err := quick.Check(func(ops []op) bool {
		if len(ops) > 8 {
			ops = ops[:8]
		}
		return run(ops)
	}, quickseed.Config(t, 20)); err != nil {
		t.Error(err)
	}
}
