// Workbook-scale soundness differential: for every workload generator and
// size in the test matrix, every value the evaluator produces must be
// admitted by the statically inferred abstraction (kind, error mask,
// interval, and certified constant — Value.Admits), and every column
// certificate must be concretely true of the evaluated sheet. Membership
// checks the kind/error projection (Value.Ab) first, so this matrix is
// also the soundness gate for the `sheetcli typecheck` report and the
// analyzer's error-flow rules; the engine's certified lookup/kernel
// differentials cover the consumer half and the fuzzdiff harness hunts
// unsound transfers adversarially.
package absint_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/absint"
	"repro/internal/cell"
	"repro/internal/engine"
	"repro/internal/formula"
	"repro/internal/sheet"
	"repro/internal/typecheck"
	"repro/internal/workload"
)

var generators = []struct {
	name string
	gen  func(workload.Spec) *sheet.Workbook
}{
	{"weather", workload.Weather},
	{"ledger", workload.Ledger},
	{"inventory", workload.Inventory},
	{"gradebook", workload.Gradebook},
}

// checkWorkbook infers every sheet before evaluation, evaluates with the
// given engine profile, and asserts the membership contract plus the
// concrete truth of every distilled certificate. It returns the number of
// cells pinned to #CYCLE!.
func checkWorkbook(t *testing.T, wb *sheet.Workbook, prof engine.Profile) (cyclic int) {
	t.Helper()
	infs := make(map[*sheet.Sheet]*absint.Inference)
	certs := make(map[*sheet.Sheet]*absint.SheetCert)
	for _, s := range wb.Sheets() {
		inf := absint.InferSheet(s)
		infs[s] = inf
		certs[s] = inf.Certify()
		cyclic += len(inf.Cyclic())
	}
	if err := engine.New(prof).Install(wb); err != nil {
		t.Fatal(err)
	}
	for _, s := range wb.Sheets() {
		inf := infs[s]
		bad := 0
		for _, a := range inf.FormulaCells() {
			got := s.Value(a)
			if v := inf.At(a); !v.Admits(got) {
				bad++
				if bad <= 5 {
					t.Errorf("%s: evaluator produced %v, inferred %v does not admit it", a.A1(), got, v)
				}
			}
		}
		if bad > 5 {
			t.Errorf("... and %d more violations", bad-5)
		}

		sc := certs[s]
		for a, want := range sc.Consts {
			if got := s.Value(a); got != want {
				t.Errorf("%s: certified constant %v, evaluator produced %v", a.A1(), want, got)
			}
		}
		for _, cc := range sc.Columns {
			for row := cc.NumericFrom; row <= cc.R1; row++ {
				if v := s.Value(cell.Addr{Row: row, Col: cc.Col}); v.Kind != cell.Number {
					t.Errorf("col %d row %d: certified numeric run holds %v", cc.Col, row, v)
				}
			}
			if cc.ErrorFree {
				for row := cc.R0; row <= cc.R1; row++ {
					if v := s.Value(cell.Addr{Row: row, Col: cc.Col}); v.IsError() {
						t.Errorf("col %d row %d: certified error-free column holds %v", cc.Col, row, v)
					}
				}
			}
			switch cc.Dir {
			case absint.DirAsc:
				if !absint.SortedAscRun(s, cc.Col, cc.NumericFrom, cc.R1) {
					t.Errorf("col %d: certified ascending run [%d,%d] is not", cc.Col, cc.NumericFrom, cc.R1)
				}
			case absint.DirDesc:
				prev := cell.Value{}
				for row := cc.NumericFrom; row <= cc.R1; row++ {
					v := s.Value(cell.Addr{Row: row, Col: cc.Col})
					if row > cc.NumericFrom && v.Num > prev.Num {
						t.Errorf("col %d: certified descending run rises at row %d", cc.Col, row)
						break
					}
					prev = v
				}
			}
		}
	}
	return cyclic
}

func TestAbsintSoundOnWorkloadMatrix(t *testing.T) {
	max := 25000
	if testing.Short() {
		max = 6000
	}
	for _, g := range generators {
		for _, rows := range workload.SizesUpTo(max) {
			g, rows := g, rows
			t.Run(fmt.Sprintf("%s/rows=%d", g.name, rows), func(t *testing.T) {
				wb := g.gen(workload.Spec{Rows: rows, Seed: 7, Formulas: true, Analysis: true})
				// Membership pins every cyclic cell to exactly #CYCLE!; the
				// weather analysis block's S9/S10 cycle must be found at all.
				if n := checkWorkbook(t, wb, engine.ExcelProfile()); g.name == "weather" && n == 0 {
					t.Error("fixture cycle S9/S10 not detected")
				}
			})
		}
	}
}

// TestAbsintSoundOnOptimizedProfile repeats the membership check under the
// optimized engine — the profile that actually consumes the certificates —
// so the shortcut paths cannot drift outside the abstraction either.
func TestAbsintSoundOnOptimizedProfile(t *testing.T) {
	for _, g := range generators {
		g := g
		t.Run(g.name, func(t *testing.T) {
			wb := g.gen(workload.Spec{Rows: 6000, Seed: 11, Formulas: true, Analysis: true})
			checkWorkbook(t, wb, engine.OptimizedProfile())
		})
	}
}

// builtinSeeds maps every registered builtin to a representative formula
// over the fixed fixture inputs, so each transfer function faces the
// evaluator at least once (and seeds the fuzz corpus).
var builtinSeeds = map[string]string{
	"ABS": "=ABS(A2-B2)", "AND": "=AND(A2>0,B2<100)", "AVERAGE": "=AVERAGE(A1:A4)",
	"AVERAGEIF": "=AVERAGEIF(A1:A4,\">1\",B1:B4)", "AVERAGEIFS": "=AVERAGEIFS(B1:B4,A1:A4,\">1\")",
	"CHOOSE": "=CHOOSE(2,A1,A2,A3)", "CONCAT": "=CONCAT(C1,C2)", "CONCATENATE": "=CONCATENATE(C1,\"-\",C2)",
	"COUNT": "=COUNT(A1:B4)", "COUNTA": "=COUNTA(A1:C4)", "COUNTBLANK": "=COUNTBLANK(A1:C4)",
	"COUNTIF": "=COUNTIF(A1:A4,\">2\")", "COUNTIFS": "=COUNTIFS(A1:A4,\">1\",B1:B4,\"<50\")",
	"DATE": "=DATE(2020,2,28)", "DAY": "=DAY(B3)", "DAYS": "=DAYS(B2,B1)",
	"EDATE": "=EDATE(B3,1)", "EOMONTH": "=EOMONTH(B3,0)", "EXACT": "=EXACT(C1,C2)",
	"EXP": "=EXP(A1)", "FIND": "=FIND(\"a\",C1)", "HLOOKUP": "=HLOOKUP(A1,A1:C2,2,FALSE)",
	"HOUR": "=HOUR(B1)", "IF": "=IF(A2>A1,C1,C2)", "IFERROR": "=IFERROR(A1/A3,99)",
	"INDEX": "=INDEX(A1:B4,2,2)", "INT": "=INT(B2/7)", "ISBLANK": "=ISBLANK(C4)",
	"ISERROR": "=ISERROR(A1/0)", "ISLOGICAL": "=ISLOGICAL(A2>1)", "ISNUMBER": "=ISNUMBER(A1)",
	"ISTEXT": "=ISTEXT(C1)", "LARGE": "=LARGE(A1:A4,2)", "LEFT": "=LEFT(C1,2)",
	"LEN": "=LEN(C1)", "LN": "=LN(A2)", "LOG": "=LOG(B2,2)", "LOG10": "=LOG10(B2)",
	"LOWER": "=LOWER(C1)", "MATCH": "=MATCH(A2,A1:A4,0)", "MAX": "=MAX(A1:B4)",
	"MAXIFS": "=MAXIFS(B1:B4,A1:A4,\">1\")", "MEDIAN": "=MEDIAN(A1:A4)", "MID": "=MID(C1,2,2)",
	"MIN": "=MIN(A1:B4)", "MINIFS": "=MINIFS(B1:B4,A1:A4,\">1\")", "MINUTE": "=MINUTE(B1)",
	"MOD": "=MOD(B2,A2)", "MONTH": "=MONTH(B3)", "NOT": "=NOT(A1>2)", "NOW": "=NOW()",
	"OR": "=OR(A1>3,B1>3)", "PERCENTILE": "=PERCENTILE(A1:A4,0.5)", "PI": "=PI()",
	"POWER": "=POWER(A2,2)", "PRODUCT": "=PRODUCT(A1:A3)", "RAND": "=RAND()",
	"RANDBETWEEN": "=RANDBETWEEN(1,6)", "RANK": "=RANK(A2,A1:A4)", "REPT": "=REPT(C1,2)",
	"RIGHT": "=RIGHT(C1,2)", "ROUND": "=ROUND(B2/7,2)", "ROUNDDOWN": "=ROUNDDOWN(B2/7,1)",
	"ROUNDUP": "=ROUNDUP(B2/7,1)", "SECOND": "=SECOND(B1)", "SIGN": "=SIGN(A1-A2)",
	"SMALL": "=SMALL(A1:A4,2)", "SQRT": "=SQRT(B2)", "STDEV": "=STDEV(A1:A4)",
	"SUBSTITUTE": "=SUBSTITUTE(C1,\"a\",\"o\")", "SUM": "=SUM(A1:B4)",
	"SUMIF": "=SUMIF(A1:A4,\">1\",B1:B4)", "SUMIFS": "=SUMIFS(B1:B4,A1:A4,\">1\")",
	"SUMPRODUCT": "=SUMPRODUCT(A1:A4,B1:B4)", "SWITCH": "=SWITCH(A2,2,C1,C2)",
	"TEXTJOIN": "=TEXTJOIN(\",\",TRUE,C1:C3)", "TODAY": "=TODAY()", "TRIM": "=TRIM(C3)",
	"UPPER": "=UPPER(C1)", "VALUE": "=VALUE(C4)", "VAR": "=VAR(A1:A4)",
	"VLOOKUP": "=VLOOKUP(A2,A1:C4,3,FALSE)", "WEEKDAY": "=WEEKDAY(B3)", "XOR": "=XOR(A1>2,B1>2)",
	"YEAR": "=YEAR(B3)",
}

// fixtureSheet is the shared input grid for the per-builtin differential
// and the fuzz target: small numbers, larger numbers, text, one blank,
// one numeric-text cell.
func fixtureSheet() *sheet.Sheet {
	s := sheet.New("fix", 12, 8)
	for i, v := range []float64{1, 2, 3, 4} {
		s.SetValue(cell.Addr{Row: i, Col: 0}, cell.Num(v))
	}
	for i, v := range []float64{10, 25, 44000, 7} {
		s.SetValue(cell.Addr{Row: i, Col: 1}, cell.Num(v))
	}
	s.SetValue(cell.Addr{Row: 0, Col: 2}, cell.Str("alpha"))
	s.SetValue(cell.Addr{Row: 1, Col: 2}, cell.Str("beta"))
	s.SetValue(cell.Addr{Row: 2, Col: 2}, cell.Str("  pad  "))
	s.SetValue(cell.Addr{Row: 3, Col: 2}, cell.Str("3.5"))
	return s
}

// soundOne infers then evaluates one formula at D1 over the fixture and
// reports any membership violation.
func soundOne(text string) error {
	c, err := formula.Compile(text)
	if err != nil {
		return nil // not a formula; nothing to check
	}
	if c.PrecedentCells() > 4096 {
		return nil // fuzz-generated mega-ranges: skip, the matrix covers scale
	}
	s := fixtureSheet()
	d1 := cell.Addr{Row: 0, Col: 3}
	s.SetFormula(d1, c)
	inf := absint.InferSheet(s)
	v := inf.At(d1)
	wb := sheet.NewWorkbook()
	if err := wb.Add(s); err != nil {
		return err
	}
	if err := engine.New(engine.ExcelProfile()).Install(wb); err != nil {
		return err
	}
	got := s.Value(d1)
	if !v.Admits(got) {
		return fmt.Errorf("%s: evaluator produced %v, inferred %v does not admit it", text, got, v)
	}
	return nil
}

func TestEveryBuiltinSoundDifferentially(t *testing.T) {
	for _, name := range formula.FunctionNames() {
		seed, ok := builtinSeeds[name]
		if !ok {
			t.Errorf("builtin %s has no differential seed formula", name)
			continue
		}
		if err := soundOne(seed); err != nil {
			t.Error(err)
		}
	}
}

// FuzzAbsintSound hunts unsound transfer functions: any formula the
// compiler accepts must evaluate inside its inferred abstraction.
func FuzzAbsintSound(f *testing.F) {
	for _, seed := range builtinSeeds {
		f.Add(seed)
	}
	f.Add("=IF(RAND()>0.5,1/0,SUM(A1:B4))")
	f.Add("=IFERROR(VLOOKUP(9,A1:C4,2,TRUE),MATCH(2,A1:A4))")
	f.Add("=(0-1)^0.5")
	f.Add("=SUM(A1:A4)/COUNTBLANK(A1:C4)")
	f.Add("=D1+1") // self-cycle pins #CYCLE!
	f.Fuzz(func(t *testing.T, text string) {
		if err := soundOne(text); err != nil {
			t.Fatal(err)
		}
	})
}

// TestKindProjectionPrecisionGains pins the cells where the kind/error
// projection (Value.Ab) is strictly finer than the standalone kind/error
// fixpoint it replaced: a SUMIF whose test and sum ranges live on another
// sheet is a well-formed range call, so it is exactly a number with no
// #VALUE! possibility (the old pass accepted only same-sheet ranges). The
// 16 cells are ledger summary!B2:B7 (five cross-sheet SUMIFs and their
// SUM total) and inventory products!E2:E11 (ten cross-sheet SUMIFs); on
// every other formula cell of the workload matrix the two agreed.
func TestKindProjectionPrecisionGains(t *testing.T) {
	number := typecheck.Abstract{Kinds: typecheck.KNumber}
	cases := []struct {
		gen   func(workload.Spec) *sheet.Workbook
		sheet string
		cells string
	}{
		{workload.Ledger, "summary", "B2:B7"},
		{workload.Inventory, "products", "E2:E11"},
	}
	pinned := 0
	for _, tc := range cases {
		s := tc.gen(workload.Spec{Rows: 200, Seed: 7, Formulas: true}).Sheet(tc.sheet)
		inf := absint.InferSheet(s)
		r := cell.MustParseRange(tc.cells)
		for row := r.Start.Row; row <= r.End.Row; row++ {
			a := cell.Addr{Row: row, Col: r.Start.Col}
			fc, ok := s.Formula(a)
			if !ok || !strings.Contains(fc.Code.CanonicalText(), "SUM") {
				t.Fatalf("%s!%s: fixture changed, want a SUMIF or its total", tc.sheet, a.A1())
			}
			if got := inf.At(a).Ab; got != number {
				t.Errorf("%s!%s = %v, want %v", tc.sheet, a.A1(), got, number)
			}
			pinned++
		}
	}
	if pinned != 16 {
		t.Errorf("pinned %d cells, want 16", pinned)
	}
}
