// Inference tests for the kind/error domain: the abstract interpreter
// (internal/absint) computes each cell's Value, and these cases pin its
// kind/error projection (Value.Ab) — the facts the `sheetcli typecheck`
// report and the analyzer's error-flow rules consume.
package typecheck_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/absint"
	"repro/internal/cell"
	"repro/internal/formula"
	"repro/internal/sheet"
	"repro/internal/typecheck"
)

// projection infers the sheet and returns a function reading one cell's
// kind/error projection.
func projection(s *sheet.Sheet) func(a1 string) typecheck.Abstract {
	inf := absint.InferSheet(s)
	return func(a1 string) typecheck.Abstract { return inf.At(cell.MustParseAddr(a1)).Ab }
}

// checkProjection asserts the projection of every listed cell.
func checkProjection(t *testing.T, s *sheet.Sheet, want map[string]typecheck.Abstract) {
	t.Helper()
	at := projection(s)
	for a1, w := range want {
		if got := at(a1); got != w {
			t.Errorf("%s = %v, want %v", a1, got, w)
		}
	}
}

func TestLiteralAndValueCellAbstractions(t *testing.T) {
	s := mkSheet(t, map[string]cell.Value{
		"A1": cell.Num(3),
		"A2": cell.Str("hi"),
		"A3": cell.Boolean(true),
		"A4": cell.Errorf(cell.ErrNA),
	}, map[string]string{
		"B1": "=A1",
		"B2": "=A2",
		"B3": "=A3",
		"B4": "=A4",
		"B5": "=A5", // empty cell
		"B6": `="x"`,
	})
	checkProjection(t, s, map[string]typecheck.Abstract{
		"B1": {Kinds: typecheck.KNumber},
		"B2": {Kinds: typecheck.KText},
		"B3": {Kinds: typecheck.KBool},
		"B4": {Errs: typecheck.ENA},
		"B5": {Kinds: typecheck.KEmpty},
		"B6": {Kinds: typecheck.KText},
	})
}

func TestArithmeticDivisionAndCoercion(t *testing.T) {
	// Column A holds data the fixpoint sees only as intervals once it is
	// joined through a range (C1), so the divisions below read operands
	// whose zero-ness is statically unknown.
	s := mkSheet(t, map[string]cell.Value{
		"A1": cell.Num(10),
		"A2": cell.Num(0),
		"A3": cell.Str("SD"),
	}, map[string]string{
		"C1": "=SUM(A1:A2)",  // [0,20]: zero-spanning
		"B1": "=A1+C1",       // pure numeric: no error possible
		"B2": "=A1/C1",       // zero-spanning divisor: #DIV/0! possible
		"B3": "=C1/2",        // nonzero literal divisor: no #DIV/0!
		"B4": "=C1+A3",       // text operand: #VALUE! possible
		"B5": "=C1&A3",       // concat: text, never errors
		"B6": "=C1>A1",       // comparison: bool, never errors
		"B7": "=-C1",         // unary numeric
		"B8": "=C1/0",        // zero literal divisor: #DIV/0! stays possible
		"B9": "=B2+1",        // error propagation through arithmetic
		"C2": "=1/2+3*4",     // literal arithmetic
		"C3": "=A1/(C1+100)", // divisor interval excludes zero: no #DIV/0!
	})
	checkProjection(t, s, map[string]typecheck.Abstract{
		"B1": {Kinds: typecheck.KNumber},
		"B2": {Kinds: typecheck.KNumber, Errs: typecheck.EDiv0},
		"B3": {Kinds: typecheck.KNumber},
		"B4": {Kinds: typecheck.KNumber, Errs: typecheck.EValue},
		"B5": {Kinds: typecheck.KText},
		"B6": {Kinds: typecheck.KBool},
		"B7": {Kinds: typecheck.KNumber},
		"B8": {Kinds: typecheck.KNumber, Errs: typecheck.EDiv0},
		"B9": {Kinds: typecheck.KNumber, Errs: typecheck.EDiv0},
		"C2": {Kinds: typecheck.KNumber},
		"C3": {Kinds: typecheck.KNumber},
	})
}

func TestAggregateTransfers(t *testing.T) {
	s := mkSheet(t, map[string]cell.Value{
		"A1": cell.Num(1), "A2": cell.Num(2), "A3": cell.Num(3),
		"B1": cell.Str("x"), "B2": cell.Num(4),
	}, map[string]string{
		"C1": "=SUM(A1:A3)",          // clean numeric column
		"C2": "=AVERAGE(A1:A3)",      // AVERAGE always may divide by zero
		"C3": "=COUNTIF(B1:B2,4)",    // COUNTIF never errors
		"C4": "=SUM(D1:D3)",          // empty range: still just a number
		"C5": "=SUM(E1:E3)",          // range over error cells
		"C6": "=COUNTA(E1:E3)",       // COUNTA ignores errors
		"C7": "=SUMIF(A1:A3,2)",      // well-formed SUMIF
		"C8": `=SUMIF(A1,2)`,         // non-range test argument: #VALUE!
		"C9": "=AVERAGEIF(A1:A3,99)", // no match: #DIV/0!
	})
	s.SetValue(cell.MustParseAddr("E1"), cell.Errorf(cell.ErrRef))
	checkProjection(t, s, map[string]typecheck.Abstract{
		"C1": {Kinds: typecheck.KNumber},
		"C2": {Kinds: typecheck.KNumber, Errs: typecheck.EDiv0},
		"C3": {Kinds: typecheck.KNumber},
		"C4": {Kinds: typecheck.KNumber},
		"C5": {Kinds: typecheck.KNumber, Errs: typecheck.ERef},
		"C6": {Kinds: typecheck.KNumber},
		"C7": {Kinds: typecheck.KNumber},
		"C8": {Kinds: typecheck.KNumber, Errs: typecheck.EValue},
		"C9": {Kinds: typecheck.KNumber, Errs: typecheck.EDiv0},
	})
}

func TestUnknownFunctionAndArity(t *testing.T) {
	s := mkSheet(t, nil, map[string]string{
		"A1": "=NOSUCHFN(1)",
		"A2": "=ABS(1,2,3)", // too many arguments
	})
	checkProjection(t, s, map[string]typecheck.Abstract{
		"A1": {Errs: typecheck.EName},  // unknown function: exactly #NAME?
		"A2": {Errs: typecheck.EValue}, // arity violation: exactly #VALUE!
	})
}

func TestCyclePinning(t *testing.T) {
	s := mkSheet(t, nil, map[string]string{
		"A1": "=A2",
		"A2": "=A1",
		"A3": "=A1+1", // downstream of the cycle: also #CYCLE! in evalAll
		"A4": "=1+1",  // independent
	})
	cyc := typecheck.Abstract{Errs: typecheck.ECycle}
	checkProjection(t, s, map[string]typecheck.Abstract{
		"A1": cyc, "A2": cyc, "A3": cyc,
		"A4": {Kinds: typecheck.KNumber},
	})
	if n := len(absint.InferSheet(s).Cyclic()); n != 3 {
		t.Errorf("Cyclic() = %d cells, want 3", n)
	}
}

func TestTopologicalPropagationThroughChain(t *testing.T) {
	// D1 depends on C1 depends on B1, which may multiply a text cell: the
	// #VALUE! possibility must flow the whole chain in one inference. (The
	// volatile condition keeps B1 from folding to a constant.)
	s := mkSheet(t, map[string]cell.Value{"A1": cell.Str("oops")}, map[string]string{
		"B1": "=IF(RAND()>0.5,A1,1)*2",
		"C1": "=B1+1",
		"D1": "=SUM(C1:C1)",
	})
	want := typecheck.Abstract{Kinds: typecheck.KNumber, Errs: typecheck.EValue}
	checkProjection(t, s, map[string]typecheck.Abstract{"B1": want, "C1": want, "D1": want})
}

func TestVolatileAndUnmodeledFunctions(t *testing.T) {
	s := mkSheet(t, map[string]cell.Value{"A1": cell.Num(1)}, map[string]string{
		"B1": "=NOW()",
		"B2": "=RAND()",
		"B3": "=Other!A1", // cross-sheet: outside this sheet's inference, top
	})
	checkProjection(t, s, map[string]typecheck.Abstract{
		"B1": {Kinds: typecheck.KNumber},
		"B2": {Kinds: typecheck.KNumber},
		"B3": typecheck.Top,
	})
}

func TestNumericColumnCertificates(t *testing.T) {
	s := sheet.New("cert", 4, 4)
	// Col 0: header + numbers -> certified. Col 1: text data -> not
	// certified. Col 2: numeric formulas -> kind-certified (the engine's
	// value-column pre-flight still excludes it: formula caches can change
	// without a write the optimizer observes). Col 3: has an empty gap ->
	// not certified.
	s.SetValue(cell.Addr{Row: 0, Col: 0}, cell.Str("n"))
	s.SetValue(cell.Addr{Row: 0, Col: 1}, cell.Str("t"))
	s.SetValue(cell.Addr{Row: 0, Col: 2}, cell.Str("f"))
	s.SetValue(cell.Addr{Row: 0, Col: 3}, cell.Str("e"))
	for r := 1; r < 4; r++ {
		s.SetValue(cell.Addr{Row: r, Col: 0}, cell.Num(float64(r)))
		s.SetValue(cell.Addr{Row: r, Col: 1}, cell.Str("x"))
		s.SetFormula(cell.Addr{Row: r, Col: 2}, formula.MustCompile("=1+1"))
	}
	s.SetValue(cell.Addr{Row: 1, Col: 3}, cell.Num(5))
	var got []int
	for _, cs := range absint.TypecheckSheet(s, absint.TypeReportOptions{}).Columns {
		if cs.Numeric {
			got = append(got, cs.Col)
		}
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("numeric certificates = %v, want [0 2]", got)
	}
}

func TestDisagreementDetection(t *testing.T) {
	s := mkSheet(t, map[string]cell.Value{"A1": cell.Num(1)}, map[string]string{
		"B1": "=A1+1",
		"B2": "=A1*2",
		"B3": "=A1-1",
	})
	// B1 carries a stale text cache (foreign save); B2 a consistent number;
	// B3 was never evaluated (empty cache, must be skipped).
	s.SetCachedValue(cell.MustParseAddr("B1"), cell.Str("stale"))
	s.SetCachedValue(cell.MustParseAddr("B2"), cell.Num(2))
	sr := absint.TypecheckSheet(s, absint.TypeReportOptions{})
	if sr.DisagreementCount != 1 {
		t.Fatalf("DisagreementCount = %d, want 1", sr.DisagreementCount)
	}
	d := sr.Disagreements[0]
	if d.Cell != "B1" || d.Stored != "text" {
		t.Errorf("disagreement = %+v, want B1/text", d)
	}
}

func TestReportWriters(t *testing.T) {
	// Exact-height grid: the certificate spans every data row, so trailing
	// empty rows (as in mkSheet's 12-row grid) would de-certify column A.
	s := sheet.New("test", 3, 2)
	s.SetValue(cell.MustParseAddr("A1"), cell.Str("n"))
	s.SetValue(cell.MustParseAddr("A2"), cell.Num(1))
	s.SetValue(cell.MustParseAddr("A3"), cell.Num(0))
	s.SetFormula(cell.MustParseAddr("B2"), formula.MustCompile("=A2/A3"))
	wb := sheet.NewWorkbook()
	if err := wb.Add(s); err != nil {
		t.Fatal(err)
	}
	res := absint.TypecheckWorkbook(wb, absint.TypeReportOptions{})
	if res.Formulas != 1 || res.ErrorCells != 1 {
		t.Fatalf("result = %d formulas, %d error cells; want 1, 1", res.Formulas, res.ErrorCells)
	}
	var txt bytes.Buffer
	if err := res.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"error-possible cells (1):", "B2", cell.ErrDiv0, "[numeric]"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, txt.String())
		}
	}
	js, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), `"numeric_certificate": true`) {
		t.Errorf("JSON report missing certificate:\n%s", js)
	}
}

func TestMaxListCapsListingNotCounts(t *testing.T) {
	formulas := make(map[string]string)
	for r := 1; r <= 8; r++ {
		formulas["B"+string(rune('0'+r))] = "=A1/A2"
	}
	s := mkSheet(t, map[string]cell.Value{"A1": cell.Num(1)}, formulas)
	sr := absint.TypecheckSheet(s, absint.TypeReportOptions{MaxList: 3})
	if len(sr.ErrorCells) != 3 {
		t.Errorf("listed = %d, want 3", len(sr.ErrorCells))
	}
	if sr.ErrorCellCount != 8 {
		t.Errorf("counted = %d, want complete count 8", sr.ErrorCellCount)
	}
}
