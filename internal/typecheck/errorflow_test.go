// Error-flow agreement tests: for the absorption and propagation shapes
// the ISSUE singles out (IFERROR / ISERROR absorbing, MOD and division
// propagating #DIV/0!), the evaluator's concrete result and the kind/error
// projection of the abstract interpreter (absint Value.Ab) must agree —
// every observed value admitted, and absorbed errors absent from the
// inferred possibility set.
package typecheck_test

import (
	"testing"

	"repro/internal/absint"
	"repro/internal/cell"
	"repro/internal/engine"
	"repro/internal/formula"
	"repro/internal/sheet"
	"repro/internal/typecheck"
)

// evalSheet installs the sheet in a plain desktop engine so every formula
// cache is the evaluator's concrete result.
func evalSheet(t *testing.T, s *sheet.Sheet) {
	t.Helper()
	wb := sheet.NewWorkbook()
	if err := wb.Add(s); err != nil {
		t.Fatal(err)
	}
	if err := engine.New(engine.ExcelProfile()).Install(wb); err != nil {
		t.Fatal(err)
	}
}

func mkSheet(t *testing.T, values map[string]cell.Value, formulas map[string]string) *sheet.Sheet {
	t.Helper()
	s := sheet.New("test", 12, 8)
	for a1, v := range values {
		s.SetValue(cell.MustParseAddr(a1), v)
	}
	for a1, text := range formulas {
		c, err := formula.Compile(text)
		if err != nil {
			t.Fatalf("compile %q: %v", text, err)
		}
		s.SetFormula(cell.MustParseAddr(a1), c)
	}
	return s
}

func TestErrorFlowAgreement(t *testing.T) {
	cases := []struct {
		name     string
		values   map[string]cell.Value
		formula  string
		want     cell.Value // evaluator result
		inferred typecheck.Abstract
	}{
		{
			name:     "MOD by zero propagates DIV0",
			values:   map[string]cell.Value{"A1": cell.Num(7), "A2": cell.Num(0)},
			formula:  "=MOD(A1,A2)",
			want:     cell.Errorf(cell.ErrDiv0),
			inferred: typecheck.Abstract{Kinds: typecheck.KNumber, Errs: typecheck.EDiv0},
		},
		{
			name:     "MOD by nonzero literal excludes DIV0",
			values:   map[string]cell.Value{"A1": cell.Num(7)},
			formula:  "=MOD(A1,3)",
			want:     cell.Num(1),
			inferred: typecheck.Abstract{Kinds: typecheck.KNumber},
		},
		{
			name:    "division by zero cell propagates DIV0",
			values:  map[string]cell.Value{"A1": cell.Num(7), "A2": cell.Num(0)},
			formula: "=A1/A2",
			want:    cell.Errorf(cell.ErrDiv0),
			// Both operands are known values, so the division folds to
			// exactly #DIV/0!.
			inferred: typecheck.Abstract{Errs: typecheck.EDiv0},
		},
		{
			name:     "DIV0 propagates through arithmetic",
			values:   map[string]cell.Value{"A1": cell.Num(7), "A2": cell.Num(0)},
			formula:  "=(A1/A2)+1",
			want:     cell.Errorf(cell.ErrDiv0),
			inferred: typecheck.Abstract{Errs: typecheck.EDiv0},
		},
		{
			name:     "DIV0 propagates through SUM",
			values:   map[string]cell.Value{"A1": cell.Errorf(cell.ErrDiv0)},
			formula:  "=SUM(A1:A3)",
			want:     cell.Errorf(cell.ErrDiv0),
			inferred: typecheck.Abstract{Kinds: typecheck.KNumber, Errs: typecheck.EDiv0},
		},
		{
			name:     "IFERROR absorbs MOD's DIV0",
			values:   map[string]cell.Value{"A1": cell.Num(7), "A2": cell.Num(0)},
			formula:  `=IFERROR(MOD(A1,A2),"fallback")`,
			want:     cell.Str("fallback"),
			inferred: typecheck.Abstract{Kinds: typecheck.KNumber | typecheck.KText},
		},
		{
			name:     "IFERROR over clean input never takes the fallback",
			values:   map[string]cell.Value{"A1": cell.Num(7)},
			formula:  `=IFERROR(MOD(A1,3),"fallback")`,
			want:     cell.Num(1),
			inferred: typecheck.Abstract{Kinds: typecheck.KNumber},
		},
		{
			name:     "ISERROR absorbs to a boolean",
			values:   map[string]cell.Value{"A1": cell.Num(7), "A2": cell.Num(0)},
			formula:  "=ISERROR(A1/A2)",
			want:     cell.Boolean(true),
			inferred: typecheck.Abstract{Kinds: typecheck.KBool},
		},
		{
			name:     "ISERROR on a clean value is still just a boolean",
			values:   map[string]cell.Value{"A1": cell.Num(7)},
			formula:  "=ISERROR(A1)",
			want:     cell.Boolean(false),
			inferred: typecheck.Abstract{Kinds: typecheck.KBool},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := mkSheet(t, tc.values, map[string]string{"D1": tc.formula})
			d1 := cell.MustParseAddr("D1")
			// Inference runs before evaluation — it must not need results.
			ab := absint.InferSheet(s).At(d1).Ab
			if ab != tc.inferred {
				t.Errorf("inferred %v, want %v", ab, tc.inferred)
			}
			evalSheet(t, s)
			got := s.Value(d1)
			if !got.Equal(tc.want) || got.Kind != tc.want.Kind {
				t.Errorf("evaluator = %v, want %v", got, tc.want)
			}
			if !ab.Admits(got) {
				t.Errorf("soundness: %v not admitted by %v", got, ab)
			}
		})
	}
}

// TestAbsorbedErrorsStayAbsorbed pins the absorption property itself: the
// inferred error set of an IFERROR/ISERROR wrapper must not contain the
// wrapped error, so downstream blast-radius analysis never counts it.
func TestAbsorbedErrorsStayAbsorbed(t *testing.T) {
	s := mkSheet(t, map[string]cell.Value{"A1": cell.Num(1), "A2": cell.Num(0)}, map[string]string{
		"B1": "=IFERROR(A1/A2,0)",
		"B2": "=ISERROR(MOD(A1,A2))",
		"B3": "=B1+B2", // depends only on absorbed results
	})
	inf := absint.InferSheet(s)
	for _, a1 := range []string{"B1", "B2", "B3"} {
		if ab := inf.At(cell.MustParseAddr(a1)).Ab; ab.MayError() {
			t.Errorf("%s: absorbed error leaked into %v", a1, ab)
		}
	}
}
