package tracelang

import (
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/engine"
	"repro/internal/workload"
)

// TestParseRoundTrip: Format(Parse(s)) re-parses to the same ops — the
// property the fuzzer's minimizer relies on to emit replayable repros.
func TestParseRoundTrip(t *testing.T) {
	script := "sheet summary; set B2 42; set C3 hello; clear C3; formula D4 =SUM(A1:A9); " +
		"sort B desc; sort C; filter B TX; filter off; pivot B D; " +
		"find TX XT; paste A1:B3 D7; paste C2 E5; rowins 5 2; rowdel 9 1; recalc"
	stmts, err := Parse(script)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(stmts) != 16 {
		t.Fatalf("parsed %d statements, want 16", len(stmts))
	}
	ops := make([]Op, len(stmts))
	for i, st := range stmts {
		if st.Index != i+1 {
			t.Errorf("statement %d has Index %d", i, st.Index)
		}
		ops[i] = st.Op
	}
	canon := Format(ops)
	again, err := Parse(canon)
	if err != nil {
		t.Fatalf("Parse(Format(...)) = %v\nscript: %s", err, canon)
	}
	if len(again) != len(stmts) {
		t.Fatalf("round trip changed statement count: %d vs %d", len(again), len(stmts))
	}
	for i := range again {
		if again[i].Op != stmts[i].Op {
			t.Errorf("op %d changed: %v vs %v", i, again[i].Op, stmts[i].Op)
		}
	}
}

// TestParseErrorsPositioned: every malformed script fails with a *Error
// carrying the right statement index and a plausible byte offset — and
// never panics.
func TestParseErrorsPositioned(t *testing.T) {
	cases := []struct {
		script    string
		wantIndex int
		wantIn    string // substring of the offending statement
	}{
		{"bogus", 1, "bogus"},
		{"set A1", 1, "set A1"},
		{"set !! 3", 1, "!!"},
		{"sort", 1, "sort"},
		{"sort B sideways", 1, "sideways"},
		{"sort 9", 1, "9"},
		{"filter B", 1, "filter B"},
		{"formula A1 SUM(A1)", 1, "SUM"},
		{"formula ?? =1", 1, "??"},
		{"pivot B", 1, "pivot B"},
		{"find x", 1, "find x"},
		{"paste A1", 1, "paste A1"},
		{"paste A1:B2:C3 D1", 1, "A1:B2:C3"},
		{"paste A1:B2 ??", 1, "??"},
		{"clear", 1, "clear"},
		{"clear A1 B1", 1, "clear A1 B1"},
		{"rowins", 1, "rowins"},
		{"rowins 0", 1, "rowins 0"},
		{"rowins x", 1, "rowins x"},
		{"rowdel 3 0", 1, "rowdel 3 0"},
		{"rowdel 3 -2", 1, "-2"},
		{"sheet", 1, "sheet"},
		{"recalc now", 1, "recalc now"},
		{"sort B; filter B", 2, "filter B"},
		{"set A1 1; ; set A2 2; paste", 3, "paste"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.script)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error", tc.script)
			continue
		}
		pe, ok := err.(*Error)
		if !ok {
			t.Errorf("Parse(%q) error type %T, want *Error", tc.script, err)
			continue
		}
		if pe.Index != tc.wantIndex {
			t.Errorf("Parse(%q): statement index %d, want %d", tc.script, pe.Index, tc.wantIndex)
		}
		if !strings.Contains(pe.Stmt, tc.wantIn) {
			t.Errorf("Parse(%q): offending stmt %q does not mention %q", tc.script, pe.Stmt, tc.wantIn)
		}
		if pe.Pos < 1 || pe.Pos > len(tc.script)+1 {
			t.Errorf("Parse(%q): offset %d out of range", tc.script, pe.Pos)
		}
		if got := tc.script[pe.Pos-1:]; !strings.HasPrefix(got, pe.Stmt[:1]) {
			t.Errorf("Parse(%q): offset %d does not point at statement %q", tc.script, pe.Pos, pe.Stmt)
		}
	}
}

// TestRunScript executes a multi-sheet script end to end: switch sheets,
// structural edits, paste, and checks the propagated state.
func TestRunScript(t *testing.T) {
	for name := range engine.Profiles() {
		eng := engine.New(engine.Profiles()[name])
		wb := workload.Ledger(workload.Spec{Rows: 30, Formulas: true})
		if err := eng.Install(wb); err != nil {
			t.Fatalf("%s: install: %v", name, err)
		}
		script := "sheet accounts; set C2 9999; sheet ledger; sort D desc; " +
			"rowins 5 2; rowdel 5 2; paste A2:F2 A40; filter off; recalc"
		if err := Run(eng, script); err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		led := wb.Sheet("ledger")
		if led == nil {
			t.Fatalf("%s: ledger sheet lost", name)
		}
		// A40 (0-based row 39) is the pasted copy of row 2, so the sheet
		// grew to 40 rows and the copy carries row 2's literal columns.
		if led.Rows() < 40 {
			t.Fatalf("%s: paste did not extend the sheet (rows=%d)", name, led.Rows())
		}
		for _, col := range []int{workload.LedgerColID, workload.LedgerColAccount, workload.LedgerColAmount} {
			src := led.Value(cell.Addr{Row: 1, Col: col})
			dst := led.Value(cell.Addr{Row: 39, Col: col})
			if src != dst {
				t.Errorf("%s: pasted col %d = %+v, want %+v", name, col, dst, src)
			}
		}
	}
}

// TestRunScriptErrors: execution failures carry the statement index, and a
// bad sheet name is an execution (not parse) error.
func TestRunScriptErrors(t *testing.T) {
	eng := engine.New(engine.Profiles()["excel"])
	if err := eng.Install(workload.Weather(workload.Spec{Rows: 10, Formulas: true})); err != nil {
		t.Fatal(err)
	}
	err := Run(eng, "set A1 5; sheet nope")
	if err == nil {
		t.Fatal("Run with unknown sheet succeeded")
	}
	if !strings.Contains(err.Error(), "statement 2") || !strings.Contains(err.Error(), "nope") {
		t.Errorf("error %q lacks statement position or sheet name", err)
	}
	if v := eng.Workbook().First().Value(cell.Addr{Row: 0, Col: 0}); v != cell.Num(5) {
		t.Errorf("statement 1 should have executed before the failure; A1 = %+v", v)
	}
}
