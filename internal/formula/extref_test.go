package formula

import (
	"strings"
	"testing"

	"repro/internal/cell"
)

func TestExtRefParseAndCanonical(t *testing.T) {
	cases := []struct {
		text, canonical string
	}{
		{"=accounts!B2", "accounts!B2"},
		{"=ledger!A2:A500", "ledger!A2:A500"},
		{"=SUM(data!B1:B9)", "SUM(data!B1:B9)"},
		{"=summary!$B$2+1", "(summary!$B$2+1)"},
		{"=SUMIF(ledger!A2:A9,\"x\",ledger!C2:C9)", `SUMIF(ledger!A2:A9,"x",ledger!C2:C9)`},
	}
	for _, tc := range cases {
		c, err := Compile(tc.text)
		if err != nil {
			t.Errorf("Compile(%q): %v", tc.text, err)
			continue
		}
		if !c.External {
			t.Errorf("Compile(%q): External not set", tc.text)
		}
		if got := c.CanonicalText(); got != tc.canonical {
			t.Errorf("Compile(%q): canonical %q, want %q", tc.text, got, tc.canonical)
		}
		// Cross-sheet reads must not leak into the host sheet's precedents.
		if len(c.Refs) != 0 || len(c.Ranges) != 0 {
			t.Errorf("Compile(%q): ext refs leaked into Refs/Ranges (%v, %v)", tc.text, c.Refs, c.Ranges)
		}
	}
}

func TestExtRefParseErrors(t *testing.T) {
	for _, text := range []string{
		"=accounts!",       // missing ref
		"=accounts!+1",     // operator where ref expected
		"=accounts!SUM",    // not a cell ref
		"=accounts!B2:",    // missing range end
		"=accounts!B2:SUM", // bad range end
		"='My Sheet'!A1",   // no quoting dialect
	} {
		if _, err := Compile(text); err == nil {
			t.Errorf("Compile(%q) unexpectedly succeeded", text)
		}
	}
}

func TestExtRefEval(t *testing.T) {
	foreign := mapSource{
		"B2": cell.Num(10),
		"B3": cell.Num(20),
		"B4": cell.Num(30),
	}
	local := mapSource{"A1": cell.Num(5)}
	env := &Env{
		Src: local,
		Ext: func(name string) Source {
			if name == "data" {
				return foreign
			}
			return nil
		},
	}

	got := Eval(MustCompile("=data!B2+A1"), env)
	if got != cell.Num(15) {
		t.Errorf("data!B2+A1 = %v, want 15", got)
	}
	got = Eval(MustCompile("=SUM(data!B2:B4)"), env)
	if got != cell.Num(60) {
		t.Errorf("SUM(data!B2:B4) = %v, want 60", got)
	}
	// Unknown sheet resolves to #REF!.
	got = Eval(MustCompile("=missing!A1"), env)
	if !got.IsError() || got.Str != cell.ErrRef {
		t.Errorf("missing!A1 = %v, want #REF!", got)
	}
	// Nil resolver (plain Env) also yields #REF!.
	got = Eval(MustCompile("=data!B2"), &Env{Src: local})
	if !got.IsError() || got.Str != cell.ErrRef {
		t.Errorf("data!B2 with no resolver = %v, want #REF!", got)
	}
}

func TestExtRefDisplacementShifts(t *testing.T) {
	foreign := mapSource{
		"B2": cell.Num(1),
		"B5": cell.Num(99),
	}
	env := &Env{
		Src: mapSource{},
		Ext: func(string) Source { return foreign },
		DR:  3,
	}
	// Relative component shifts with the host displacement...
	if got := Eval(MustCompile("=data!B2"), env); got != cell.Num(99) {
		t.Errorf("displaced data!B2 = %v, want 99 (B5)", got)
	}
	// ...absolute components do not.
	if got := Eval(MustCompile("=data!B$2"), env); got != cell.Num(1) {
		t.Errorf("displaced data!B$2 = %v, want 1 (B2)", got)
	}
}

func TestExtRefRewriteRelative(t *testing.T) {
	c := MustCompile("=accounts!B2+accounts!$B$2")
	got := c.RewriteRelative(2, 0)
	if want := "=(accounts!B4+accounts!$B$2)"; got != want {
		t.Errorf("RewriteRelative = %q, want %q", got, want)
	}
}

func TestExtRefRowLocalAndFootprint(t *testing.T) {
	c := MustCompile("=accounts!B2")
	if c.RowLocal(cell.MustParseAddr("A2")) {
		t.Error("external formula reported row-local")
	}
	fp := ReadFootprint(c, cell.MustParseAddr("A2"))
	if !fp.Unanalyzable {
		t.Error("external footprint not marked unanalyzable")
	}
	if !strings.HasPrefix(fp.Reason, "EXTREF:") {
		t.Errorf("footprint reason %q, want EXTREF: prefix", fp.Reason)
	}
}

func TestExtRefAdjustPinsForeignCells(t *testing.T) {
	// Inserting rows on the host sheet must not move foreign-sheet reads:
	// local B5 shifts, accounts!B5 does not.
	c := MustCompile("=B5+accounts!B5")
	got := Edit{Boundary: 2, Delta: 3, Rows: true}.Adjust(c, 0, 0)
	if want := "=(B8+accounts!B5)"; got != want {
		t.Errorf("Adjust = %q, want %q", got, want)
	}
}
