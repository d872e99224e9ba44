package formula

import (
	"testing"

	"repro/internal/cell"
)

func TestErrorLiteralParsesAndPropagates(t *testing.T) {
	for _, text := range []string{"=#REF!", "=#N/A", "=#DIV/0!", "=#VALUE!"} {
		c, err := Compile(text)
		if err != nil {
			t.Fatalf("Compile(%s): %v", text, err)
		}
		v := Eval(c, &Env{Src: emptySource{}})
		if !v.IsError() || "="+v.Str != text {
			t.Errorf("%s = %+v", text, v)
		}
	}
	// Error literals flow through expressions.
	v := Eval(MustCompile("=#REF!+1"), &Env{Src: emptySource{}})
	if v.Str != cell.ErrRef {
		t.Errorf("#REF!+1 = %+v", v)
	}
	if v := Eval(MustCompile("=IFERROR(#REF!,42)"), &Env{Src: emptySource{}}); v.Num != 42 {
		t.Errorf("IFERROR(#REF!) = %+v", v)
	}
	if _, err := Compile("=#BOGUS!"); err == nil {
		t.Error("unknown error literal must fail to parse")
	}
}

func TestAdjustForRowChangeInsert(t *testing.T) {
	cases := []struct {
		text     string
		dr       int
		boundary int
		delta    int
		want     string
	}{
		// Refs below the boundary shift; above stay.
		{"=A1+A10", 0, 5, 3, "=(A1+A13)"},
		// Absolute refs shift too (structural edits move absolute targets).
		{"=$A$10", 0, 5, 3, "=$A$13"},
		// Displacement applies first: formula authored at row 0 but hosted
		// 4 rows lower reads A5 effectively.
		{"=A1", 4, 3, 2, "=A7"},
		// Ranges spanning the boundary grow.
		{"=SUM(A1:A10)", 0, 5, 2, "=SUM(A1:A12)"},
		// Ranges entirely above the boundary stay put.
		{"=SUM(A1:A3)", 0, 5, 2, "=SUM(A1:A3)"},
	}
	for _, c := range cases {
		got := Edit{Boundary: c.boundary - 1, Delta: c.delta, Rows: true}.Adjust(MustCompile(c.text), c.dr, 0)
		if got != c.want {
			t.Errorf("row Adjust(%s, dr=%d, boundary=%d, +%d) = %q, want %q",
				c.text, c.dr, c.boundary, c.delta, got, c.want)
		}
	}
}

func TestAdjustForRowChangeDelete(t *testing.T) {
	cases := []struct {
		text     string
		boundary int // 0-based first deleted row
		n        int
		want     string
	}{
		{"=A10", 4, 3, "=A7"},                 // below the cut: shifts up
		{"=A5", 4, 3, "=#REF!"},               // inside the cut
		{"=A3", 4, 3, "=A3"},                  // above the cut
		{"=SUM(A1:A10)", 4, 3, "=SUM(A1:A7)"}, // spanning: shrinks
		{"=SUM(A5:A7)", 4, 3, "=SUM(#REF!)"},  // fully inside: argument dies
		{"=SUM(A6:A10)", 4, 3, "=SUM(A5:A7)"}, // start clamps to the cut
	}
	for _, c := range cases {
		got := Edit{Boundary: c.boundary, Delta: -c.n, Rows: true}.Adjust(MustCompile(c.text), 0, 0)
		if got != c.want {
			t.Errorf("delete [%d,%d): %s -> %q, want %q", c.boundary, c.boundary+c.n, c.text, got, c.want)
		}
	}
}

func TestAdjustForColChange(t *testing.T) {
	cases := []struct {
		text     string
		boundary int
		delta    int
		want     string
	}{
		{"=B1+E1", 2, 2, "=(B1+G1)"},           // E (col 4) shifts to G
		{"=SUM(A1:C10)", 1, 1, "=SUM(A1:D10)"}, // spanning range grows
		{"=C1", 2, -1, "=#REF!"},               // deleted column
		{"=D1", 2, -1, "=C1"},                  // shifts left
	}
	for _, c := range cases {
		got := Edit{Boundary: c.boundary, Delta: c.delta}.Adjust(MustCompile(c.text), 0, 0)
		if got != c.want {
			t.Errorf("col Adjust(%s, boundary=%d, %+d) = %q, want %q",
				c.text, c.boundary, c.delta, got, c.want)
		}
	}
}

func TestAdjustedTextRecompiles(t *testing.T) {
	// Every adjustment output must be valid formula text.
	texts := []string{
		"=A1+A10", "=SUM(A1:A10)*2", `=COUNTIF(B2:B9,"x")&"!"`,
		"=VLOOKUP(5,A1:C10,2,FALSE)", "=IF(A5>0,A6,A7)",
	}
	for _, text := range texts {
		for _, delta := range []int{3, -3} {
			out := Edit{Boundary: 4, Delta: delta, Rows: true}.Adjust(MustCompile(text), 0, 0)
			if _, err := Compile(out); err != nil {
				t.Errorf("adjusted %q -> %q does not recompile: %v", text, out, err)
			}
		}
	}
}

// TestEditRides pins the test a fill group's cells pass to keep their
// shared formula through a structural edit. The insert moves rows 4..
// (0-based) down by 2; the delete removes rows 4 and 5.
func TestEditRides(t *testing.T) {
	ins := Edit{Boundary: 4, Delta: 2, Rows: true}
	del := Edit{Boundary: 4, Delta: -2, Rows: true}
	cases := []struct {
		text        string
		edit        Edit
		dr, hostRow int
		clean       bool
	}{
		{"=A6+B6", ins, 0, 5, true},                       // moves with its host
		{"=A2+B2", ins, 0, 1, true},                       // above the edit, host too
		{"=A2", ins, 4, 5, true},                          // displaced onto A6
		{"=A6+$B$9", ins, 0, 5, false},                    // the anchor moves: not the group's form
		{"=A6*$B$2", ins, 0, 5, true},                     // the anchor stays
		{"=SUM(A2:A9)", ins, 0, 0, false},                 // straddles the edit
		{"=A6", ins, 0, 0, false},                         // host stays, reference moves
		{"=A5", del, 0, 7, false},                         // reads the deleted band
		{"=A8", del, 0, 4, false},                         // host deleted
		{"=$A$5", del, 0, 0, false},                       // anchor in the deleted band
		{"=other!A6", ins, 0, 5, false},                   // foreign cells do not move
		{"=other!A$6", ins, 0, 5, true},                   // ...unless anchored
		{"=other!A6", ins, 0, 0, true},                    // host stays: read unchanged
		{"=A1", ins, -1, 0, false},                        // reads off the sheet
		{"=other!A1:A2", ins, -1, 0, false},               // so does a foreign range
		{"=E6", Edit{Boundary: 4, Delta: 1}, 0, 5, false}, // column edit moves E, not the host D
	}
	for _, c := range cases {
		host := cell.Addr{Row: c.hostRow, Col: 3}
		if got := c.edit.Rides(MustCompile(c.text), c.dr, 0, host); got != c.clean {
			t.Errorf("%s dr=%d at %s under %+v: Rides = %v, want %v",
				c.text, c.dr, host, c.edit, got, c.clean)
		}
	}
}
