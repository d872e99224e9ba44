package formula

import (
	"testing"
	"testing/quick"

	"repro/internal/cell"
	"repro/internal/quickseed"
)

func TestCompileExtractsRefs(t *testing.T) {
	c := MustCompile("=A1+SUM(B2:C10)+$D$4")
	if len(c.Refs) != 2 {
		t.Fatalf("Refs = %v", c.Refs)
	}
	if c.Refs[0].Addr != cell.MustParseAddr("A1") || c.Refs[1].Addr != cell.MustParseAddr("D4") {
		t.Errorf("Refs = %v", c.Refs)
	}
	if len(c.Ranges) != 1 || c.Ranges[0] != cell.MustParseRange("B2:C10") {
		t.Errorf("Ranges = %v", c.Ranges)
	}
	if !c.HasAbsolute {
		t.Error("HasAbsolute should be true")
	}
	if c.Volatile {
		t.Error("should not be volatile")
	}
	if got := c.PrecedentCells(); got != 2+18 {
		t.Errorf("PrecedentCells = %d, want 20", got)
	}
}

func TestCompileTextNormalization(t *testing.T) {
	c := MustCompile("SUM(A1:A3)") // leading '=' optional
	if c.Text != "=SUM(A1:A3)" {
		t.Errorf("Text = %q", c.Text)
	}
}

func TestFingerprintEquivalence(t *testing.T) {
	a := MustCompile("=sum(a1:a3)")
	b := MustCompile("=SUM(A1:A3)")
	c := MustCompile("=SUM(A1:A4)")
	if !a.EquivalentTo(b) {
		t.Error("case-differing formulae should be equivalent")
	}
	if a.EquivalentTo(c) {
		t.Error("different ranges should not be equivalent")
	}
	if a.Fingerprint != b.Fingerprint {
		t.Error("fingerprints should match for equivalent formulae")
	}
}

func TestFingerprintStabilityProperty(t *testing.T) {
	// Compiling the same text twice always yields the same fingerprint.
	texts := []string{
		"=A1+B2", "=SUM(A1:Z99)", `=COUNTIF(C2,"STORM")`, "=IF(A1>0,1,-1)",
		"=VLOOKUP(5,A1:B10,2,TRUE)",
	}
	f := func(i uint8) bool {
		text := texts[int(i)%len(texts)]
		return MustCompile(text).Fingerprint == MustCompile(text).Fingerprint
	}
	if err := quick.Check(f, quickseed.Config(t, 0)); err != nil {
		t.Error(err)
	}
}

func TestVolatileDetection(t *testing.T) {
	for _, text := range []string{
		"=NOW()", "=TODAY()+1", "=IF(A1,RAND(),2)", "=RANDBETWEEN(1,6)",
		// OFFSET and INDIRECT compute their reference targets at run time;
		// all three modeled systems treat them as volatile.
		"=OFFSET(A1,1,0)", "=INDIRECT(\"A1\")", "=SUM(A1:A3)+OFFSET(B1,0,1)",
	} {
		if !MustCompile(text).Volatile {
			t.Errorf("%s should be volatile", text)
		}
	}
	for _, text := range []string{"=SUM(A1:A3)", "=VLOOKUP(5,A1:B10,2)"} {
		if MustCompile(text).Volatile {
			t.Errorf("%s should not be volatile", text)
		}
	}
}

func TestRowLocal(t *testing.T) {
	at := cell.MustParseAddr("K2")
	cases := []struct {
		text string
		want bool
	}{
		{`=COUNTIF(C2,"STORM")`, true}, // same-row relative ref
		{"=A2+B2", true},               // same-row refs
		{"=A1+B2", false},              // reads another row
		{"=$A$2+B2", false},            // absolute component
		{"=SUM(A2:J2)", true},          // single-row range in own row
		{"=SUM(A1:A2)", false},         // multi-row range
		{"=NOW()", false},              // volatile
		{"=1+2", true},                 // no refs at all
	}
	for _, c := range cases {
		if got := MustCompile(c.text).RowLocal(at); got != c.want {
			t.Errorf("RowLocal(%s at K2) = %v, want %v", c.text, got, c.want)
		}
	}
}

func TestPrecedentRangesTranslation(t *testing.T) {
	c := MustCompile("=A1+$B$1+SUM(C1:C3)")
	got := c.PrecedentRanges(2, 0)
	want := []cell.Range{
		cell.SingleCell(cell.MustParseAddr("A3")), // relative, shifted
		cell.SingleCell(cell.MustParseAddr("B1")), // absolute, fixed
		cell.MustParseRange("C3:C5"),              // relative range, shifted
	}
	if len(got) != len(want) {
		t.Fatalf("PrecedentRanges = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("PrecedentRanges[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRewriteRelative(t *testing.T) {
	cases := []struct {
		text   string
		dr, dc int
		want   string
	}{
		{"=A1+B1", 1, 0, "=(A2+B2)"},
		{"=$A$1+B1", 1, 1, "=($A$1+C2)"},
		{"=SUM(A1:A3)", 0, 2, "=SUM(C1:C3)"},
		{"=A$1+$B2", 3, 3, "=(D$1+$B5)"},
		{`=COUNTIF(C2,"STORM")`, 5, 0, `=COUNTIF(C7,"STORM")`},
		{"=A1", -5, 0, "=#REF!"}, // shifted off the sheet
	}
	for _, c := range cases {
		got := MustCompile(c.text).RewriteRelative(c.dr, c.dc)
		if got != c.want {
			t.Errorf("RewriteRelative(%s, %d, %d) = %q, want %q", c.text, c.dr, c.dc, got, c.want)
		}
	}
}

func TestRewriteRelativeReparses(t *testing.T) {
	// Rewritten formulae must stay parseable and equivalent to shifting.
	f := func(dr, dc uint8) bool {
		c := MustCompile("=A5+SUM(B5:B9)*$C$1")
		out := c.RewriteRelative(int(dr%20), int(dc%20))
		_, err := Compile(out)
		return err == nil
	}
	if err := quick.Check(f, quickseed.Config(t, 0)); err != nil {
		t.Error(err)
	}
}

func TestCompileError(t *testing.T) {
	if _, err := Compile("=SUM("); err == nil {
		t.Error("expected compile error")
	}
}

func TestFunctionRegistry(t *testing.T) {
	if !HasFunction("SUM") || HasFunction("sum") {
		t.Error("registry should hold uppercase names only")
	}
	if n := FunctionCount(); n < 50 {
		t.Errorf("FunctionCount = %d, want a broad library (>= 50)", n)
	}
}
