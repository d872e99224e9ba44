package formula

import (
	"testing"

	"repro/internal/cell"
)

func TestWalkVisitsAllNodes(t *testing.T) {
	c := MustCompile(`=IF(A1>0,SUM(B1:B4),-C1)`)
	var calls, refs, ranges int
	Walk(c.Root, func(n Node) {
		switch n.(type) {
		case CallNode:
			calls++
		case RefNode:
			refs++
		case RangeNode:
			ranges++
		}
	})
	if calls != 2 || refs != 2 || ranges != 1 {
		t.Errorf("calls=%d refs=%d ranges=%d, want 2/2/1", calls, refs, ranges)
	}
}

func TestChildren(t *testing.T) {
	c := MustCompile("=A1+SUM(B1,C1)")
	bin, ok := c.Root.(BinaryNode)
	if !ok {
		t.Fatalf("root = %T, want BinaryNode", c.Root)
	}
	if got := len(Children(bin)); got != 2 {
		t.Fatalf("binary children = %d, want 2", got)
	}
	call := Children(bin)[1].(CallNode)
	if got := len(Children(call)); got != 2 {
		t.Errorf("call children = %d, want 2", got)
	}
	if Children(NumberLit(1)) != nil {
		t.Error("literal should have no children")
	}
}

func TestShiftedTextTranslatesRelativeRefs(t *testing.T) {
	c := MustCompile(`=COUNTIF(C2,"STORM")+$D$1`)
	got := ShiftedText(c.Root, 3, 0)
	want := `(COUNTIF(C5,"STORM")+$D$1)`
	if got != want {
		t.Errorf("ShiftedText = %q, want %q", got, want)
	}
	// Zero displacement reproduces the canonical text.
	if zero := ShiftedText(c.Root, 0, 0); zero != Canonical(c.Root) {
		t.Errorf("ShiftedText(0,0) = %q, Canonical = %q", zero, Canonical(c.Root))
	}
}

func TestSubtreeHashMatchesShiftedText(t *testing.T) {
	// The streaming hash must agree with hashing the materialized text, and
	// shifted copies of a relative formula must collide exactly when their
	// effective references do.
	a := MustCompile("=SUM(A1:A10)*2")
	b := MustCompile("=SUM(A4:A13)*2")
	if SubtreeHash(a.Root, 3, 0) != SubtreeHash(b.Root, 0, 0) {
		t.Error("shift-equivalent subtrees should hash equal")
	}
	if SubtreeHash(a.Root, 0, 0) == SubtreeHash(b.Root, 0, 0) {
		t.Error("different effective ranges should hash differently")
	}
}

func TestIsVolatileFunc(t *testing.T) {
	for _, name := range []string{"NOW", "RAND", "OFFSET", "INDIRECT"} {
		if !IsVolatileFunc(name) {
			t.Errorf("IsVolatileFunc(%s) = false", name)
		}
	}
	if IsVolatileFunc("SUM") {
		t.Error("SUM is not volatile")
	}
}

// TestHashesAllocateNothing: the fingerprints stream the printed bytes
// into an inline FNV-1a hash, references through a stack buffer, so
// hashing a formula allocates nothing.
func TestHashesAllocateNothing(t *testing.T) {
	c := MustCompile(`=SUM($A$2:A200)+VLOOKUP(B2,other!A$2:C$9,3,FALSE)*IF(C2>5,"x",-D2%)`)
	host := cell.Addr{Row: 150, Col: 30}
	if n := testing.AllocsPerRun(100, func() { R1C1Hash(c.Root, 3, 1, host) }); n != 0 {
		t.Errorf("R1C1Hash allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { SubtreeHash(c.Root, 3, 1) }); n != 0 {
		t.Errorf("SubtreeHash allocates %v times per call", n)
	}
}
