package cell

import (
	"testing"
	"testing/quick"

	"repro/internal/quickseed"
)

func TestRangeOfCanonicalizes(t *testing.T) {
	r := RangeOf(Addr{Row: 9, Col: 3}, Addr{Row: 2, Col: 7})
	if r.Start != (Addr{Row: 2, Col: 3}) || r.End != (Addr{Row: 9, Col: 7}) {
		t.Errorf("RangeOf = %v", r)
	}
	if r.Rows() != 8 || r.Cols() != 5 || r.Cells() != 40 {
		t.Errorf("dims: rows=%d cols=%d cells=%d", r.Rows(), r.Cols(), r.Cells())
	}
}

func TestRangeContains(t *testing.T) {
	r := MustParseRange("B2:D5")
	for _, in := range []string{"B2", "D5", "C3"} {
		if !r.Contains(MustParseAddr(in)) {
			t.Errorf("%s should contain %s", r, in)
		}
	}
	for _, out := range []string{"A2", "E5", "B1", "D6"} {
		if r.Contains(MustParseAddr(out)) {
			t.Errorf("%s should not contain %s", r, out)
		}
	}
}

func TestRangeOverlapsIntersect(t *testing.T) {
	a := MustParseRange("A1:C3")
	b := MustParseRange("B2:D4")
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Fatal("expected overlap")
	}
	got, ok := a.Intersect(b)
	if !ok || got != MustParseRange("B2:C3") {
		t.Errorf("Intersect = %v, %v", got, ok)
	}
	c := MustParseRange("E1:F2")
	if a.Overlaps(c) {
		t.Error("disjoint ranges should not overlap")
	}
	if _, ok := a.Intersect(c); ok {
		t.Error("disjoint ranges should not intersect")
	}
}

func TestRangeStringRoundTrip(t *testing.T) {
	for _, s := range []string{"A1:B10", "C5", "AA10:AB20"} {
		r := MustParseRange(s)
		back := MustParseRange(r.String())
		if back != r {
			t.Errorf("round trip %q -> %v -> %v", s, r, back)
		}
	}
}

func TestParseRangeErrors(t *testing.T) {
	for _, bad := range []string{"", ":", "A1:", ":B2", "A1:B2:C3", "1:2"} {
		if _, err := ParseRange(bad); err == nil {
			t.Errorf("ParseRange(%q): expected error", bad)
		}
	}
}

func TestRangeOverlapSymmetryProperty(t *testing.T) {
	f := func(r1, c1, r2, c2, r3, c3, r4, c4 uint8) bool {
		a := RangeOf(Addr{int(r1), int(c1)}, Addr{int(r2), int(c2)})
		b := RangeOf(Addr{int(r3), int(c3)}, Addr{int(r4), int(c4)})
		if a.Overlaps(b) != b.Overlaps(a) {
			return false
		}
		// Overlap iff some cell of a is contained in b.
		_, ok := a.Intersect(b)
		return ok == a.Overlaps(b)
	}
	if err := quick.Check(f, quickseed.Config(t, 0)); err != nil {
		t.Error(err)
	}
}

func TestRangeContainsIntersectConsistencyProperty(t *testing.T) {
	f := func(r1, c1, r2, c2, pr, pc uint8) bool {
		rng := RangeOf(Addr{int(r1), int(c1)}, Addr{int(r2), int(c2)})
		p := Addr{int(pr), int(pc)}
		single := SingleCell(p)
		return rng.Contains(p) == rng.Overlaps(single)
	}
	if err := quick.Check(f, quickseed.Config(t, 0)); err != nil {
		t.Error(err)
	}
}

func TestColRange(t *testing.T) {
	r := ColRange(4, 1, 100)
	if r.Cols() != 1 || r.Rows() != 100 || r.Start.Col != 4 {
		t.Errorf("ColRange = %v", r)
	}
}
