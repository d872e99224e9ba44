package cell

import (
	"testing"
	"testing/quick"

	"repro/internal/quickseed"
)

func TestColName(t *testing.T) {
	cases := []struct {
		col  int
		name string
	}{
		{0, "A"}, {1, "B"}, {25, "Z"}, {26, "AA"}, {27, "AB"},
		{51, "AZ"}, {52, "BA"}, {701, "ZZ"}, {702, "AAA"},
		{16383, "XFD"}, // Excel's documented last column
	}
	for _, c := range cases {
		if got := ColName(c.col); got != c.name {
			t.Errorf("ColName(%d) = %q, want %q", c.col, got, c.name)
		}
		back, err := ParseColName(c.name)
		if err != nil {
			t.Fatalf("ParseColName(%q): %v", c.name, err)
		}
		if back != c.col {
			t.Errorf("ParseColName(%q) = %d, want %d", c.name, back, c.col)
		}
	}
}

func TestColNameRoundTripProperty(t *testing.T) {
	f := func(col uint16) bool {
		c := int(col)
		back, err := ParseColName(ColName(c))
		return err == nil && back == c
	}
	if err := quick.Check(f, quickseed.Config(t, 0)); err != nil {
		t.Error(err)
	}
}

func TestParseColNameLowercase(t *testing.T) {
	got, err := ParseColName("ab")
	if err != nil || got != 27 {
		t.Errorf("ParseColName(ab) = %d, %v; want 27", got, err)
	}
}

func TestParseColNameErrors(t *testing.T) {
	for _, bad := range []string{"", "A1", "1A", "$", "A B"} {
		if _, err := ParseColName(bad); err == nil {
			t.Errorf("ParseColName(%q): expected error", bad)
		}
	}
}

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in   string
		want Addr
	}{
		{"A1", Addr{0, 0}},
		{"B12", Addr{11, 1}},
		{"$C$3", Addr{2, 2}},
		{"AA100", Addr{99, 26}},
		{"zz1", Addr{0, 701}},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.in)
		if err != nil {
			t.Fatalf("ParseAddr(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParseAddr(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseAddrErrors(t *testing.T) {
	for _, bad := range []string{"", "1", "A", "A0", "A-1", "A1B", "1A", "A1.5"} {
		if _, err := ParseAddr(bad); err == nil {
			t.Errorf("ParseAddr(%q): expected error", bad)
		}
	}
}

func TestAddrA1RoundTripProperty(t *testing.T) {
	f := func(row uint16, col uint16) bool {
		a := Addr{Row: int(row), Col: int(col)}
		back, err := ParseAddr(a.A1())
		return err == nil && back == a
	}
	if err := quick.Check(f, quickseed.Config(t, 0)); err != nil {
		t.Error(err)
	}
}

func TestRefAbsoluteMarkers(t *testing.T) {
	cases := []struct {
		in             string
		absRow, absCol bool
	}{
		{"A1", false, false},
		{"$A1", false, true},
		{"A$1", true, false},
		{"$A$1", true, true},
	}
	for _, c := range cases {
		r, err := ParseRef(c.in)
		if err != nil {
			t.Fatalf("ParseRef(%q): %v", c.in, err)
		}
		if r.AbsRow != c.absRow || r.AbsCol != c.absCol {
			t.Errorf("ParseRef(%q) abs = (%v,%v), want (%v,%v)",
				c.in, r.AbsRow, r.AbsCol, c.absRow, c.absCol)
		}
		if r.String() != c.in {
			t.Errorf("ParseRef(%q).String() = %q", c.in, r.String())
		}
	}
}

func TestAddrOffset(t *testing.T) {
	a := Addr{Row: 5, Col: 3}
	if got := a.Offset(2, -1); got != (Addr{Row: 7, Col: 2}) {
		t.Errorf("Offset = %v", got)
	}
	if !a.Valid() {
		t.Error("expected valid")
	}
	if (Addr{Row: -1}).Valid() {
		t.Error("negative row should be invalid")
	}
}

func TestRefShiftHonorsAnchors(t *testing.T) {
	cases := map[string]string{"B2": "D1", "$B2": "B1", "B$2": "D2", "$B$2": "B2"}
	for in, want := range cases {
		r, err := ParseRef(in)
		if err != nil {
			t.Fatal(err)
		}
		got := r.Shift(-1, 2)
		if got.Addr.A1() != want || got.AbsRow != r.AbsRow || got.AbsCol != r.AbsCol {
			t.Errorf("%s.Shift(-1, 2) = %+v, want %s with the flags kept", in, got, want)
		}
	}
	if r := (Ref{Addr: Addr{Row: 0, Col: 0}}); r.Shift(-1, 0).Addr.Valid() {
		t.Error("a relative row shifted above the sheet must be invalid")
	}
}

func TestRefAppendToMatchesString(t *testing.T) {
	for _, r := range []Ref{
		{Addr: Addr{Row: 0, Col: 0}},
		{Addr: Addr{Row: 9999, Col: 27}, AbsRow: true},
		{Addr: Addr{Row: 41, Col: 702}, AbsCol: true, AbsRow: true},
	} {
		if got := string(r.AppendTo(nil)); got != r.String() {
			t.Errorf("AppendTo = %q, String = %q", got, r.String())
		}
	}
}
