package typecheck

import (
	"testing"

	"repro/internal/cell"
)

func TestAdmitsMembership(t *testing.T) {
	cases := []struct {
		ab   Abstract
		v    cell.Value
		want bool
	}{
		{Abstract{Kinds: KNumber}, cell.Num(1), true},
		{Abstract{Kinds: KNumber}, cell.Str("x"), false},
		{Abstract{Kinds: KNumber}, cell.Errorf(cell.ErrDiv0), false},
		{Abstract{Kinds: KNumber, Errs: EDiv0}, cell.Errorf(cell.ErrDiv0), true},
		{Abstract{Kinds: KNumber, Errs: EDiv0}, cell.Errorf(cell.ErrNA), false},
		{Abstract{Kinds: KEmpty}, cell.Value{}, true},
		{Top, cell.Errorf(cell.ErrCycle), true},
		{Abstract{}, cell.Value{}, false},
	}
	for _, c := range cases {
		if got := c.ab.Admits(c.v); got != c.want {
			t.Errorf("(%v).Admits(%v) = %v, want %v", c.ab, c.v, got, c.want)
		}
	}
}

func TestRenderings(t *testing.T) {
	if got := (Kinds(KNumber | KEmpty)).String(); got != "number|empty" {
		t.Errorf("Kinds.String = %q", got)
	}
	if got := (Errs(EDiv0 | ECycle)).String(); got != "#DIV/0!|#CYCLE!" {
		t.Errorf("Errs.String = %q", got)
	}
	ab := Abstract{Kinds: KNumber, Errs: EDiv0}
	if got := ab.String(); got != "number errs=#DIV/0!" {
		t.Errorf("Abstract.String = %q", got)
	}
	if got := (Abstract{}).String(); got != "bottom" {
		t.Errorf("bottom String = %q", got)
	}
}
