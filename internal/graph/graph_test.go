package graph

import (
	"testing"

	"repro/internal/cell"
)

func a(s string) cell.Addr { return cell.MustParseAddr(s) }
func r(s string) cell.Range {
	return cell.MustParseRange(s)
}

func TestDirectDependentsSmallRanges(t *testing.T) {
	g := New()
	g.SetFormula(a("B1"), []cell.Range{r("A1")})
	g.SetFormula(a("B2"), []cell.Range{r("A1:A2")})
	g.SetFormula(a("B3"), []cell.Range{r("A3")})

	deps := g.DirectDependents(a("A1"))
	if len(deps) != 2 {
		t.Fatalf("dependents of A1 = %v", deps)
	}
	if got := g.DirectDependents(a("A9")); len(got) != 0 {
		t.Errorf("dependents of untouched cell = %v", got)
	}
}

func TestDirectDependentsLargeRange(t *testing.T) {
	g := New()
	g.SetFormula(a("Z1"), []cell.Range{r("A1:A1000")}) // large -> interval entry
	if deps := g.DirectDependents(a("A500")); len(deps) != 1 || deps[0] != a("Z1") {
		t.Errorf("large-range dependent = %v", deps)
	}
	if deps := g.DirectDependents(a("B500")); len(deps) != 0 {
		t.Errorf("outside column = %v", deps)
	}
}

func TestDirtyTopologicalOrder(t *testing.T) {
	// Chain: B1 <- A1; C1 <- B1; D1 <- C1 (reusable-computation shape).
	g := New()
	g.SetFormula(a("B1"), []cell.Range{r("A1")})
	g.SetFormula(a("C1"), []cell.Range{r("B1")})
	g.SetFormula(a("D1"), []cell.Range{r("C1")})

	order, cyclic := g.Dirty([]cell.Addr{a("A1")})
	if len(cyclic) != 0 {
		t.Fatalf("unexpected cycles: %v", cyclic)
	}
	want := []cell.Addr{a("B1"), a("C1"), a("D1")}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("order[%d] = %v, want %v", i, order[i], want[i])
		}
	}
}

func TestDirtyOnlyAffected(t *testing.T) {
	g := New()
	g.SetFormula(a("B1"), []cell.Range{r("A1")})
	g.SetFormula(a("B2"), []cell.Range{r("A2")})
	order, _ := g.Dirty([]cell.Addr{a("A2")})
	if len(order) != 1 || order[0] != a("B2") {
		t.Errorf("order = %v, want [B2]", order)
	}
}

func TestDirtyDiamond(t *testing.T) {
	// A1 -> B1, B2; B1,B2 -> C1. C1 must come after both Bs, once.
	g := New()
	g.SetFormula(a("B1"), []cell.Range{r("A1")})
	g.SetFormula(a("B2"), []cell.Range{r("A1")})
	g.SetFormula(a("C1"), []cell.Range{r("B1"), r("B2")})
	order, cyclic := g.Dirty([]cell.Addr{a("A1")})
	if len(cyclic) != 0 || len(order) != 3 {
		t.Fatalf("order=%v cyclic=%v", order, cyclic)
	}
	if order[2] != a("C1") {
		t.Errorf("C1 must evaluate last, got %v", order)
	}
}

func TestCycleDetection(t *testing.T) {
	g := New()
	g.SetFormula(a("B1"), []cell.Range{r("C1")})
	g.SetFormula(a("C1"), []cell.Range{r("B1")})
	g.SetFormula(a("D1"), []cell.Range{r("A1")}) // independent

	order, cyclic := g.Dirty([]cell.Addr{a("A1"), a("B1")})
	if len(cyclic) != 2 {
		t.Errorf("cyclic = %v, want B1 and C1", cyclic)
	}
	found := false
	for _, o := range order {
		if o == a("D1") {
			found = true
		}
	}
	if !found {
		t.Errorf("acyclic dependent D1 missing from order %v", order)
	}
}

func TestAllFormulasOrder(t *testing.T) {
	g := New()
	g.SetFormula(a("C1"), []cell.Range{r("B1")})
	g.SetFormula(a("B1"), []cell.Range{r("A1")})
	g.SetFormula(a("E5"), []cell.Range{r("A1:A100")}) // large range, no formula inside

	order, cyclic := g.AllFormulas()
	if len(cyclic) != 0 || len(order) != 3 {
		t.Fatalf("order=%v cyclic=%v", order, cyclic)
	}
	posB, posC := -1, -1
	for i, o := range order {
		switch o {
		case a("B1"):
			posB = i
		case a("C1"):
			posC = i
		}
	}
	if posB > posC {
		t.Errorf("B1 must precede C1: %v", order)
	}
}

func TestAllFormulasLargeRangeDependency(t *testing.T) {
	// Z1 = SUM over column A where A5 is itself a formula: Z1 after A5.
	g := New()
	g.SetFormula(a("A5"), []cell.Range{r("B1")})
	g.SetFormula(a("Z1"), []cell.Range{r("A1:A1000")})
	order, cyclic := g.AllFormulas()
	if len(cyclic) != 0 || len(order) != 2 {
		t.Fatalf("order=%v cyclic=%v", order, cyclic)
	}
	if order[0] != a("A5") || order[1] != a("Z1") {
		t.Errorf("order = %v, want [A5 Z1]", order)
	}
}

func TestRemoveFormula(t *testing.T) {
	g := New()
	g.SetFormula(a("B1"), []cell.Range{r("A1"), r("C1:C1000")})
	if g.FormulaCount() != 1 {
		t.Fatal("count")
	}
	g.RemoveFormula(a("B1"))
	if g.FormulaCount() != 0 {
		t.Error("count after remove")
	}
	if deps := g.DirectDependents(a("A1")); len(deps) != 0 {
		t.Errorf("small-ref edge not removed: %v", deps)
	}
	if deps := g.DirectDependents(a("C500")); len(deps) != 0 {
		t.Errorf("large-range edge not removed: %v", deps)
	}
	g.RemoveFormula(a("B1")) // idempotent
}

func TestSetFormulaReplaces(t *testing.T) {
	g := New()
	g.SetFormula(a("B1"), []cell.Range{r("A1")})
	g.SetFormula(a("B1"), []cell.Range{r("A2")})
	if deps := g.DirectDependents(a("A1")); len(deps) != 0 {
		t.Errorf("old precedent still registered: %v", deps)
	}
	if deps := g.DirectDependents(a("A2")); len(deps) != 1 {
		t.Errorf("new precedent missing: %v", deps)
	}
}

func TestOpsCounter(t *testing.T) {
	g := New()
	g.SetFormula(a("B1"), []cell.Range{r("A1:A4")})
	if g.Ops() == 0 {
		t.Error("registration should count maintenance ops")
	}
	g.ResetOps()
	if g.Ops() != 0 {
		t.Error("ResetOps")
	}
	g.Dirty([]cell.Addr{a("A1")})
	if g.Ops() == 0 {
		t.Error("Dirty should count ops")
	}
}

func TestRead(t *testing.T) {
	g := New()
	g.SetFormula(a("B1"), []cell.Range{r("A1"), r("C1:C100")})
	for _, c := range []struct {
		at   string
		want bool
	}{{"A1", true}, {"C50", true}, {"B1", false}, {"C101", false}} {
		if got := g.Read(a(c.at)); got != c.want {
			t.Errorf("Read(%s) = %t, want %t", c.at, got, c.want)
		}
	}
	if g.ResetOps(); g.Read(a("A1")) && g.Ops() != 0 {
		t.Errorf("Read charged %d ops", g.Ops())
	}
}

func TestPrecedents(t *testing.T) {
	g := New()
	in := []cell.Range{r("A1"), r("B1:B3")}
	g.SetFormula(a("C1"), in)
	got := g.Precedents(a("C1"))
	if len(got) != 2 || got[0] != in[0] || got[1] != in[1] {
		t.Errorf("Precedents = %v", got)
	}
}

func TestManyIndependentFormulasOrderDeterministic(t *testing.T) {
	g := New()
	for i := 0; i < 100; i++ {
		g.SetFormula(cell.Addr{Row: i, Col: 10}, []cell.Range{{Start: cell.Addr{Row: i, Col: 2}, End: cell.Addr{Row: i, Col: 2}}})
	}
	o1, _ := g.AllFormulas()
	o2, _ := g.AllFormulas()
	if len(o1) != 100 || len(o2) != 100 {
		t.Fatal("length")
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatal("AllFormulas order must be deterministic")
		}
	}
	// Row-major sorted.
	for i := 1; i < len(o1); i++ {
		if o1[i].Row <= o1[i-1].Row {
			t.Fatalf("order not sorted at %d: %v", i, o1[i-1:i+1])
		}
	}
}

func TestTransitiveDependents(t *testing.T) {
	// A1 <- B1 <- C1, and D1 reads B1 through a large range; E1 is
	// unrelated. Blast radius of A1 is {B1, C1, D1}.
	g := New()
	g.SetFormula(a("B1"), []cell.Range{r("A1")})
	g.SetFormula(a("C1"), []cell.Range{r("B1")})
	g.SetFormula(a("D1"), []cell.Range{r("B1:B100")}) // > smallRangeMax cells
	g.SetFormula(a("E1"), []cell.Range{r("A9")})

	got := g.TransitiveDependents(a("A1"))
	want := []cell.Addr{a("B1"), a("C1"), a("D1")}
	if len(got) != len(want) {
		t.Fatalf("TransitiveDependents = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TransitiveDependents = %v, want %v (row-major order)", got, want)
		}
	}
	if n := len(g.TransitiveDependents(a("Z9"))); n != 0 {
		t.Errorf("untouched cell has %d dependents", n)
	}
}

func TestTransitiveDependentsDoesNotChargeOps(t *testing.T) {
	g := New()
	g.SetFormula(a("B1"), []cell.Range{r("A1")})
	g.SetFormula(a("C1"), []cell.Range{r("B1")})
	g.ResetOps()
	g.TransitiveDependents(a("A1"))
	if got := g.Ops(); got != 0 {
		t.Errorf("static traversal charged %d maintenance ops, want 0", got)
	}
}
