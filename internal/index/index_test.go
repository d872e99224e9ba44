package index

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cell"
	"repro/internal/quickseed"
)

func TestHashBasics(t *testing.T) {
	h := NewHash()
	h.Add(3, cell.Num(7))
	h.Add(1, cell.Num(7))
	h.Add(5, cell.Str("STORM"))
	if h.Len() != 3 || h.DistinctValues() != 2 {
		t.Fatalf("Len=%d Distinct=%d", h.Len(), h.DistinctValues())
	}
	row, _, ok := h.FirstRow(cell.Num(7), 0, 10)
	if !ok || row != 1 {
		t.Errorf("FirstRow = %d,%v", row, ok)
	}
	row, _, ok = h.FirstRow(cell.Num(7), 2, 10)
	if !ok || row != 3 {
		t.Errorf("FirstRow from 2 = %d,%v", row, ok)
	}
	if _, _, ok := h.FirstRow(cell.Num(8), 0, 10); ok {
		t.Error("missing value found")
	}
	// Case-insensitive text, like spreadsheet equality.
	if _, _, ok := h.FirstRow(cell.Str("storm"), 0, 10); !ok {
		t.Error("text lookup should be case-insensitive")
	}
	if n, _ := h.Count(cell.Num(7), 0, 10); n != 2 {
		t.Errorf("Count = %d", n)
	}
	if n, _ := h.Count(cell.Num(7), 2, 10); n != 1 {
		t.Errorf("range-restricted Count = %d", n)
	}
	h.Remove(1, cell.Num(7))
	if n, _ := h.Count(cell.Num(7), 0, 10); n != 1 {
		t.Errorf("Count after remove = %d", n)
	}
	h.Remove(1, cell.Num(7)) // idempotent
	h.Add(2, cell.Value{})   // empties not indexed
	if h.Len() != 2 {
		t.Errorf("Len = %d", h.Len())
	}
}

func TestHashReplace(t *testing.T) {
	h := NewHash()
	h.Add(4, cell.Num(1))
	h.Replace(4, cell.Num(1), cell.Num(2))
	if _, _, ok := h.FirstRow(cell.Num(1), 0, 10); ok {
		t.Error("old value still present")
	}
	if row, _, ok := h.FirstRow(cell.Num(2), 0, 10); !ok || row != 4 {
		t.Error("new value missing")
	}
}

// TestHashMatchesNaive: Count and FirstRow agree with a scan for random
// columns.
func TestHashMatchesNaive(t *testing.T) {
	f := func(vals []uint8, query uint8, lo8, hi8 uint8) bool {
		h := NewHash()
		col := make([]cell.Value, len(vals))
		for i, x := range vals {
			col[i] = cell.Num(float64(x % 8))
			h.Add(i, col[i])
		}
		q := cell.Num(float64(query % 8))
		lo := int(lo8) % (len(vals) + 1)
		hi := int(hi8) % (len(vals) + 1)
		if lo > hi {
			lo, hi = hi, lo
		}
		wantCount, wantFirst, found := 0, -1, false
		for i := lo; i <= hi && i < len(col); i++ {
			if col[i].Equal(q) {
				wantCount++
				if !found {
					wantFirst, found = i, true
				}
			}
		}
		gotCount, _ := h.Count(q, lo, hi)
		gotFirst, _, gotOK := h.FirstRow(q, lo, hi)
		if gotCount != wantCount || gotOK != found {
			return false
		}
		return !found || gotFirst == wantFirst
	}
	if err := quick.Check(f, quickseed.Config(t, 500)); err != nil {
		t.Error(err)
	}
}

func TestBTreeOrderedIteration(t *testing.T) {
	bt := NewBTree(4)
	r := rand.New(rand.NewSource(1))
	const n = 1000
	for i := 0; i < n; i++ {
		bt.Add(i, cell.Num(float64(r.Intn(100))))
	}
	if bt.Len() != n {
		t.Fatalf("Len = %d", bt.Len())
	}
	prev := cell.Num(-1)
	count := 0
	bt.Each(func(v cell.Value, row int) bool {
		if v.Compare(prev) < 0 {
			t.Fatalf("out of order: %v after %v", v, prev)
		}
		prev = v
		count++
		return true
	})
	if count != n {
		t.Errorf("visited %d", count)
	}
}

func TestBTreeCountMatchesNaive(t *testing.T) {
	f := func(vals []uint8, q uint8) bool {
		bt := NewBTree(6)
		for i, x := range vals {
			bt.Add(i, cell.Num(float64(x%16)))
		}
		query := cell.Num(float64(q % 16))
		wantLE, wantLT := 0, 0
		for _, x := range vals {
			v := float64(x % 16)
			if v <= query.Num {
				wantLE++
			}
			if v < query.Num {
				wantLT++
			}
		}
		le, _ := bt.CountLE(query)
		lt, _ := bt.CountLT(query)
		return le == wantLE && lt == wantLT
	}
	if err := quick.Check(f, quickseed.Config(t, 500)); err != nil {
		t.Error(err)
	}
}

func TestBTreeFloor(t *testing.T) {
	bt := NewBTree(4)
	for i, x := range []float64{10, 20, 30, 40} {
		bt.Add(i, cell.Num(x))
	}
	v, row, _, ok := bt.Floor(cell.Num(25))
	if !ok || v.Num != 20 || row != 1 {
		t.Errorf("Floor(25) = %v row=%d ok=%v", v, row, ok)
	}
	if _, _, _, ok := bt.Floor(cell.Num(5)); ok {
		t.Error("Floor below minimum should miss")
	}
	v, _, _, ok = bt.Floor(cell.Num(40))
	if !ok || v.Num != 40 {
		t.Errorf("Floor(40) = %v", v)
	}
}

func TestBTreeRemove(t *testing.T) {
	bt := NewBTree(4)
	for i := 0; i < 200; i++ {
		bt.Add(i, cell.Num(float64(i%10)))
	}
	if !bt.Remove(15, cell.Num(5)) {
		t.Fatal("remove existing failed")
	}
	if err := bt.check(); err != nil {
		t.Fatal(err)
	}
	if bt.Remove(15, cell.Num(5)) {
		t.Error("double remove should fail")
	}
	if bt.Len() != 199 {
		t.Errorf("Len = %d", bt.Len())
	}
	le, _ := bt.CountLE(cell.Num(5))
	if le != 119 { // 6 values (0..5) x 20 each, minus the removed one
		t.Errorf("CountLE(5) = %d, want 119", le)
	}
	if bt.Contains(15, cell.Num(5)) {
		t.Error("Contains after remove")
	}
	if !bt.Contains(25, cell.Num(5)) {
		t.Error("other duplicates must survive")
	}
}

func TestBTreeAddRemoveProperty(t *testing.T) {
	type op struct {
		Add bool
		Row uint8
		Val uint8
	}
	f := func(ops []op) bool {
		bt := NewBTree(4)
		ref := make(map[[2]int]bool)
		for i, o := range ops {
			row, val := int(o.Row%32), float64(o.Val%8)
			key := [2]int{row, int(val)}
			if o.Add && !ref[key] {
				bt.Add(row, cell.Num(val))
				ref[key] = true
			} else if !o.Add && ref[key] {
				if !bt.Remove(row, cell.Num(val)) {
					return false
				}
				delete(ref, key)
			} else if !o.Add && bt.Remove(row, cell.Num(val)) {
				t.Logf("op %d: removed absent pair (%d, %v)", i, row, val)
				return false
			}
			if err := bt.check(); err != nil {
				t.Logf("op %d (%+v): %v", i, o, err)
				return false
			}
		}
		if bt.Len() != len(ref) {
			return false
		}
		for key := range ref {
			if !bt.Contains(key[0], cell.Num(float64(key[1]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickseed.Config(t, 300)); err != nil {
		t.Error(err)
	}
}

func TestBTreeDepthLogarithmic(t *testing.T) {
	bt := NewBTree(32)
	for i := 0; i < 100000; i++ {
		bt.Add(i, cell.Num(float64(i)))
	}
	if d := bt.Depth(); d > 6 {
		t.Errorf("Depth = %d for 100k order-32 inserts", d)
	}
	_, probes := bt.CountLE(cell.Num(50000))
	if probes > 10 {
		t.Errorf("CountLE probes = %d, want logarithmic", probes)
	}
}

func TestInvertedIndex(t *testing.T) {
	ix := NewInverted()
	a1 := cell.Addr{Row: 0, Col: 0}
	a2 := cell.Addr{Row: 1, Col: 0}
	ix.Add(a1, "heavy STORM warning")
	ix.Add(a2, "storm")
	if ix.Tokens() != 4 || ix.DistinctTokens() != 3 {
		t.Fatalf("Tokens=%d Distinct=%d", ix.Tokens(), ix.DistinctTokens())
	}
	hits, probes := ix.Lookup("STORM")
	if len(hits) != 2 || probes != 1 {
		t.Errorf("Lookup = %v probes=%d", hits, probes)
	}
	// Nonexistent value: near-constant miss (§5.1.2).
	hits, probes = ix.Lookup("tornado")
	if len(hits) != 0 || probes != 1 {
		t.Errorf("miss = %v probes=%d", hits, probes)
	}
	ix.Replace(a2, "storm", "rain")
	hits, _ = ix.Lookup("storm")
	if len(hits) != 1 || hits[0] != a1 {
		t.Errorf("after replace: %v", hits)
	}
	ix.Remove(a1, "heavy STORM warning")
	if hits, _ := ix.Lookup("storm"); len(hits) != 0 {
		t.Errorf("after remove: %v", hits)
	}
}

func TestInvertedMultiToken(t *testing.T) {
	ix := NewInverted()
	a1 := cell.Addr{Row: 0, Col: 0}
	a2 := cell.Addr{Row: 1, Col: 0}
	ix.Add(a1, "heavy storm")
	ix.Add(a2, "heavy rain")
	hits, _ := ix.Lookup("heavy storm")
	if len(hits) != 1 || hits[0] != a1 {
		t.Errorf("intersection = %v", hits)
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Heavy STORM, 3.5in rain!")
	want := []string{"heavy", "storm", "3.5in", "rain"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q want %q", i, got[i], want[i])
		}
	}
}

func TestPrefixSums(t *testing.T) {
	vals := []float64{1, 2, 0, 4, 5}
	present := []bool{true, true, false, true, true}
	errs := []bool{false, false, true, false, false}
	p := NewPrefixSums(vals, present, errs)
	if p.Rows() != 5 {
		t.Fatal("Rows")
	}
	if got := p.Errors(0, 4); got != 1 {
		t.Errorf("Errors all = %v", got)
	}
	if got := p.Errors(3, 4); got != 0 {
		t.Errorf("Errors(3,4) = %v", got)
	}
	if got := p.Sum(0, 4); got != 12 {
		t.Errorf("Sum all = %v", got)
	}
	if got := p.Sum(1, 3); got != 6 {
		t.Errorf("Sum(1,3) = %v", got)
	}
	if got := p.Count(0, 4); got != 4 {
		t.Errorf("Count = %v", got)
	}
	if avg, ok := p.Average(0, 4); !ok || avg != 3 {
		t.Errorf("Average = %v,%v", avg, ok)
	}
	if _, ok := p.Average(2, 2); ok {
		t.Error("Average over non-numeric should miss")
	}
	// Clamping.
	if got := p.Sum(-5, 100); got != 12 {
		t.Errorf("clamped Sum = %v", got)
	}
	if got := p.Sum(3, 1); got != 0 {
		t.Errorf("inverted Sum = %v", got)
	}
	if p.Dirty() {
		t.Error("fresh prefix should be clean")
	}
	p.Update()
	if !p.Dirty() {
		t.Error("Update should mark dirty")
	}
}

func TestPrefixSumsMatchNaive(t *testing.T) {
	f := func(raw []uint8, lo8, hi8 uint8) bool {
		vals := make([]float64, len(raw))
		present := make([]bool, len(raw))
		for i, x := range raw {
			vals[i] = float64(x % 10)
			present[i] = x%3 != 0
		}
		p := NewPrefixSums(vals, present, nil)
		lo := int(lo8) % (len(raw) + 1)
		hi := int(hi8) % (len(raw) + 1)
		var wantSum float64
		wantCount := 0
		for i := lo; i <= hi && i < len(raw); i++ {
			if present[i] {
				wantSum += vals[i]
				wantCount++
			}
		}
		return p.Sum(lo, hi) == wantSum && p.Count(lo, hi) == wantCount
	}
	if err := quick.Check(f, quickseed.Config(t, 500)); err != nil {
		t.Error(err)
	}
}

func TestBTreeReplace(t *testing.T) {
	bt := NewBTree(2) // clamps to minimum order 4
	bt.Add(1, cell.Num(5))
	bt.Replace(1, cell.Num(5), cell.Num(9))
	if bt.Contains(1, cell.Num(5)) || !bt.Contains(1, cell.Num(9)) {
		t.Error("Replace did not swap the pair")
	}
	if bt.Len() != 1 {
		t.Errorf("Len = %d", bt.Len())
	}
}

func TestInvertedLookupSubstring(t *testing.T) {
	ix := NewInverted()
	a1 := cell.Addr{Row: 0, Col: 0}
	a2 := cell.Addr{Row: 1, Col: 0}
	a3 := cell.Addr{Row: 2, Col: 0}
	ix.Add(a1, "XSNOW warning")
	ix.Add(a2, "SNOW")
	ix.Add(a3, "RAIN")

	// Substring semantics: "SNOW" matches both the exact token and the
	// token containing it.
	hits, probes := ix.LookupSubstring("SNOW")
	if len(hits) != 2 {
		t.Errorf("hits = %v", hits)
	}
	// Probes are bounded by the vocabulary, not the cell count (§5.1.2).
	if probes != ix.DistinctTokens() {
		t.Errorf("probes = %d, want %d", probes, ix.DistinctTokens())
	}
	if hits, _ := ix.LookupSubstring("QQNO"); len(hits) != 0 {
		t.Errorf("absent = %v", hits)
	}
	// Multi-token queries fall back to exact intersection.
	if hits, _ := ix.LookupSubstring("XSNOW warning"); len(hits) != 1 || hits[0] != a1 {
		t.Errorf("multi-token = %v", hits)
	}
}

// TestBTreeDeleteHeavy drains deep trees in a random order with duplicate
// values, the shape of a long edit session over an indexed column: every
// removal must keep the invariants, and counts must match a naive tally
// until the tree is empty again.
func TestBTreeDeleteHeavy(t *testing.T) {
	for _, order := range []int{4, 5, 32} {
		bt := NewBTree(order)
		rng := rand.New(rand.NewSource(int64(order)))
		const n = 3000
		vals := make([]float64, n)
		live := make([]bool, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(50))
			live[i] = true
			bt.Add(i, cell.Num(vals[i]))
		}
		for step, i := range rng.Perm(n) {
			if !bt.Remove(i, cell.Num(vals[i])) {
				t.Fatalf("order %d: remove of live row %d failed", order, i)
			}
			live[i] = false
			if err := bt.check(); err != nil {
				t.Fatalf("order %d, step %d: %v", order, step, err)
			}
			if step%97 != 0 {
				continue
			}
			q := float64(rng.Intn(50))
			want := 0
			for j, v := range vals {
				if live[j] && v <= q {
					want++
				}
			}
			if got, _ := bt.CountLE(cell.Num(q)); got != want {
				t.Fatalf("order %d, step %d: CountLE(%v) = %d, want %d", order, step, q, got, want)
			}
		}
		if bt.Len() != 0 || bt.Depth() != 1 {
			t.Errorf("order %d: drained tree has Len %d, Depth %d", order, bt.Len(), bt.Depth())
		}
	}
}
