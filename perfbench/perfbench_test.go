package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/costmodel"
)

// small returns a copy of the named workload at a test-sized row count.
func small(t *testing.T, name string) *workloadDef {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	c := *w
	c.Rows = 300
	return &c
}

func stream(w *workloadDef, seed uint64, rounds int) []action {
	g := newGen(w, seed)
	out := g.tour()
	for i := 0; i < rounds; i++ {
		out = append(out, g.round()...)
	}
	return out
}

func sameStream(a, b []action) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestStreamDependsOnlyOnSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := stream(w, 7, 3), stream(w, 7, 3)
		if !sameStream(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", w.Name)
		}
		if sameStream(a, stream(w, 8, 3)) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.Name)
		}
	}
}

// TestRoundOrder checks that a round holds exactly the workload's unit mix,
// in the same order in every round and for every seed, and that no unit
// runs twice in a row while another unit is still owed.
func TestRoundOrder(t *testing.T) {
	for _, w := range workloads {
		ord := w.order()
		var n [numUnits]int
		for i, u := range ord {
			n[u]++
			if i > 0 && ord[i-1] == u && u != uEdit {
				t.Errorf("%s: unit %d twice in a row at %d", w.Name, u, i)
			}
		}
		if n != w.Round {
			t.Errorf("%s: round holds %v, mix is %v", w.Name, n, w.Round)
		}
		classes := func(seed uint64) []class {
			g := newGen(w, seed)
			var out []class
			for r := 0; r < 2; r++ {
				for _, a := range g.round() {
					out = append(out, a.Cls)
				}
			}
			return out
		}
		a, b := classes(7), classes(8)
		if len(a) != len(b) {
			t.Fatalf("%s: seeds 7 and 8 gave rounds of %d and %d actions", w.Name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: seeds 7 and 8 differ in class order at action %d", w.Name, i)
				break
			}
		}
	}
}

// TestRunRepeats runs one round of each workload twice per seed: the meter
// counts must repeat exactly and allocs_per_op within 1%.
func TestRunRepeats(t *testing.T) {
	for _, name := range []string{"edit", "xsheet", "reorg"} {
		w := small(t, name)
		var work [2]costmodel.Meter
		var allocs [2]float64
		for i := range work {
			s, _, err := setUp(w, 3)
			if err != nil {
				t.Fatalf("%s: set-up: %v", name, err)
			}
			st := s.run(stopRule{maxRounds: 1}, 0, nil)
			if st.failed != 0 {
				t.Fatalf("%s: %d failed actions: %v", name, st.failed, st.errs)
			}
			if bad, first := checkOutput(s.e.Workbook()); bad != 0 {
				t.Fatalf("%s: output check: %d cells differ, first %s", name, bad, first)
			}
			work[i] = s.work
			t := st.all()
			allocs[i] = float64(t.mallocs) / float64(t.actions)
		}
		if work[0] != work[1] {
			t.Errorf("%s: meter counts differ between runs of one seed:\n%v\n%v", name, work[0], work[1])
		}
		if d := math.Abs(allocs[0]-allocs[1]) / allocs[0]; d > 0.01 {
			t.Errorf("%s: allocs_per_op %.0f vs %.0f differ by %.2f%%", name, allocs[0], allocs[1], 100*d)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{9, 0}, {19, 0}, {20, 50}, {100, 90}, {109, 90}, {110, 90}, {150, 93}, {1000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// The reported percentile has at least minBeyond samples above it, and
	// the next one up would not.
	for n := 20; n <= 400; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		p := tailPercentile(n)
		v := percentile(xs, float64(p))
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Fatalf("n=%d: p%d has %d samples beyond it", n, p, beyond)
		}
		if p < 99 {
			next := percentile(xs, float64(p+1))
			above := 0
			for _, x := range xs {
				if x > next {
					above++
				}
			}
			if above >= minBeyond {
				t.Fatalf("n=%d: p%d still has %d samples beyond it, but p%d was reported", n, p+1, above, p)
			}
		}
	}
}

func TestStopRuleNeedsEditsAndTime(t *testing.T) {
	st := &streamStats{}
	r := stopRule{budget: time.Second, minEdits: 2}
	st.lat[clsEdit] = []float64{1}
	if r.done(st, 2*time.Second) {
		t.Error("stopped with too few edits")
	}
	st.lat[clsEdit] = append(st.lat[clsEdit], 1)
	if r.done(st, time.Second/2) {
		t.Error("stopped before the budget")
	}
	if !r.done(st, time.Second) {
		t.Error("did not stop with budget spent and edits reached")
	}
}
