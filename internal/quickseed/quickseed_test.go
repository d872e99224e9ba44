package quickseed

import (
	"testing"
	"testing/quick"
)

// TestConfigDeterministic checks two configs from the same seed generate
// the same inputs, and that QUICK_SEED selects a different stream.
func TestConfigDeterministic(t *testing.T) {
	t.Setenv("QUICK_SEED", "")
	draw := func() []int64 {
		var out []int64
		f := func(x int64) bool { out = append(out, x); return true }
		if err := quick.Check(f, Config(t, 5)); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := draw(), draw()
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("drew %d and %d values, want 5 each", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %d vs %d", i, a[i], b[i])
		}
	}
	t.Setenv("QUICK_SEED", "7")
	c := draw()
	same := true
	for i := range a {
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("QUICK_SEED=7 drew the default seed's stream")
	}
}
