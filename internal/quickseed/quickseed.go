// Package quickseed seeds every testing/quick property test from one fixed
// source, so a Tier-1 run explores the same inputs every time and a
// failure reproduces exactly. Setting QUICK_SEED to another integer
// explores a different stream; unseeded exploration belongs to the nightly
// fuzz workflow, which sets a fresh QUICK_SEED per run.
package quickseed

import (
	"math/rand"
	"os"
	"strconv"
	"testing"
	"testing/quick"
)

// DefaultSeed drives quick.Check when QUICK_SEED is unset.
const DefaultSeed int64 = 20200614

// Config returns a quick.Config generating from the fixed seed (or the
// QUICK_SEED override). maxCount is quick's MaxCount; 0 keeps quick's
// default. When the test fails, the seed is logged so the failing run can
// be replayed with QUICK_SEED.
func Config(t testing.TB, maxCount int) *quick.Config {
	t.Helper()
	seed := DefaultSeed
	if env := os.Getenv("QUICK_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("QUICK_SEED=%q is not an integer: %v", env, err)
		}
		seed = v
	}
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("testing/quick seed %d (replay with QUICK_SEED=%d)", seed, seed)
		}
	})
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(seed))}
}
