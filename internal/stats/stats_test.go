package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/quickseed"
)

func ms(xs ...int) []time.Duration {
	out := make([]time.Duration, len(xs))
	for i, x := range xs {
		out[i] = time.Duration(x) * time.Millisecond
	}
	return out
}

func TestTrimmedMean(t *testing.T) {
	// Paper protocol: drop min and max, average the rest.
	got := TrimmedMean(ms(1, 2, 3, 4, 100))
	if got != 3*time.Millisecond {
		t.Errorf("TrimmedMean = %v", got)
	}
	if TrimmedMean(nil) != 0 {
		t.Error("empty")
	}
	if TrimmedMean(ms(5)) != 5*time.Millisecond {
		t.Error("single sample")
	}
	if TrimmedMean(ms(2, 4)) != 3*time.Millisecond {
		t.Error("two samples average directly")
	}
}

func TestTrimmedMeanBoundsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]time.Duration, len(raw))
		lo, hi := time.Duration(math.MaxInt64), time.Duration(0)
		for i, x := range raw {
			samples[i] = time.Duration(x) * time.Microsecond
			if samples[i] < lo {
				lo = samples[i]
			}
			if samples[i] > hi {
				hi = samples[i]
			}
		}
		m := TrimmedMean(samples)
		return m >= lo && m <= hi
	}
	if err := quick.Check(f, quickseed.Config(t, 0)); err != nil {
		t.Error(err)
	}
}

func TestMeanStdDev(t *testing.T) {
	if Mean(ms(2, 4, 6)) != 4*time.Millisecond {
		t.Error("Mean")
	}
	if Mean(nil) != 0 {
		t.Error("Mean empty")
	}
	sd := StdDev(ms(2, 4, 6))
	if sd != 2*time.Millisecond {
		t.Errorf("StdDev = %v", sd)
	}
	if StdDev(ms(5)) != 0 {
		t.Error("StdDev of one sample")
	}
}

func TestFitShapeRecoversShapes(t *testing.T) {
	sizes := []int{1000, 5000, 10000, 50000, 100000, 200000}
	gen := func(f func(m float64) float64) []time.Duration {
		out := make([]time.Duration, len(sizes))
		for i, m := range sizes {
			out[i] = time.Duration(f(float64(m)))
		}
		return out
	}
	cases := []struct {
		name string
		f    func(m float64) float64
		want Shape
	}{
		{"constant", func(m float64) float64 { return 5e6 }, Constant},
		{"log", func(m float64) float64 { return 1e6 * math.Log2(m) }, Logarithmic},
		{"linear", func(m float64) float64 { return 1000 * m }, Linear},
		{"linear+const", func(m float64) float64 { return 2e8 + 1000*m }, Linear},
		{"quadratic", func(m float64) float64 { return 0.01 * m * m }, Quadratic},
	}
	for _, c := range cases {
		fit := FitShape(sizes, gen(c.f))
		if fit.Shape != c.want {
			t.Errorf("%s: fitted %v (R2=%.4f), want %v", c.name, fit.Shape, fit.R2, c.want)
		}
		if fit.R2 < 0.999 {
			t.Errorf("%s: R2 = %f", c.name, fit.R2)
		}
	}
}

func TestFitShapeLinearithmicVsLinearAmbiguity(t *testing.T) {
	// m log m over a small size span is nearly linear (the paper's §4.2.1
	// "deceptively linear trend"); accept either shape but require a good
	// fit.
	sizes := []int{10000, 100000, 500000}
	lat := make([]time.Duration, len(sizes))
	for i, m := range sizes {
		lat[i] = time.Duration(100 * float64(m) * math.Log2(float64(m)))
	}
	fit := FitShape(sizes, lat)
	if fit.Shape != Linearithmic && fit.Shape != Linear {
		t.Errorf("fitted %v", fit.Shape)
	}
	if fit.R2 < 0.99 {
		t.Errorf("R2 = %f", fit.R2)
	}
}

func TestFitShapeDegenerate(t *testing.T) {
	if fit := FitShape([]int{5}, ms(1)); fit.Shape != Constant {
		t.Errorf("single point: %v", fit.Shape)
	}
	if fit := FitShape(nil, nil); fit.Shape != Constant {
		t.Error("empty")
	}
	// Mismatched lengths.
	if fit := FitShape([]int{1, 2}, ms(1)); fit.Shape != Constant {
		t.Error("mismatch")
	}
}

func TestFitShapeNonNegativeSlope(t *testing.T) {
	// Decreasing latency must not fit a negative slope; constant wins.
	sizes := []int{1000, 2000, 3000}
	fit := FitShape(sizes, ms(30, 20, 10))
	if fit.B < 0 {
		t.Errorf("B = %v", fit.B)
	}
}

func TestInteractivityViolation(t *testing.T) {
	sizes := []int{150, 6000, 10000, 20000}
	lats := ms(10, 200, 600, 900)
	size, ok := InteractivityViolation(sizes, lats, 500*time.Millisecond)
	if !ok || size != 10000 {
		t.Errorf("violation = %d, %v", size, ok)
	}
	_, ok = InteractivityViolation(sizes, ms(1, 2, 3, 4), 500*time.Millisecond)
	if ok {
		t.Error("no violation expected")
	}
	// Unsorted input is handled.
	size, ok = InteractivityViolation([]int{20000, 150}, ms(900, 600), 500*time.Millisecond)
	if !ok || size != 150 {
		t.Errorf("unsorted = %d, %v", size, ok)
	}
}

func TestShapeString(t *testing.T) {
	for s, want := range map[Shape]string{
		Constant: "O(1)", Logarithmic: "O(log m)", Linear: "O(m)",
		Linearithmic: "O(m log m)", Quadratic: "O(m^2)",
	} {
		if s.String() != want {
			t.Errorf("%v", s)
		}
	}
}
