package main

import (
	"math"
	"runtime/metrics"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100),
// or NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// tailPercentile returns the highest whole percentile of n samples that
// still has at least minBeyond samples beyond its nearest rank, or 0 when
// even the median has fewer.
func tailPercentile(n int) int {
	for p := 99; p >= 50; p-- {
		rank := int(math.Ceil(float64(p) / 100 * float64(n)))
		if n-rank >= minBeyond {
			return p
		}
	}
	return 0
}

// gcCPU is a reading of the runtime's cumulative CPU-time classes.
type gcCPU struct{ gc, busy float64 }

var gcSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readGCCPU() gcCPU {
	s := make([]metrics.Sample, len(gcSamples))
	for i, n := range gcSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	return gcCPU{gc: f(0), busy: f(1) - f(2)}
}

// sub returns the CPU time spent since an earlier reading.
func (c gcCPU) sub(earlier gcCPU) gcCPU {
	return gcCPU{gc: c.gc - earlier.gc, busy: c.busy - earlier.busy}
}

// frac returns the GC share of busy CPU time.
func (c gcCPU) frac() float64 {
	if c.busy <= 0 {
		return 0
	}
	return c.gc / c.busy
}
