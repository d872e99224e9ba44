// Command perfbench is the engine's wall-clock benchmark. It runs one
// workload as a closed loop — one process, one goroutine, one client — and
// times every call into engine.Engine's public operations from here.
//
//	perfbench --workload edit --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the stream again under the engine's obs spans and counters and prints the
// per-layer attribution. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. README.md records
// the design.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// setUps is how many fresh set-ups one run times; setup_s is their median.
const setUps = 3

// minEdits is the edit count a timed stream must reach before it may stop,
// so that the edit p90 has at least minBeyond samples beyond it.
const minEdits = 100

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: edit, xsheet or reorg")
	seed := flag.Uint64("seed", 1, "seed of the dataset and the op stream")
	seconds := flag.Int("seconds", 20, "time budget of the measured stream")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload edit|xsheet|reorg, --seconds >=1, --trace 0|1\n")
		os.Exit(2)
	}
	budget := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, *seed, budget)
	} else {
		res, err = runEndToEnd(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// runEndToEnd times set-up and the untraced stream and checks the output.
func runEndToEnd(w *workloadDef, seed uint64, budget time.Duration) (*result, error) {
	var sess *session
	var setups []float64
	for i := 0; i < setUps; i++ {
		sess = nil // let the previous engine go before the next set-up's GC
		s, d, err := setUp(w, seed)
		if err != nil {
			return nil, err
		}
		sess = s
		setups = append(setups, d.Seconds())
	}
	heap := heapMB()
	st := sess.run(stopRule{budget: budget, minEdits: minEdits}, 0, nil)
	bad, first := checkOutput(sess.e.Workbook())

	printClasses(w, st)
	fmt.Printf("set-ups: %v s\n", setups)
	t := st.all()
	res := newResult(t.actions, st.failed, bad, first, st.errs)
	m := res.Metrics
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", median(setups))
	put("ops_per_s", "1/s", float64(t.actions)/t.wall.Seconds())
	put("edit_p50_ms", "ms", percentile(st.lat[clsEdit], 50))
	put("edit_p90_ms", "ms", percentile(st.lat[clsEdit], 90))
	for _, c := range []class{clsFormula, clsSort, clsRowEdit, clsFind, clsFilter, clsPivot, clsPaste} {
		put(c.String()+"_p50_ms", "ms", percentile(st.lat[c], 50))
	}
	put("heap_mb", "MB", heap)
	put("allocs_per_op", "allocs/op", float64(t.mallocs)/float64(t.actions))
	return res, finite(res)
}

// newResult fills the run's verdict. A failed output check fails every
// action of the run.
func newResult(attempted, failed, bad int, first string, errs []string) *result {
	for _, e := range errs {
		fmt.Printf("failed action: %s\n", e)
	}
	if bad > 0 {
		fmt.Printf("output check: %d cells differ from a from-scratch evaluation; first: %s\n", bad, first)
		failed = attempted
	} else {
		fmt.Printf("output check: every cell matches a from-scratch evaluation\n")
	}
	fmt.Printf("failed_ops_frac: %g (%d of %d actions)\n", float64(failed)/float64(attempted), failed, attempted)
	return &result{
		Correct:   bad == 0 && failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
}

// finite rejects a result that JSON cannot carry or that would mislead: a
// metric with no samples behind it.
func finite(r *result) error {
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has no value", name)
		}
	}
	return nil
}

// printClasses prints each class's sample count and quartiles, so that a
// percentile falling on a mode boundary shows.
func printClasses(w *workloadDef, st *streamStats) {
	t := st.all()
	fmt.Printf("%s: %d actions in %d rounds, %.2f s\n", w.Name, t.actions, len(st.rounds), t.wall.Seconds())
	for c := class(0); c < numClasses; c++ {
		xs := st.lat[c]
		if len(xs) == 0 {
			continue
		}
		tp := tailPercentile(len(xs))
		tail := "n/a"
		if tp > 0 {
			tail = fmt.Sprintf("p%d %.4f", tp, percentile(xs, float64(tp)))
		}
		fmt.Printf("  %-8s n=%-4d p25 %.4f  p50 %.4f  p75 %.4f  %s ms\n", c, len(xs),
			percentile(xs, 25), percentile(xs, 50), percentile(xs, 75), tail)
	}
	// Per-round figures show drift within the stream.
	fmt.Printf("  by round: edit p50 ms, ops/s:")
	for i, lo := range st.roundEdits {
		hi := len(st.lat[clsEdit])
		if i+1 < len(st.roundEdits) {
			hi = st.roundEdits[i+1]
		}
		r := st.rounds[i]
		fmt.Printf(" %.4f %.3f;", percentile(st.lat[clsEdit][lo:hi], 50), float64(r.actions)/r.wall.Seconds())
	}
	fmt.Println()
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// heapMB forces a GC and returns the live heap in MB.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
