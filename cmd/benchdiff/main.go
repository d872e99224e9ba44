// Command benchdiff is the noise-aware bench regression gate: it diffs a
// candidate BENCH_engine.json against a committed baseline with
// internal/perfbase and prints a ranked verdict table.
//
//	benchdiff -baseline BENCH_baseline.json -candidate BENCH_engine.json
//
// Exit status: 0 when no benchmark regressed, 1 on regressions or when a
// baseline benchmark is missing from the candidate (a renamed or unrun
// benchmark would otherwise pass unjudged), 2 on usage or I/O errors. Timing regressions are judged on min-of-N ns/op
// against a relative threshold above a noise floor; allocation counts are
// matched exactly up to -allocs-slack (they are deterministic up to
// map-growth timing, so any increase beyond a hair is real).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
	"repro/internal/perfbase"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseline := fs.String("baseline", "BENCH_baseline.json", "committed baseline bench file")
	candidate := fs.String("candidate", "BENCH_engine.json", "candidate bench file to judge")
	threshold := fs.Float64("threshold", 0.20, "relative ns/op increase that fails the gate")
	minNs := fs.Float64("min-ns", 100, "noise floor: ns/op below which timing changes are ignored")
	allocsExact := fs.Bool("allocs-exact", true, "fail on allocs/op increases")
	allocsSlack := fs.Float64("allocs-slack", 0, "relative allocs/op increase tolerated under -allocs-exact (0.01 = 1%)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchdiff: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	base, err := loadBench(*baseline)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: baseline: %v\n", err)
		return 2
	}
	cand, err := loadBench(*candidate)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: candidate: %v\n", err)
		return 2
	}
	opt := perfbase.Options{NsThreshold: *threshold, MinNs: *minNs,
		AllocsExact: *allocsExact, AllocsSlack: *allocsSlack}
	diff := perfbase.Compare(base, cand, opt)
	if err := diff.WriteTable(stdout, opt); err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	if diff.HasRegressions() {
		return 1
	}
	if n := len(diff.Missing); n > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d baseline benchmark(s) missing from the candidate, first %s\n", n, diff.Missing[0].Name)
		return 1
	}
	return 0
}

func loadBench(path string) (*obs.BenchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return obs.ParseBenchFile(data)
}
