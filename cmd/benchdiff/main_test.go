package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func writeBench(t *testing.T, dir, name string, rs []obs.BenchResult) string {
	t.Helper()
	data, err := json.MarshalIndent(obs.BenchFile{Schema: obs.BenchSchema, Benchmarks: rs}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func result(name string, ns, allocs float64) obs.BenchResult {
	return obs.BenchResult{Name: name, Iterations: 10, NsPerOp: ns,
		AllocsPerOp: allocs, Samples: 3}
}

func TestBenchdiffIdenticalExitsZero(t *testing.T) {
	dir := t.TempDir()
	rs := []obs.BenchResult{
		result("BenchmarkRecalc/weather", 125000, 42),
		result("BenchmarkLookup/ledger", 9000, 7),
	}
	base := writeBench(t, dir, "base.json", rs)
	cand := writeBench(t, dir, "cand.json", rs)
	var out, errb bytes.Buffer
	code := run([]string{"-baseline", base, "-candidate", cand}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d on identical files, want 0; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "PASS") {
		t.Fatalf("table missing PASS:\n%s", out.String())
	}
}

func TestBenchdiffRegressionExitsOne(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", []obs.BenchResult{result("BenchmarkRecalc/weather", 100000, 42)})
	cand := writeBench(t, dir, "cand.json", []obs.BenchResult{result("BenchmarkRecalc/weather", 125000, 42)})
	var out, errb bytes.Buffer
	code := run([]string{"-baseline", base, "-candidate", cand}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d on 25%% regression, want 1; stdout:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL") || !strings.Contains(out.String(), "BenchmarkRecalc/weather") {
		t.Fatalf("table should name the regressed benchmark:\n%s", out.String())
	}
}

func TestBenchdiffDeterministicOutput(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", []obs.BenchResult{
		result("BenchmarkA", 1000, 5), result("BenchmarkB", 1000, 5),
	})
	cand := writeBench(t, dir, "cand.json", []obs.BenchResult{
		result("BenchmarkB", 1400, 5), result("BenchmarkA", 1300, 6),
	})
	var one, two bytes.Buffer
	run([]string{"-baseline", base, "-candidate", cand}, &one, io.Discard)
	run([]string{"-baseline", base, "-candidate", cand}, &two, io.Discard)
	if one.String() != two.String() {
		t.Fatalf("output not deterministic:\n%s\nvs\n%s", one.String(), two.String())
	}
}

// TestBenchdiffMissingRowExitsOne: a baseline row absent from the
// candidate fails the gate, so a candidate whose names do not match the
// baseline (a -N GOMAXPROCS suffix, a renamed benchmark) cannot pass with
// nothing compared.
func TestBenchdiffMissingRowExitsOne(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", []obs.BenchResult{result("BenchmarkRecalc/weather", 100000, 42)})
	cand := writeBench(t, dir, "cand.json", []obs.BenchResult{result("BenchmarkRecalc/weather-2", 100000, 42)})
	var out, errb bytes.Buffer
	code := run([]string{"-baseline", base, "-candidate", cand}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d with the baseline row missing from the candidate, want 1; stdout:\n%s", code, out.String())
	}
	if !strings.Contains(errb.String(), "BenchmarkRecalc/weather") {
		t.Fatalf("stderr should name the missing benchmark: %s", errb.String())
	}
}

func TestBenchdiffMissingFileExitsTwo(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-baseline", "/nonexistent/base.json", "-candidate", "/nonexistent/cand.json"}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit %d on missing baseline, want 2", code)
	}
}

func TestBenchdiffRejectsV1Schema(t *testing.T) {
	dir := t.TempDir()
	v1 := `{"schema":"spreadbench-bench/v1","benchmarks":[]}`
	path := filepath.Join(dir, "old.json")
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code := run([]string{"-baseline", path, "-candidate", path}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit %d on v1 schema, want 2", code)
	}
	if !strings.Contains(errb.String(), "no longer supported") {
		t.Fatalf("stderr should explain the schema rejection: %s", errb.String())
	}
}
