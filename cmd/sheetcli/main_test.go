package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/iolib"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// The fixture is the 200-row weather dataset with the analysis summary
// block: small enough to read, rich enough to trip five rules.
var fixtureArgs = []string{"-rows", "200"}

// runFunc is a subcommand's entry point: arguments, report and diagnostic
// streams in, exit status out.
type runFunc func(args []string, out, errOut io.Writer) int

// subcmd returns the named subcommand's entry point.
func subcmd(name string) runFunc { return lookup(name).run }

// golden runs a subcommand with the given flags and compares the output
// against (or, with -update, rewrites) the named golden file. Reports carry
// no wall-clock figures unless asked, so byte-exact goldens are stable
// across machines.
func golden(t *testing.T, run runFunc, name string, args []string) []byte {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run(%v) = %d, stderr: %s", args, code, errOut.String())
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run `go test ./cmd/sheetcli -run Golden -update` to create): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, out.Bytes(), want)
	}
	return out.Bytes()
}

// writeFixtureSvf saves the analysis fixture workbook as an .svf file.
func writeFixtureSvf(t *testing.T, path string) {
	t.Helper()
	wb := workload.Weather(workload.Spec{Rows: 200, Formulas: true, Analysis: true})
	if err := iolib.SaveWorkbook(path, wb); err != nil {
		t.Fatal(err)
	}
}

// writeFormulaOnlySvf saves the weather workbook without the analysis
// block — the fully sequencable fill-region fixture.
func writeFormulaOnlySvf(t *testing.T, path string) {
	t.Helper()
	wb := workload.Weather(workload.Spec{Rows: 200, Formulas: true})
	if err := iolib.SaveWorkbook(path, wb); err != nil {
		t.Fatal(err)
	}
}
