package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/absint"
	"repro/internal/iolib"
	"repro/internal/sheet"
	"repro/internal/workload"
)

// runTypecheck implements the `sheetcli typecheck` subcommand: it loads a
// workbook (an .svf file argument, or a generated weather dataset with the
// analysis summary block) and prints the kind/error projection of the
// abstract interpreter (absint.TypecheckWorkbook) — per-column kind
// summaries with numeric certificates, error-possible formulas, and cells
// whose stored value disagrees with the inferred possibility set — without
// evaluating a single formula.
//
// Usage: sheetcli typecheck [-json] [-rows n] [-seed n] [-list n] [file.svf]
func runTypecheck(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("typecheck", flag.ContinueOnError)
	fs.SetOutput(errOut)
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	rows := fs.Int("rows", 5000, "rows of the generated weather dataset (ignored with a file argument)")
	seed := fs.Uint64("seed", 0, "generator seed; 0 means the default")
	list := fs.Int("list", 0, "max listed cells per sheet and section; 0 means the default, -1 uncaps")
	fs.Usage = func() {
		fmt.Fprintln(errOut, "usage: sheetcli typecheck [-json] [-rows n] [-seed n] [-list n] [file.svf]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *rows < 0 {
		fmt.Fprintln(errOut, "sheetcli: -rows must be non-negative")
		return 2
	}

	var wb *sheet.Workbook
	if fs.NArg() > 0 {
		res, err := iolib.LoadWorkbook(fs.Arg(0))
		if err != nil {
			fmt.Fprintf(errOut, "sheetcli: %v\n", err)
			return 1
		}
		wb = res.Workbook
	} else {
		wb = workload.Weather(workload.Spec{
			Rows: *rows, Formulas: true, Seed: *seed, Analysis: true,
		})
	}

	res := absint.TypecheckWorkbook(wb, absint.TypeReportOptions{MaxList: *list})
	var err error
	if *jsonOut {
		err = res.WriteJSON(out)
	} else {
		err = res.WriteText(out)
	}
	if err != nil {
		fmt.Fprintf(errOut, "sheetcli: %v\n", err)
		return 1
	}
	return 0
}
