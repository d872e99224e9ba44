// Command sheetcli is an interactive REPL over the spreadsheet engine: it
// lets you poke any system profile by hand and see each operation's
// simulated and wall cost — useful for sanity-checking the benchmark's
// calibrated behaviors.
//
// Usage: sheetcli [-system excel|calc|sheets|optimized] [file.svf]
//
//	sheetcli analyze [-json] [-rows n] [file.svf]
//
// runs the static analyzer (internal/analyze) over a workbook and exits;
// see analyze.go.
//
//	sheetcli typecheck [-json] [-rows n] [file.svf]
//
// prints the kind/error projection of the abstract interpreter
// (internal/absint) for a workbook and exits; see typecheck.go.
//
//	sheetcli regions [-json] [-rows n] [file.svf]
//
// runs the fill-region inference (internal/regions) over a workbook and
// reports formula-set compression and region-graph sequencability; see
// regions.go.
//
//	sheetcli interfere [-json] [-rows n] [file.svf]
//
// runs the parallel-safety certification (internal/interfere) over a
// workbook and reports certified stages and blockers; see interfere.go.
//
//	sheetcli absint [-json] [-rows n] [file.svf]
//
// runs the abstract-interpretation value analysis (internal/absint) over a
// workbook and reports the per-column interval/sortedness/error-freedom
// certificates and certified constants the optimized engine consumes; see
// absint.go.
//
//	sheetcli plan [-json] [-rows n] [-max n] [file.svf]
//
// runs the cost-based recalculation planner (internal/plan) over a workbook
// and reports per-column statistics, the chosen strategy at every operation
// site with the alternatives it beat, the predicted steady-state recalc
// work, and the plan certificate; see plan.go.
//
//	sheetcli trace [-system p] [-rows n] [-script ops] [-json] [file.svf]
//
// runs a scripted operation sequence with the observability layer on and
// prints the span tree plus 500 ms interactivity SLO verdicts; see trace.go.
//
//	sheetcli drift [-system planned] [-rows n] [-script ops] [-json] [file.svf]
//
// runs a scripted operation sequence under a cost-planned profile and
// reports predicted-versus-measured work at every planner gate — the
// plan-drift monitor's calibration verdict; see drift.go.
//
// Commands (addresses in A1 notation, columns as letters):
//
//	set A1 <value|=FORMULA>   write a cell
//	get A1                    read a cell
//	show [rows]               print the top of the sheet
//	analyze                   run the static analyzer on the workbook
//	typecheck                 print the kind/error projection of absint
//	regions                   run the fill-region inference
//	interfere                 run the parallel-safety certification
//	absint                    run the abstract value analysis
//	plan                      run the cost-based recalc planner
//	sort <col> [asc|desc]     sort by column
//	filter <col> <value>      filter rows; "filter off" clears
//	pivot <dim> <measure>     pivot table into a new sheet
//	find <x> <y>              find-and-replace
//	trace on|off|dump         record spans for later ops; dump the tree
//	gen <rows> [F|V] [w]      load a generated dataset (default weather)
//	open <path>               open an SVF workbook
//	save <path>               save the workbook
//	help, quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/absint"
	"repro/internal/analyze"
	"repro/internal/cell"
	"repro/internal/engine"
	"repro/internal/iolib"
	"repro/internal/obs"
	"repro/internal/sheet"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "analyze" {
		os.Exit(runAnalyze(os.Args[2:], os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "typecheck" {
		os.Exit(runTypecheck(os.Args[2:], os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "regions" {
		os.Exit(runRegions(os.Args[2:], os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "interfere" {
		os.Exit(runInterfere(os.Args[2:], os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "absint" {
		os.Exit(runAbsint(os.Args[2:], os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "plan" {
		os.Exit(runPlan(os.Args[2:], os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		os.Exit(runTrace(os.Args[2:], os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "drift" {
		os.Exit(runDrift(os.Args[2:], os.Stdout, os.Stderr))
	}

	system := flag.String("system", "excel", "system profile")
	flag.Parse()

	prof, ok := engine.Profiles()[*system]
	if !ok {
		fmt.Fprintf(os.Stderr, "sheetcli: unknown system %q\n", *system)
		os.Exit(2)
	}
	eng := engine.New(prof)

	if flag.NArg() > 0 {
		if res, err := eng.Open(flag.Arg(0)); err != nil {
			fmt.Fprintf(os.Stderr, "sheetcli: %v\n", err)
			os.Exit(1)
		} else {
			fmt.Printf("opened %s (sim %v)\n", flag.Arg(0), res.Sim)
		}
	} else {
		wb := workload.Weather(workload.Spec{Rows: 100, Formulas: true})
		if err := eng.Install(wb); err != nil {
			fmt.Fprintf(os.Stderr, "sheetcli: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("loaded a 100-row weather dataset; try: show, or gen 10000 F")
	}

	in := bufio.NewScanner(os.Stdin)
	fmt.Printf("%s> ", prof.Name)
	for in.Scan() {
		line := strings.TrimSpace(in.Text())
		if line != "" && !dispatch(eng, line) {
			return
		}
		fmt.Printf("%s> ", prof.Name)
	}
}

// dispatch runs one command; it returns false to quit.
func dispatch(eng *engine.Engine, line string) bool {
	args := strings.Fields(line)
	cmd := strings.TrimPrefix(strings.ToLower(args[0]), ":")
	s := eng.Workbook().First()
	fail := func(err error) bool {
		fmt.Println("error:", err)
		return true
	}

	switch cmd {
	case "quit", "exit", "q":
		return false

	case "help":
		fmt.Println("set get show analyze typecheck regions interfere absint plan sort filter pivot find trace gen open save quit")

	case "analyze":
		rep := analyze.Workbook(eng.Workbook(), analyze.Options{})
		if err := rep.WriteText(os.Stdout); err != nil {
			return fail(err)
		}

	case "typecheck":
		res := absint.TypecheckWorkbook(eng.Workbook(), absint.TypeReportOptions{})
		if err := res.WriteText(os.Stdout); err != nil {
			return fail(err)
		}

	case "regions":
		if err := regionsReportFor(eng.Workbook()).writeText(os.Stdout, 20); err != nil {
			return fail(err)
		}

	case "interfere":
		if err := interfereReportFor(eng.Workbook()).writeText(os.Stdout, 20); err != nil {
			return fail(err)
		}

	case "absint":
		if err := absintReportFor(eng.Workbook()).writeText(os.Stdout, 20); err != nil {
			return fail(err)
		}

	case "plan":
		if err := planReportFor(eng.Workbook()).writeText(os.Stdout, 20); err != nil {
			return fail(err)
		}

	case "set":
		if len(args) < 3 {
			fmt.Println("usage: set A1 <value|=FORMULA>")
			return true
		}
		a, err := cell.ParseAddr(args[1])
		if err != nil {
			return fail(err)
		}
		raw := strings.Join(args[2:], " ")
		if strings.HasPrefix(raw, "=") {
			v, res, err := eng.InsertFormula(s, a, raw)
			if err != nil {
				return fail(err)
			}
			fmt.Printf("%s = %s  (sim %v, wall %v)\n", a, v.AsString(), res.Sim, res.Wall)
			return true
		}
		v := cell.Str(raw)
		if f, err := strconv.ParseFloat(raw, 64); err == nil {
			v = cell.Num(f)
		}
		res, err := eng.SetCell(s, a, v)
		if err != nil {
			return fail(err)
		}
		fmt.Printf("ok (sim %v)\n", res.Sim)

	case "get":
		if len(args) != 2 {
			fmt.Println("usage: get A1")
			return true
		}
		a, err := cell.ParseAddr(args[1])
		if err != nil {
			return fail(err)
		}
		v, res := eng.CellValue(s, a)
		fmt.Printf("%s = %s  (sim %v)\n", a, v.AsString(), res.Sim)

	case "show":
		n := 10
		if len(args) > 1 {
			if k, err := strconv.Atoi(args[1]); err == nil {
				n = k
			}
		}
		showSheet(s, n)

	case "sort":
		if len(args) < 2 {
			fmt.Println("usage: sort <col> [asc|desc]")
			return true
		}
		col, err := cell.ParseColName(args[1])
		if err != nil {
			return fail(err)
		}
		asc := len(args) < 3 || strings.ToLower(args[2]) != "desc"
		res, err := eng.Sort(s, col, asc, 1)
		if err != nil {
			return fail(err)
		}
		fmt.Printf("sorted (sim %v, wall %v)\n", res.Sim, res.Wall)

	case "filter":
		if len(args) == 2 && strings.ToLower(args[1]) == "off" {
			eng.ClearFilter(s)
			fmt.Println("filter cleared")
			return true
		}
		if len(args) != 3 {
			fmt.Println("usage: filter <col> <value> | filter off")
			return true
		}
		col, err := cell.ParseColName(args[1])
		if err != nil {
			return fail(err)
		}
		kept, res, err := eng.Filter(s, col, cell.Str(args[2]), 1)
		if err != nil {
			return fail(err)
		}
		fmt.Printf("%d rows visible (sim %v)\n", kept, res.Sim)

	case "pivot":
		if len(args) != 3 {
			fmt.Println("usage: pivot <dimcol> <measurecol>")
			return true
		}
		dim, err := cell.ParseColName(args[1])
		if err != nil {
			return fail(err)
		}
		meas, err := cell.ParseColName(args[2])
		if err != nil {
			return fail(err)
		}
		out, res, err := eng.PivotTable(s, dim, meas, 1)
		if err != nil {
			return fail(err)
		}
		fmt.Printf("pivot -> sheet %q, %d groups (sim %v)\n", out.Name, out.Rows()-1, res.Sim)
		showSheet(out, 10)

	case "find":
		if len(args) != 3 {
			fmt.Println("usage: find <x> <y>")
			return true
		}
		n, res, err := eng.FindReplace(s, args[1], args[2])
		if err != nil {
			return fail(err)
		}
		fmt.Printf("replaced in %d cells (sim %v)\n", n, res.Sim)

	case "trace":
		if len(args) != 2 {
			fmt.Println("usage: trace on|off|dump")
			return true
		}
		switch strings.ToLower(args[1]) {
		case "on":
			obs.Reset()
			obs.SetEnabled(true)
			fmt.Println("tracing on; run some ops, then: trace dump")
		case "off":
			obs.SetEnabled(false)
			fmt.Println("tracing off")
		case "dump":
			tr := obs.Take()
			rep := obs.CheckTrace(tr, obs.DefaultSLOBound)
			if err := writeTraceText(os.Stdout, tr, rep, obs.TreeOptions{Durations: true, MaxSpans: 200}); err != nil {
				return fail(err)
			}
		default:
			fmt.Println("usage: trace on|off|dump")
		}

	case "gen":
		if len(args) < 2 {
			fmt.Println("usage: gen <rows> [F|V] [workload]")
			return true
		}
		rows, err := strconv.Atoi(args[1])
		if err != nil || rows <= 0 {
			fmt.Println("bad row count")
			return true
		}
		formulas := len(args) > 2 && strings.EqualFold(args[2], "F")
		name := "weather"
		if len(args) > 3 {
			name = strings.ToLower(args[3])
		}
		gen, ok := workload.ByName(name)
		if !ok {
			fmt.Printf("unknown workload %q; have %s\n", name, strings.Join(workload.Names(), ", "))
			return true
		}
		wb := gen.Build(workload.Spec{Rows: rows, Formulas: formulas})
		if err := eng.Install(wb); err != nil {
			return fail(err)
		}
		fmt.Printf("loaded %d %s rows (%s)\n", rows, gen.Name,
			map[bool]string{true: "Formula-value", false: "Value-only"}[formulas])

	case "open":
		if len(args) != 2 {
			fmt.Println("usage: open <path>")
			return true
		}
		res, err := eng.Open(args[1])
		if err != nil {
			return fail(err)
		}
		fmt.Printf("opened (sim %v, wall %v)\n", res.Sim, res.Wall)

	case "save":
		if len(args) != 2 {
			fmt.Println("usage: save <path>")
			return true
		}
		if err := iolib.SaveWorkbook(args[1], eng.Workbook()); err != nil {
			return fail(err)
		}
		fmt.Println("saved", args[1])

	default:
		fmt.Printf("unknown command %q; try help\n", cmd)
	}
	return true
}

func showSheet(s *sheet.Sheet, n int) {
	rows := s.Rows()
	if n > rows {
		n = rows
	}
	cols := s.Cols()
	if cols > 12 {
		cols = 12
	}
	for r := 0; r < n; r++ {
		if s.RowHidden(r) {
			continue
		}
		var parts []string
		for c := 0; c < cols; c++ {
			parts = append(parts, fmt.Sprintf("%-8.8s", s.Value(cell.Addr{Row: r, Col: c}).AsString()))
		}
		fmt.Println(strings.Join(parts, " "))
	}
}
