// Command sheetcli is an interactive REPL over the spreadsheet engine: it
// lets you poke any system profile by hand and see each operation's
// simulated and wall cost — useful for sanity-checking the benchmark's
// calibrated behaviors.
//
// Usage:
//
//	sheetcli [-system excel|calc|sheets|optimized] [file.svf]
//	sheetcli <command> [flags] [file.svf]
//
// The first form starts the REPL. The second runs one subcommand of the
// command table (commands.go) and exits; `sheetcli <command> -h` lists its
// flags. Static commands report on a workbook without evaluating it;
// script commands run an operation script and report on the run.
//
// REPL commands (addresses in A1 notation, columns as letters):
//
//	set A1 <value|=FORMULA>   write a cell
//	get A1                    read a cell
//	show [rows]               print the top of the sheet
//	<static command>          run its report on the workbook, default flags
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
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/cell"
	"repro/internal/engine"
	"repro/internal/iolib"
	"repro/internal/obs"
	"repro/internal/sheet"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) > 1 {
		if c := lookup(os.Args[1]); c != nil {
			os.Exit(c.run(os.Args[2:], os.Stdout, os.Stderr))
		}
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
		if line != "" && !dispatch(os.Stdout, eng, line) {
			return
		}
		fmt.Printf("%s> ", prof.Name)
	}
}

// dispatch runs one command, writing to stdout, the REPL's console; it
// returns false to quit.
func dispatch(stdout io.Writer, eng *engine.Engine, line string) bool {
	args := strings.Fields(line)
	cmd := strings.TrimPrefix(strings.ToLower(args[0]), ":")
	s := eng.Workbook().First()
	fail := func(err error) bool {
		fmt.Fprintln(stdout, "error:", err)
		return true
	}

	if c := lookup(cmd); c != nil && c.script == nil {
		o, err := c.flags(flag.NewFlagSet(cmd, flag.ContinueOnError))(input{wb: eng.Workbook()})
		if err == nil {
			err = o.text(stdout)
		}
		if err != nil {
			return fail(err)
		}
		return true
	}

	switch cmd {
	case "quit", "exit", "q":
		return false

	case "help":
		var static []string
		for _, c := range commands {
			if c.script == nil {
				static = append(static, c.name)
			}
		}
		fmt.Fprintln(stdout, "set get show", strings.Join(static, " "), "sort filter pivot find trace gen open save quit")

	case "set":
		if len(args) < 3 {
			fmt.Fprintln(stdout, "usage: set A1 <value|=FORMULA>")
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
			fmt.Fprintf(stdout, "%s = %s  (sim %v, wall %v)\n", a, v.AsString(), res.Sim, res.Wall)
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
		fmt.Fprintf(stdout, "ok (sim %v)\n", res.Sim)

	case "get":
		if len(args) != 2 {
			fmt.Fprintln(stdout, "usage: get A1")
			return true
		}
		a, err := cell.ParseAddr(args[1])
		if err != nil {
			return fail(err)
		}
		v, res := eng.CellValue(s, a)
		fmt.Fprintf(stdout, "%s = %s  (sim %v)\n", a, v.AsString(), res.Sim)

	case "show":
		n := 10
		if len(args) > 1 {
			if k, err := strconv.Atoi(args[1]); err == nil {
				n = k
			}
		}
		showSheet(stdout, s, n)

	case "sort":
		if len(args) < 2 {
			fmt.Fprintln(stdout, "usage: sort <col> [asc|desc]")
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
		fmt.Fprintf(stdout, "sorted (sim %v, wall %v)\n", res.Sim, res.Wall)

	case "filter":
		if len(args) == 2 && strings.ToLower(args[1]) == "off" {
			eng.ClearFilter(s)
			fmt.Fprintln(stdout, "filter cleared")
			return true
		}
		if len(args) != 3 {
			fmt.Fprintln(stdout, "usage: filter <col> <value> | filter off")
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
		fmt.Fprintf(stdout, "%d rows visible (sim %v)\n", kept, res.Sim)

	case "pivot":
		if len(args) != 3 {
			fmt.Fprintln(stdout, "usage: pivot <dimcol> <measurecol>")
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
		fmt.Fprintf(stdout, "pivot -> sheet %q, %d groups (sim %v)\n", out.Name, out.Rows()-1, res.Sim)
		showSheet(stdout, out, 10)

	case "find":
		if len(args) != 3 {
			fmt.Fprintln(stdout, "usage: find <x> <y>")
			return true
		}
		n, res, err := eng.FindReplace(s, args[1], args[2])
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "replaced in %d cells (sim %v)\n", n, res.Sim)

	case "trace":
		if len(args) != 2 {
			fmt.Fprintln(stdout, "usage: trace on|off|dump")
			return true
		}
		switch strings.ToLower(args[1]) {
		case "on":
			obs.Reset()
			obs.SetEnabled(true)
			fmt.Fprintln(stdout, "tracing on; run some ops, then: trace dump")
		case "off":
			obs.SetEnabled(false)
			fmt.Fprintln(stdout, "tracing off")
		case "dump":
			tr := obs.Take()
			rep := obs.CheckTrace(tr, obs.DefaultSLOBound)
			if err := writeTraceText(stdout, tr, rep, obs.TreeOptions{Durations: true, MaxSpans: 200}); err != nil {
				return fail(err)
			}
		default:
			fmt.Fprintln(stdout, "usage: trace on|off|dump")
		}

	case "gen":
		if len(args) < 2 {
			fmt.Fprintln(stdout, "usage: gen <rows> [F|V] [workload]")
			return true
		}
		rows, err := strconv.Atoi(args[1])
		if err != nil || rows <= 0 {
			fmt.Fprintln(stdout, "bad row count")
			return true
		}
		formulas := len(args) > 2 && strings.EqualFold(args[2], "F")
		name := "weather"
		if len(args) > 3 {
			name = strings.ToLower(args[3])
		}
		gen, ok := workload.ByName(name)
		if !ok {
			fmt.Fprintf(stdout, "unknown workload %q; have %s\n", name, strings.Join(workload.Names(), ", "))
			return true
		}
		wb := gen.Build(workload.Spec{Rows: rows, Formulas: formulas})
		if err := eng.Install(wb); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "loaded %d %s rows (%s)\n", rows, gen.Name,
			map[bool]string{true: "Formula-value", false: "Value-only"}[formulas])

	case "open":
		if len(args) != 2 {
			fmt.Fprintln(stdout, "usage: open <path>")
			return true
		}
		res, err := eng.Open(args[1])
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "opened (sim %v, wall %v)\n", res.Sim, res.Wall)

	case "save":
		if len(args) != 2 {
			fmt.Fprintln(stdout, "usage: save <path>")
			return true
		}
		if err := iolib.SaveWorkbook(args[1], eng.Workbook()); err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, "saved", args[1])

	default:
		fmt.Fprintf(stdout, "unknown command %q; try help\n", cmd)
	}
	return true
}

func showSheet(stdout io.Writer, s *sheet.Sheet, n int) {
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
		fmt.Fprintln(stdout, strings.Join(parts, " "))
	}
}
