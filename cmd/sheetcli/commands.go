package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"

	"repro/internal/absint"
	"repro/internal/analyze"
	"repro/internal/engine"
	"repro/internal/iolib"
	"repro/internal/obs"
	"repro/internal/sheet"
	"repro/internal/tracelang"
	"repro/internal/workload"
)

// command is one sheetcli subcommand. A static command reports on a
// workbook: the .svf file argument, or a generated weather dataset with the
// analysis summary block, read without evaluating a formula. A script
// command (script != nil) installs the workbook in an engine, runs a
// trace-language script with the observability layer on, and reports on
// that run.
type command struct {
	name string
	// synopsis lists the command's own flags for its usage line.
	synopsis string
	// script holds a script command's -system and -script defaults.
	script *scriptDefaults
	// flags defines the command's own flags on fs and returns the function
	// that builds its report once they are parsed.
	flags func(fs *flag.FlagSet) builder
}

// scriptDefaults are a script command's defaults for the flags whose
// meaning differs between commands.
type scriptDefaults struct {
	system, systemHelp string
	ops, opsHelp       string
	// planner rejects profiles without a cost planner.
	planner bool
}

// builder builds a command's report from its input.
type builder func(in input) (output, error)

// input is what a report is built from. system and trace are set for
// script commands only.
type input struct {
	wb     *sheet.Workbook
	system string
	trace  *obs.Trace
	errOut io.Writer
}

// output is a built report: -json encodes doc, otherwise text writes the
// terminal form; exit is the status once the report is written.
type output struct {
	doc  any
	text func(io.Writer) error
	exit int
}

// commands is the one list of subcommands: main dispatches on it, and the
// REPL serves its static commands, with default flags, and lists them in
// help.
var commands = []command{
	{name: "analyze", synopsis: "[-wide n] [-shared n] [-hot n]", flags: func(fs *flag.FlagSet) builder {
		wide := fs.Int("wide", 0, "wide-range threshold in cells; 0 means the default")
		shared := fs.Int("shared", 0, "shared-subexpression minimum occurrences; 0 means the default")
		hot := fs.Int64("hot", 0, "hot-formula static cost threshold; 0 means the default")
		return func(in input) (output, error) {
			rep := analyze.Workbook(in.wb, analyze.Options{WideRangeCells: *wide, SharedMin: *shared, HotCostMin: *hot})
			return output{doc: rep, text: rep.WriteText}, nil
		}
	}},
	{name: "typecheck", synopsis: "[-list n]", flags: func(fs *flag.FlagSet) builder {
		list := fs.Int("list", 0, "max listed cells per sheet and section; 0 means the default, -1 uncaps")
		return func(in input) (output, error) {
			rep := absint.TypecheckWorkbook(in.wb, absint.TypeReportOptions{MaxList: *list})
			return output{doc: rep, text: rep.WriteText}, nil
		}
	}},
	{name: "regions", synopsis: "[-max n]",
		flags: capped("max regions and outliers listed per sheet; -1 removes the cap", regionsReportFor)},
	{name: "interfere", synopsis: "[-max n]",
		flags: capped("max regions listed per stage; -1 removes the cap", interfereReportFor)},
	{name: "absint", synopsis: "[-max n]",
		flags: capped("max columns and constants listed per sheet; -1 removes the cap", absintReportFor)},
	{name: "plan", synopsis: "[-max n]",
		flags: capped("max choices and statistics listed per sheet; -1 removes the cap", planReportFor)},
	{name: "trace", synopsis: "[-wall] [-max n] [-out f]", flags: traceFlags, script: &scriptDefaults{
		system: "excel", systemHelp: "system profile to trace",
		ops: defaultTraceScript, opsHelp: "semicolon-separated operations to trace",
	}},
	{name: "drift", synopsis: "[-strict]", flags: driftFlags, script: &scriptDefaults{
		system: "planned", systemHelp: "system profile; only cost-planned profiles record drift",
		ops: defaultDriftScript, opsHelp: "semicolon-separated operations to run", planner: true,
	}},
}

// lookup returns the named subcommand, or nil.
func lookup(name string) *command {
	for i := range commands {
		if commands[i].name == name {
			return &commands[i]
		}
	}
	return nil
}

// cappedReport is a report whose text lists are capped by -max; its JSON
// form always carries every entry.
type cappedReport interface {
	writeText(w io.Writer, maxList int) error
}

// capped defines -max (default 20) and builds the report with build.
func capped[R cappedReport](help string, build func(*sheet.Workbook) R) func(*flag.FlagSet) builder {
	return func(fs *flag.FlagSet) builder {
		maxList := fs.Int("max", 20, help)
		return func(in input) (output, error) {
			rep := build(in.wb)
			return output{doc: rep, text: func(w io.Writer) error { return rep.writeText(w, *maxList) }}, nil
		}
	}
}

// run executes the subcommand, writing the report to out and diagnostics to
// errOut. It returns the exit status: 2 for a usage error, 1 for a load,
// script or write error.
func (c *command) run(args []string, out, errOut io.Writer) int {
	if c.script != nil {
		return c.runScript(args, out, errOut)
	}
	fs := c.flagSet("[-json] [-rows n] [-seed n]", errOut)
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	rows := fs.Int("rows", 5000, "rows of the generated weather dataset (ignored with a file argument)")
	seed := fs.Uint64("seed", 0, "generator seed; 0 means the default")
	build := c.flags(fs)
	if !parse(fs, args, rows, errOut) {
		return 2
	}
	var wb *sheet.Workbook
	if fs.NArg() > 0 {
		res, err := iolib.LoadWorkbook(fs.Arg(0))
		if err != nil {
			return fail(errOut, err)
		}
		wb = res.Workbook
	} else {
		wb = workload.Weather(workload.Spec{Rows: *rows, Formulas: true, Seed: *seed, Analysis: true})
	}
	return emit(build, input{wb: wb, errOut: errOut}, *jsonOut, out, errOut)
}

// runScript is the driver of the script commands: it installs the file
// argument or a generated dataset in an engine of the -system profile and
// runs -script with the observability layer on for the run only.
func (c *command) runScript(args []string, out, errOut io.Writer) int {
	d := c.script
	fs := c.flagSet("[-system p] [-workload w] [-rows n] [-seed n] [-script ops] [-json]", errOut)
	system := fs.String("system", d.system, d.systemHelp)
	wname := fs.String("workload", "weather", "generated dataset (ignored with a file argument): one of "+workloadNames())
	rows := fs.Int("rows", 1000, "rows of the generated dataset (ignored with a file argument)")
	seed := fs.Uint64("seed", 0, "generator seed; 0 means the default")
	script := fs.String("script", d.ops, d.opsHelp)
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	build := c.flags(fs)
	if !parse(fs, args, rows, errOut) {
		return 2
	}
	prof, ok := engine.Profiles()[*system]
	if !ok {
		fmt.Fprintf(errOut, "sheetcli: unknown system %q\n", *system)
		return 2
	}
	if d.planner && !prof.Opt.CostPlanner {
		fmt.Fprintf(errOut, "sheetcli: profile %q has no cost planner; drift gates never fire (try -system planned)\n", prof.Name)
		return 2
	}
	var wb *sheet.Workbook
	if fs.NArg() > 0 {
		res, err := iolib.LoadWorkbook(fs.Arg(0))
		if err != nil {
			return fail(errOut, err)
		}
		wb = res.Workbook
	} else {
		gen, ok := workload.ByName(*wname)
		if !ok {
			fmt.Fprintf(errOut, "sheetcli: unknown workload %q (have %s)\n", *wname, workloadNames())
			return 2
		}
		wb = gen.Build(workload.Spec{Rows: *rows, Formulas: true, Seed: *seed})
	}
	eng := engine.New(prof)
	if err := eng.Install(wb); err != nil {
		return fail(errOut, err)
	}

	// Observe only the scripted operations, not the fixture install.
	obs.Reset()
	obs.DefaultDrift.Reset()
	obs.SetEnabled(true)
	err := tracelang.Run(eng, *script)
	obs.SetEnabled(false)
	tr := obs.Take()
	if err != nil {
		return fail(errOut, err)
	}
	return emit(build, input{wb: eng.Workbook(), system: *system, trace: tr, errOut: errOut}, *jsonOut, out, errOut)
}

// flagSet returns the command's flag set, whose usage line shows the
// driver's shared flags, then the command's own.
func (c *command) flagSet(shared string, errOut io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.Usage = func() {
		fmt.Fprintf(errOut, "usage: sheetcli %s %s %s [file.svf]\n", c.name, shared, c.synopsis)
		fs.PrintDefaults()
	}
	return fs
}

// parse parses args and rejects a negative -rows; false means exit 2.
func parse(fs *flag.FlagSet, args []string, rows *int, errOut io.Writer) bool {
	if err := fs.Parse(args); err != nil {
		return false
	}
	if *rows < 0 {
		fmt.Fprintln(errOut, "sheetcli: -rows must be non-negative")
		return false
	}
	return true
}

// emit builds the report and writes it to out as indented JSON or as text.
func emit(build builder, in input, jsonOut bool, out, errOut io.Writer) int {
	o, err := build(in)
	if err == nil && jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		err = enc.Encode(o.doc)
	} else if err == nil {
		err = o.text(out)
	}
	if err != nil {
		return fail(errOut, err)
	}
	return o.exit
}

// fail reports err on errOut and returns exit status 1.
func fail(errOut io.Writer, err error) int {
	fmt.Fprintf(errOut, "sheetcli: %v\n", err)
	return 1
}
