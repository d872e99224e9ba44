package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/obs"
	"repro/internal/workload"
)

// defaultTraceScript exercises every traced user-facing operation class on
// the weather fixture: sort, filter, plain write, formula insert,
// find-replace, and a forced full recalculation.
const defaultTraceScript = "sort B; filter B TX; set J6 3; formula R2 =SUM(J2:J101); find TX XT; recalc"

// traceFlags defines the trace subcommand's own flags. The report is the
// span tree of the scripted run and its 500 ms interactivity SLO verdicts.
// Verdicts are judged on the simulated clock each op span carries
// (obs.SimAttr), so the output is deterministic for a fixed workload; wall
// durations appear only with -wall.
func traceFlags(fs *flag.FlagSet) builder {
	wall := fs.Bool("wall", false, "include wall-clock durations in the span tree (non-deterministic)")
	maxSpans := fs.Int("max", 200, "max spans rendered in the tree; 0 removes the cap")
	chromeOut := fs.String("out", "", "also write the trace as Chrome trace-event JSON to this path")
	return func(in input) (output, error) {
		if *chromeOut != "" {
			if err := writeChromeFile(*chromeOut, in.trace); err != nil {
				return output{}, err
			}
			fmt.Fprintf(in.errOut, "wrote %s\n", *chromeOut)
		}
		rep := obs.CheckTrace(in.trace, obs.DefaultSLOBound)
		return output{
			doc: traceDoc(in.system, in.trace, rep),
			text: func(w io.Writer) error {
				return writeTraceText(w, in.trace, rep, obs.TreeOptions{Durations: *wall, MaxSpans: *maxSpans})
			},
		}, nil
	}
}

// writeChromeFile saves the trace as Chrome trace-event JSON, surfacing
// write and close errors alike.
func writeChromeFile(path string, tr *obs.Trace) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	if err := tr.WriteChromeJSON(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// workloadNames lists the registered dataset generators for usage text.
func workloadNames() string { return strings.Join(workload.Names(), "|") }

// writeTraceText renders the span tree followed by the SLO verdict section —
// the shared renderer behind the trace subcommand and the REPL's trace dump.
func writeTraceText(w io.Writer, tr *obs.Trace, rep obs.SLOReport, opts obs.TreeOptions) error {
	if tr.Spans == 0 {
		if _, err := fmt.Fprintln(w, "no spans recorded"); err != nil {
			return err
		}
	} else if err := tr.WriteTree(w, opts); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	return rep.WriteText(w)
}

// traceSpanJSON is one span of the JSON report: names and attributes only —
// the deterministic skeleton — with wall timings deliberately omitted.
type traceSpanJSON struct {
	Name     string           `json:"name"`
	Attrs    map[string]any   `json:"attrs,omitempty"`
	Children []*traceSpanJSON `json:"children,omitempty"`
}

func spanToJSON(sp *obs.TraceSpan) *traceSpanJSON {
	out := &traceSpanJSON{Name: sp.Name}
	if len(sp.Attrs) > 0 {
		out.Attrs = make(map[string]any, len(sp.Attrs))
		for _, a := range sp.Attrs {
			if a.IsStr {
				out.Attrs[a.Key] = a.Str
			} else {
				out.Attrs[a.Key] = a.Int
			}
		}
	}
	for _, c := range sp.Children {
		out.Children = append(out.Children, spanToJSON(c))
	}
	return out
}

// traceDoc is the JSON report: the profile, the SLO verdicts and the span
// trees.
func traceDoc(system string, tr *obs.Trace, rep obs.SLOReport) any {
	doc := struct {
		System string           `json:"system"`
		Spans  int              `json:"spans"`
		SLO    obs.SLOReport    `json:"slo"`
		Roots  []*traceSpanJSON `json:"roots"`
	}{System: system, Spans: tr.Spans, SLO: rep}
	for _, r := range tr.Roots {
		doc.Roots = append(doc.Roots, spanToJSON(r))
	}
	return doc
}
