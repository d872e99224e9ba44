package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/workload"
)

func TestTraceGoldenText(t *testing.T) {
	out := string(golden(t, subcmd("trace"), "trace_200.txt", fixtureArgs))
	// The default script covers every traced op class; each op root span
	// must appear with its simulated latency, and the SLO section must
	// judge all of them against the 500 ms bound.
	for _, want := range []string{
		"op.sort",
		"sort.permute",
		"op.filter",
		"op.setcell",
		"op.aggregate",
		"op.findreplace",
		"engine.eval_all",
		"sim_ns=",
		"Interactivity SLO",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace report missing %q", want)
		}
	}
}

func TestTraceGoldenJSON(t *testing.T) {
	out := golden(t, subcmd("trace"), "trace_200.json", append([]string{"-json"}, fixtureArgs...))
	var rep struct {
		System string `json:"system"`
		Spans  int    `json:"spans"`
		SLO    struct {
			BoundMS    int64 `json:"bound_ms"`
			Violations int   `json:"violations"`
			Ops        []struct {
				Op    string `json:"op"`
				Count int    `json:"count"`
			} `json:"ops"`
		} `json:"slo"`
		Roots []struct {
			Name  string         `json:"name"`
			Attrs map[string]any `json:"attrs"`
		} `json:"roots"`
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("JSON output does not parse: %v", err)
	}
	if rep.System != "excel" || rep.Spans == 0 {
		t.Fatalf("report header: system=%q spans=%d", rep.System, rep.Spans)
	}
	if rep.SLO.BoundMS != 500 {
		t.Errorf("bound_ms = %d, want the paper's 500", rep.SLO.BoundMS)
	}
	if len(rep.SLO.Ops) == 0 {
		t.Error("no SLO-judged operations")
	}
	if len(rep.Roots) == 0 {
		t.Fatal("no root spans")
	}
	for _, r := range rep.Roots {
		if !strings.HasPrefix(r.Name, "op.") {
			t.Errorf("root span %q: every scripted op must anchor its own tree", r.Name)
		}
		if _, ok := r.Attrs[obs.SimAttr]; !ok {
			t.Errorf("root span %q has no %s attribute", r.Name, obs.SimAttr)
		}
	}
}

func TestTraceChromeOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var out, errOut bytes.Buffer
	args := append([]string{"-out", path}, fixtureArgs...)
	if code := subcmd("trace")(args, &out, &errOut); code != 0 {
		t.Fatalf("trace = %d, stderr: %s", code, errOut.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("chrome trace has no events")
	}
}

func TestTraceErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := subcmd("trace")([]string{"-system", "lotus123"}, &out, &errOut); code != 2 {
		t.Errorf("unknown system: exit = %d, want 2", code)
	}
	errOut.Reset()
	if code := subcmd("trace")([]string{"-script", "frobnicate A1"}, &out, &errOut); code != 1 {
		t.Errorf("bad script: exit = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "statement 1") ||
		!strings.Contains(errOut.String(), "frobnicate") {
		t.Errorf("bad-script error not positioned: %q", errOut.String())
	}
	errOut.Reset()
	if code := subcmd("trace")([]string{"-workload", "abacus"}, &out, &errOut); code != 2 {
		t.Errorf("unknown workload: exit = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "abacus") {
		t.Errorf("unknown-workload error not surfaced: %q", errOut.String())
	}
	errOut.Reset()
	if code := subcmd("trace")([]string{"-rows", "-5"}, &out, &errOut); code != 2 {
		t.Errorf("negative rows: exit = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "-rows must be non-negative") {
		t.Errorf("negative-rows error not surfaced: %q", errOut.String())
	}
	if obs.Enabled() {
		t.Error("tracing must be off again after a failed run")
	}
}

// TestREPLTraceToggle drives the REPL's trace command: on enables the
// global gate, ops record spans, off disables it again.
func TestREPLTraceToggle(t *testing.T) {
	t.Cleanup(func() {
		obs.SetEnabled(false)
		obs.Reset()
	})
	eng := engine.New(engine.Profiles()["excel"])
	if err := eng.Install(workload.Weather(workload.Spec{Rows: 200, Formulas: true})); err != nil {
		t.Fatal(err)
	}
	if !dispatch(io.Discard, eng, "trace on") || !obs.Enabled() {
		t.Fatal("trace on did not enable the gate")
	}
	if !dispatch(io.Discard, eng, "sort B") {
		t.Fatal("sort failed under tracing")
	}
	if !dispatch(io.Discard, eng, ":trace off") || obs.Enabled() {
		t.Fatal(":trace off did not disable the gate")
	}
	tr := obs.Take()
	found := false
	tr.Walk(func(sp *obs.TraceSpan, depth int) {
		if sp.Name == "op.sort" {
			found = true
		}
	})
	if !found {
		t.Error("REPL op under `trace on` recorded no op.sort span")
	}
}
