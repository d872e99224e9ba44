package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

func TestAnalyzeGoldenText(t *testing.T) {
	out := golden(t, subcmd("analyze"), "analyze_200.txt", fixtureArgs)
	// The acceptance bar: distinct rule IDs with correct cell anchors.
	for _, want := range []string{
		"volatile-recalc S5",
		"type-mismatch   S7",
		"const-fold      S8",
		"shared-subexpr  S2",
		"cycle           S9",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("text report missing %q", want)
		}
	}
}

func TestAnalyzeGoldenJSON(t *testing.T) {
	out := golden(t, subcmd("analyze"), "analyze_200.json", append([]string{"-json"}, fixtureArgs...))
	var rep struct {
		Sheets []struct {
			RuleCounts map[string]int `json:"rule_counts"`
			Findings   []struct {
				Rule string `json:"rule"`
				Cell string `json:"cell"`
			} `json:"findings"`
		} `json:"sheets"`
		Formulas int `json:"formulas"`
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("JSON output does not parse: %v", err)
	}
	if len(rep.Sheets) != 1 || rep.Formulas == 0 {
		t.Fatalf("unexpected report shape: %+v", rep)
	}
	if got := len(rep.Sheets[0].RuleCounts); got < 5 {
		t.Errorf("distinct rules = %d, want >= 5 (%v)", got, rep.Sheets[0].RuleCounts)
	}
}

func TestAnalyzeSvfFile(t *testing.T) {
	// Round-trip: analyzing a saved .svf reports the same findings as the
	// in-memory workbook it came from.
	dir := t.TempDir()
	path := filepath.Join(dir, "wb.svf")

	var save, errOut bytes.Buffer
	if code := subcmd("analyze")(append(fixtureArgs, "-json"), &save, &errOut); code != 0 {
		t.Fatalf("baseline run failed: %s", errOut.String())
	}
	writeFixtureSvf(t, path)

	var out bytes.Buffer
	if code := subcmd("analyze")([]string{"-json", path}, &out, &errOut); code != 0 {
		t.Fatalf("file run failed: %s", errOut.String())
	}
	if !bytes.Equal(out.Bytes(), save.Bytes()) {
		t.Error("analysis of the saved workbook differs from the in-memory one")
	}
}

func TestAnalyzeBadFile(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := subcmd("analyze")([]string{filepath.Join(t.TempDir(), "missing.svf")}, &out, &errOut); code != 1 {
		t.Errorf("exit = %d, want 1 for a missing file", code)
	}
	if errOut.Len() == 0 {
		t.Error("missing-file failure should print to stderr")
	}
}
