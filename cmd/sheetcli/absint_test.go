package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

func TestAbsintGoldenText(t *testing.T) {
	out := string(golden(t, subcmd("absint"), "absint_200.txt", fixtureArgs))
	// The weather fixture's ID column is the statically ascending lookup
	// key; the analysis block contributes the cyclic cells.
	for _, want := range []string{
		"asc",
		"error-free",
		"cyclic",
		"A2:A201",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q", want)
		}
	}
}

func TestAbsintGoldenJSON(t *testing.T) {
	out := golden(t, subcmd("absint"), "absint_200.json", append([]string{"-json"}, fixtureArgs...))
	var rep struct {
		Formulas int `json:"formulas"`
		Sheets   []struct {
			Formulas   int `json:"formulas"`
			Cyclic     int `json:"cyclic"`
			AscColumns int `json:"asc_columns"`
			Columns    []struct {
				Range     string `json:"range"`
				Kinds     string `json:"kinds"`
				Interval  string `json:"interval"`
				Dir       string `json:"dir"`
				ErrorFree bool   `json:"error_free"`
			} `json:"columns"`
		} `json:"sheets"`
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("JSON output does not parse: %v", err)
	}
	if len(rep.Sheets) != 1 {
		t.Fatalf("unexpected report shape: %+v", rep)
	}
	sr := rep.Sheets[0]
	if sr.Formulas != 1409 {
		t.Errorf("formulas = %d, want 1409", sr.Formulas)
	}
	if sr.Cyclic == 0 {
		t.Error("analysis fixture holds a cycle; cyclic count must be positive")
	}
	if sr.AscColumns == 0 {
		t.Error("the ID column should certify ascending")
	}
	var foundID bool
	for _, c := range sr.Columns {
		if c.Range == "A1:A201" || strings.HasPrefix(c.Range, "A1:") || strings.HasPrefix(c.Range, "A2:") {
			foundID = true
			if c.Interval == "" || c.Kinds == "" {
				t.Errorf("ID column entry incomplete: %+v", c)
			}
		}
	}
	if !foundID {
		t.Error("no certificate covering the ID column")
	}
}

func TestAbsintBadFile(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := subcmd("absint")([]string{filepath.Join(t.TempDir(), "missing.svf")}, &out, &errOut); code != 1 {
		t.Errorf("exit = %d, want 1 for a missing file", code)
	}
	if errOut.Len() == 0 {
		t.Error("missing-file failure should print to stderr")
	}
}
