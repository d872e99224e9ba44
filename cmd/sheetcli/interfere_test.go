package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

func TestInterfereGoldenText(t *testing.T) {
	out := string(golden(t, subcmd("interfere"), "interfere_200.txt", fixtureArgs))
	// The analysis block keeps the fixture uncertified: NOW() is
	// unanalyzable, S6 reads it, and S9/S10 form a cycle. The seven fill
	// columns still stage together.
	for _, want := range []string{
		"NOT certified",
		"blockers:",
		"unanalyzable footprint (NOW)",
		"reads an unanalyzable region",
		"interference cycle",
		"K2:K201",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q", want)
		}
	}
}

func TestInterfereGoldenJSON(t *testing.T) {
	out := golden(t, subcmd("interfere"), "interfere_200.json", append([]string{"-json"}, fixtureArgs...))
	var rep struct {
		Certified bool `json:"certified"`
		Sheets    []struct {
			Formulas  int  `json:"formulas"`
			Regions   int  `json:"regions"`
			Certified bool `json:"certified"`
			Stages    int  `json:"stages"`
			Widest    int  `json:"widest"`
			StageList []struct {
				Regions []string `json:"regions"`
			} `json:"stage_list"`
			Blockers []struct {
				Cell   string `json:"cell"`
				Reason string `json:"reason"`
			} `json:"blockers"`
		} `json:"sheets"`
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("JSON output does not parse: %v", err)
	}
	if rep.Certified || len(rep.Sheets) != 1 {
		t.Fatalf("unexpected report shape: %+v", rep)
	}
	sr := rep.Sheets[0]
	if sr.Formulas != 1409 || sr.Certified {
		t.Errorf("sheet summary: %+v", sr)
	}
	if sr.Widest < 7 {
		t.Errorf("widest stage = %d, want the seven fill columns together", sr.Widest)
	}
	if len(sr.Blockers) == 0 {
		t.Error("analysis block must report blockers")
	}
	for _, b := range sr.Blockers {
		if b.Cell == "" || b.Reason == "" {
			t.Errorf("blocker incompletely rendered: %+v", b)
		}
	}
}

// TestInterfereCertifiedSheet: without the analysis block the weather
// formula sheet certifies as one stage of seven independent fill regions.
func TestInterfereCertifiedSheet(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wb.svf")
	writeFormulaOnlySvf(t, path)
	var out, errOut bytes.Buffer
	if code := subcmd("interfere")([]string{"-json", path}, &out, &errOut); code != 0 {
		t.Fatalf("interfere = %d, stderr: %s", code, errOut.String())
	}
	var rep struct {
		Certified bool `json:"certified"`
		Sheets    []struct {
			Stages int `json:"stages"`
			Widest int `json:"widest"`
		} `json:"sheets"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Certified || len(rep.Sheets) != 1 || rep.Sheets[0].Stages != 1 || rep.Sheets[0].Widest != 7 {
		t.Errorf("formula-only sheet: certified=%v %+v, want one stage of 7", rep.Certified, rep.Sheets)
	}
}

func TestInterfereBadFile(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := subcmd("interfere")([]string{filepath.Join(t.TempDir(), "missing.svf")}, &out, &errOut); code != 1 {
		t.Errorf("exit = %d, want 1 for a missing file", code)
	}
	if errOut.Len() == 0 {
		t.Error("missing-file failure should print to stderr")
	}
}
