package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

func TestRegionsGoldenText(t *testing.T) {
	out := string(golden(t, subcmd("regions"), "regions_200.txt", fixtureArgs))
	// The seven COUNTIF fill columns compress to one region each; the
	// analysis block's cycle makes the sheet unsequencable, which the
	// report must say out loud.
	for _, want := range []string{
		"K2:K201",
		"200 cell(s)",
		"NOT sequencable",
		"outliers:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q", want)
		}
	}
}

func TestRegionsGoldenJSON(t *testing.T) {
	out := golden(t, subcmd("regions"), "regions_200.json", append([]string{"-json"}, fixtureArgs...))
	var rep struct {
		Sheets []struct {
			Formulas         int     `json:"formulas"`
			Regions          int     `json:"regions"`
			Classes          int     `json:"classes"`
			CompressionRatio float64 `json:"compression_ratio"`
			Sequencable      bool    `json:"sequencable"`
			Outliers         []struct {
				Range string `json:"range"`
				Text  string `json:"text"`
			} `json:"outliers"`
		} `json:"sheets"`
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("JSON output does not parse: %v", err)
	}
	if len(rep.Sheets) != 1 {
		t.Fatalf("unexpected report shape: %+v", rep)
	}
	sr := rep.Sheets[0]
	if sr.Formulas != 1409 || sr.Regions == 0 || sr.Classes == 0 {
		t.Errorf("sheet summary: %+v", sr)
	}
	if sr.CompressionRatio < 50 {
		t.Errorf("compression ratio = %v, want the fill columns to dominate", sr.CompressionRatio)
	}
	if sr.Sequencable {
		t.Error("analysis fixture holds a cycle; sheet must not be sequencable")
	}
	if len(sr.Outliers) == 0 {
		t.Error("analysis block rows should report as outliers")
	}
	for _, o := range sr.Outliers {
		if o.Text == "" {
			t.Errorf("outlier %s has no R1C1 text", o.Range)
		}
	}
}

// TestRegionsSequencableSheet: without the analysis block the weather
// formula sheet orders cleanly over seven regions.
func TestRegionsSequencableSheet(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wb.svf")
	writeFormulaOnlySvf(t, path)
	var out, errOut bytes.Buffer
	if code := subcmd("regions")([]string{"-json", path}, &out, &errOut); code != 0 {
		t.Fatalf("regions = %d, stderr: %s", code, errOut.String())
	}
	var rep struct {
		Sheets []struct {
			Regions     int  `json:"regions"`
			Sequencable bool `json:"sequencable"`
		} `json:"sheets"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Sheets) != 1 || rep.Sheets[0].Regions != 7 || !rep.Sheets[0].Sequencable {
		t.Errorf("formula-only sheet: %+v, want 7 sequencable regions", rep.Sheets)
	}
}

func TestRegionsBadFile(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := subcmd("regions")([]string{filepath.Join(t.TempDir(), "missing.svf")}, &out, &errOut); code != 1 {
		t.Errorf("exit = %d, want 1 for a missing file", code)
	}
	if errOut.Len() == 0 {
		t.Error("missing-file failure should print to stderr")
	}
}
