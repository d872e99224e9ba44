package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

func TestTypecheckGoldenText(t *testing.T) {
	out := string(golden(t, subcmd("typecheck"), "typecheck_200.txt", fixtureArgs))
	// The acceptance bar: numeric certificates on the data columns, the
	// DIV0-possible summary formulas, and the pinned cycle cells.
	for _, want := range []string{
		"[numeric]",            // certified columns exist
		"#DIV/0!",              // S3/S4 error possibility
		"#CYCLE!",              // S9/S10 pinned
		"error-possible cells", // section present
		"disagreements: none",  // nothing evaluated yet, nothing stale
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q", want)
		}
	}
}

func TestTypecheckGoldenJSON(t *testing.T) {
	out := golden(t, subcmd("typecheck"), "typecheck_200.json", append([]string{"-json"}, fixtureArgs...))
	var res struct {
		Sheets []struct {
			Columns []struct {
				Name    string `json:"name"`
				Numeric bool   `json:"numeric_certificate"`
			} `json:"columns"`
			ErrorCellCount int `json:"error_cell_count"`
		} `json:"sheets"`
		Formulas int `json:"formulas"`
	}
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatalf("JSON output does not parse: %v", err)
	}
	if len(res.Sheets) != 1 || res.Formulas == 0 {
		t.Fatalf("unexpected report shape: %+v", res)
	}
	certified := 0
	for _, c := range res.Sheets[0].Columns {
		if c.Numeric {
			certified++
		}
	}
	if certified == 0 {
		t.Error("no numeric certificates on the weather fixture")
	}
	if res.Sheets[0].ErrorCellCount == 0 {
		t.Error("no error-possible cells found; S3/S4 should carry #DIV/0!")
	}
}

func TestTypecheckSvfFile(t *testing.T) {
	// Round-trip: typechecking a saved .svf reports the same result as the
	// in-memory workbook it came from.
	dir := t.TempDir()
	path := filepath.Join(dir, "wb.svf")

	var save, errOut bytes.Buffer
	if code := subcmd("typecheck")(append(fixtureArgs, "-json"), &save, &errOut); code != 0 {
		t.Fatalf("baseline run failed: %s", errOut.String())
	}
	writeFixtureSvf(t, path)

	var out bytes.Buffer
	if code := subcmd("typecheck")([]string{"-json", path}, &out, &errOut); code != 0 {
		t.Fatalf("file run failed: %s", errOut.String())
	}
	if !bytes.Equal(out.Bytes(), save.Bytes()) {
		t.Error("typecheck of the saved workbook differs from the in-memory one")
	}
}

func TestTypecheckBadFile(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := subcmd("typecheck")([]string{filepath.Join(t.TempDir(), "missing.svf")}, &out, &errOut); code != 1 {
		t.Errorf("exit = %d, want 1 for a missing file", code)
	}
	if errOut.Len() == 0 {
		t.Error("missing-file failure should print to stderr")
	}
}
