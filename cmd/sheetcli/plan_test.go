package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestPlanGoldenText(t *testing.T) {
	out := string(golden(t, subcmd("plan"), "plan_200.txt", fixtureArgs))
	// The weather fixture's analysis block contributes the COUNTIF site; the
	// report must show the certificate verdict, the collected statistics, and
	// at least one priced choice with its basis.
	for _, want := range []string{
		"certificate valid",
		"statistics:",
		"choices:",
		"countif",
		"predicted main-sheet recalc:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q", want)
		}
	}
}

func TestPlanGoldenJSON(t *testing.T) {
	out := golden(t, subcmd("plan"), "plan_200.json", append([]string{"-json"}, fixtureArgs...))
	var rep struct {
		Plan struct {
			Sheets []struct {
				Sheet string `json:"sheet"`
				Stats struct {
					Rows    int `json:"rows"`
					Columns []struct {
						Col int `json:"col"`
					} `json:"columns"`
				} `json:"stats"`
				Choices []struct {
					Kind       string `json:"kind"`
					Chosen     string `json:"chosen"`
					Candidates []struct {
						Strategy string `json:"strategy"`
						SimNS    int64  `json:"sim_ns"`
					} `json:"candidates"`
				} `json:"choices"`
			} `json:"sheets"`
			Certificate struct {
				Valid   bool `json:"valid"`
				Checked int  `json:"checked"`
			} `json:"certificate"`
		} `json:"plan"`
		Predicted []struct {
			Sheet     string `json:"sheet"`
			CellTouch int64  `json:"cell_touch"`
		} `json:"predicted"`
		MainRecalc int64 `json:"main_recalc_cell_touch"`
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Plan.Sheets) != 1 || rep.Plan.Sheets[0].Sheet != "weather" {
		t.Fatalf("sheets = %+v", rep.Plan.Sheets)
	}
	sp := rep.Plan.Sheets[0]
	if sp.Stats.Rows != 201 {
		t.Errorf("rows = %d", sp.Stats.Rows)
	}
	if len(sp.Stats.Columns) == 0 {
		t.Error("no column statistics collected")
	}
	if len(sp.Choices) == 0 {
		t.Error("no choices priced")
	}
	for _, c := range sp.Choices {
		if c.Chosen == "" || len(c.Candidates) == 0 {
			t.Errorf("unpriced choice %+v", c)
		}
	}
	if !rep.Plan.Certificate.Valid || rep.Plan.Certificate.Checked == 0 {
		t.Errorf("certificate = %+v", rep.Plan.Certificate)
	}
	if rep.MainRecalc <= 0 {
		t.Errorf("main recalc prediction = %d", rep.MainRecalc)
	}
	if len(rep.Predicted) != 1 || rep.Predicted[0].CellTouch <= 0 {
		t.Errorf("predicted = %+v", rep.Predicted)
	}
}

func TestPlanBadFile(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := subcmd("plan")([]string{"testdata/does-not-exist.svf"}, &out, &errOut); code != 1 {
		t.Fatalf("code = %d", code)
	}
	if errOut.Len() == 0 {
		t.Error("expected an error message on stderr")
	}
}
