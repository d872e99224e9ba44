package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
)

// The drift report runs on the simulated clock, so the default script on
// the 200-row weather fixture is byte-stable.
func TestDriftGoldenText(t *testing.T) {
	out := string(golden(t, subcmd("drift"), "drift_200.txt", fixtureArgs))
	for _, want := range []string{"CALIBRATED", "recalc-seq", "delta-maint"} {
		if !strings.Contains(out, want) {
			t.Errorf("drift report missing %q", want)
		}
	}
}

func TestDriftGoldenJSON(t *testing.T) {
	out := golden(t, subcmd("drift"), "drift_200.json", append([]string{"-json"}, fixtureArgs...))
	var rep struct {
		Gates []struct {
			Profile    string `json:"profile"`
			Gate       string `json:"gate"`
			Count      int    `json:"count"`
			Calibrated bool   `json:"calibrated"`
		} `json:"gates"`
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("JSON output does not parse: %v", err)
	}
	if len(rep.Gates) == 0 {
		t.Fatal("no planner gate observed")
	}
	for _, g := range rep.Gates {
		if g.Profile != "planned" || g.Count == 0 || !g.Calibrated {
			t.Errorf("gate %+v: want a calibrated planned-profile observation", g)
		}
	}
}

func TestDriftErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
		msg  string
	}{
		{"unknown system", []string{"-system", "lotus123"}, 2, "lotus123"},
		{"no planner", []string{"-system", "excel"}, 2, "no cost planner"},
		{"bad script", []string{"-rows", "50", "-script", "frobnicate A1"}, 1, "frobnicate"},
		{"negative rows", []string{"-rows", "-5"}, 2, "-rows must be non-negative"},
	} {
		var out, errOut bytes.Buffer
		if code := subcmd("drift")(tc.args, &out, &errOut); code != tc.code {
			t.Errorf("%s: exit = %d, want %d", tc.name, code, tc.code)
		}
		if !strings.Contains(errOut.String(), tc.msg) {
			t.Errorf("%s: stderr %q does not mention %q", tc.name, errOut.String(), tc.msg)
		}
	}
	if obs.Enabled() {
		t.Error("observability must be off again after a failed run")
	}
}

// TestDriftStrict: -strict keeps exit 0 when every gate is calibrated.
func TestDriftStrict(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := subcmd("drift")(append([]string{"-strict"}, fixtureArgs...), &out, &errOut); code != 0 {
		t.Errorf("exit = %d, want 0 for a calibrated report; stderr: %s\n%s", code, errOut.String(), out.String())
	}
	if !strings.Contains(out.String(), "CALIBRATED") {
		t.Errorf("report not calibrated:\n%s", out.String())
	}
}
