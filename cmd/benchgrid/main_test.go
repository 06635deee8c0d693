package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"cogrid/internal/experiments"
)

// emitJSON runs benchgrid -json over the real study table and decodes
// the document's top-level keys.
func emitJSON(t *testing.T, fig, app string, smoke bool) map[string]json.RawMessage {
	t.Helper()
	var stdout, stderr bytes.Buffer
	o := options{fig: fig, app: app, seed: 1, trials: 1, json: true, smoke: smoke}
	if code := run(&stdout, &stderr, experiments.Studies, o); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	var out map[string]json.RawMessage
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout.String())
	}
	return out
}

func TestEmitJSONFigure3(t *testing.T) {
	out := emitJSON(t, "3", "none", false)
	raw, ok := out["figure3"]
	if !ok {
		t.Fatalf("missing figure3 key: %v", out)
	}
	var fig struct {
		Phases map[string]int64 `json:"Phases"`
	}
	if err := json.Unmarshal(raw, &fig); err != nil {
		t.Fatalf("figure3 shape: %v", err)
	}
	if fig.Phases["initgroups"] != 700_000_000 {
		t.Errorf("initgroups = %d ns, want 0.7s", fig.Phases["initgroups"])
	}
}

func TestEmitJSONNothingSelected(t *testing.T) {
	for _, o := range []options{
		{fig: "none", app: "none", json: true},
		{fig: "3", app: "none", json: true, smoke: true}, // no smoke size
		{fig: "9", app: "none", json: true},
		{fig: "none", app: "bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(&stdout, &stderr, experiments.Studies, o); code != 2 {
			t.Errorf("%+v: exit %d, want 2", o, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%+v: wrote output for a bad selection: %q", o, stdout.String())
		}
	}
}

func TestEmitJSONBrokerSmoke(t *testing.T) {
	out := emitJSON(t, "none", "broker", true)
	raw, ok := out["b1_broker_load"]
	if !ok {
		t.Fatalf("missing b1_broker_load key: %v", out)
	}
	var study struct {
		Rows []struct {
			Mode      string `json:"mode"`
			Requests  int    `json:"requests"`
			Completed int    `json:"completed"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(raw, &study); err != nil {
		t.Fatalf("b1_broker_load shape: %v", err)
	}
	if len(study.Rows) < 3 {
		t.Fatalf("rows = %d, want >= 3", len(study.Rows))
	}
	for i, row := range study.Rows {
		if row.Completed == 0 {
			t.Errorf("row %d (%s): nothing completed", i, row.Mode)
		}
	}
}

func TestEmitJSONAblationOnly(t *testing.T) {
	out := emitJSON(t, "none", "ablation", false)
	if len(out) != 2 {
		t.Errorf("keys = %d, want 2", len(out))
	}
	for _, key := range []string{"ab1_submission_ablation", "wide_area"} {
		if _, ok := out[key]; !ok {
			t.Errorf("missing %s", key)
		}
	}
}

// TestGateFailureExitsOne pins the one exit code for a failed gate: in
// both text and -json modes the violations go to stderr, every selected
// study still runs, and benchgrid exits 1.
func TestGateFailureExitsOne(t *testing.T) {
	study := func(name string, bad ...string) experiments.Study {
		run := func(experiments.Params) experiments.Output {
			return experiments.Output{Text: name + " table\n", JSON: map[string]any{name: 1}, Violations: bad}
		}
		return experiments.Study{Name: name, Title: name, Full: run, Smoke: run}
	}
	table := []experiments.Study{study("leaky", "row 1 leaked"), study("fine")}
	for _, jsonOut := range []bool{false, true} {
		var stdout, stderr bytes.Buffer
		o := options{fig: "all", app: "all", json: jsonOut, smoke: true}
		if code := run(&stdout, &stderr, table, o); code != 1 {
			t.Errorf("json=%t: exit %d, want 1", jsonOut, code)
		}
		if got, want := stderr.String(), "benchgrid: leaky: row 1 leaked\n"; got != want {
			t.Errorf("json=%t: stderr = %q, want %q", jsonOut, got, want)
		}
		if !strings.Contains(stdout.String(), "fine") {
			t.Errorf("json=%t: the study after the failed gate did not run:\n%s", jsonOut, stdout.String())
		}
	}
}
