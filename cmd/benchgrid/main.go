// Benchgrid regenerates the paper's evaluation on the simulated grid:
// Figures 2–5 and every application study in experiments.Studies.
//
// Usage:
//
//	benchgrid [-fig 2|3|4|5|all|none]
//	          [-app atomic|bigrun|overprov|staleness|reserve|load|broker|chaos|federation|wire|slo|scale|ablation|all|none]
//	          [-seed N] [-trials N] [-json] [-smoke]
//
// With no flags everything runs at full size. Timings are virtual
// (simulated) seconds; see EXPERIMENTS.md for the paper-versus-measured
// comparison. With -json the selected results are emitted as one JSON
// document (durations in nanoseconds) for plotting pipelines. -smoke runs
// only the selected studies that have a seconds-long smoke size (broker,
// chaos, federation, wire, slo, scale) and skips the rest, so the default
// `benchgrid -smoke` runs every CI gate once.
//
// Studies with an acceptance gate (chaos, federation, wire, slo, scale)
// check it after every run; benchgrid prints each violation to stderr and
// exits 1 if any gate failed. Unknown names and an empty selection exit 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"

	"cogrid/internal/experiments"
)

// rule frames each text section's title.
const rule = "=============================================================="

// options are benchgrid's command-line selections.
type options struct {
	fig, app string
	seed     int64
	trials   int
	json     bool
	smoke    bool
}

func main() {
	var o options
	flag.StringVar(&o.fig, "fig", "all", "figure to regenerate: 2, 3, 4, 5, all, or none")
	flag.StringVar(&o.app, "app", "all", "application study: atomic, bigrun, overprov, staleness, reserve, load, broker, chaos, federation, wire, slo, scale, ablation, all, or none")
	flag.Int64Var(&o.seed, "seed", 1, "random seed for stochastic studies")
	flag.IntVar(&o.trials, "trials", 5, "trials per setting in stochastic studies")
	flag.BoolVar(&o.json, "json", false, "emit one JSON document instead of text tables (durations in nanoseconds)")
	flag.BoolVar(&o.smoke, "smoke", false, "run only the selected studies that have a smoke size, at that size")
	flag.Parse()
	os.Exit(run(os.Stdout, os.Stderr, experiments.Studies, o))
}

// run renders the selected studies as text sections or one JSON document
// and returns the exit code: 0, 1 when a gate failed, 2 on a bad selection.
func run(stdout, stderr io.Writer, studies []experiments.Study, o options) int {
	selected, err := selectStudies(studies, o)
	if err != nil {
		fmt.Fprintln(stderr, "benchgrid:", err)
		return 2
	}
	p := experiments.Params{Seed: o.seed, Trials: o.trials}
	doc := make(map[string]any)
	failed := false
	for _, s := range selected {
		runStudy := s.Full
		if o.smoke {
			runStudy = s.Smoke
		}
		out := runStudy(p)
		if o.json {
			maps.Copy(doc, out.JSON)
		} else {
			fmt.Fprintf(stdout, "\n%s\n%s\n%s\n%s", rule, s.Title, rule, out.Text)
		}
		for _, v := range out.Violations {
			fmt.Fprintf(stderr, "benchgrid: %s: %s\n", s.Name, v)
			failed = true
		}
	}
	if o.json {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(stderr, "benchgrid:", err)
			return 2
		}
	}
	if failed {
		return 1
	}
	return 0
}

// selectStudies returns the table entries -fig and -app pick, in table
// order; with -smoke, only those that have a smoke size.
func selectStudies(studies []experiments.Study, o options) ([]experiments.Study, error) {
	var selected []experiments.Study
	named := map[bool]bool{} // keyed by Study.Figure: -fig or -app named an entry
	for _, s := range studies {
		want := o.app
		if s.Figure {
			want = o.fig
		}
		named[s.Figure] = named[s.Figure] || want == s.Name
		if (want == "all" || want == s.Name) && (!o.smoke || s.Smoke != nil) {
			selected = append(selected, s)
		}
	}
	if o.fig != "all" && o.fig != "none" && !named[true] {
		return nil, fmt.Errorf("unknown figure %q", o.fig)
	}
	if o.app != "all" && o.app != "none" && !named[false] {
		return nil, fmt.Errorf("unknown study %q", o.app)
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("nothing selected (fig=%q, app=%q, smoke=%t)", o.fig, o.app, o.smoke)
	}
	return selected, nil
}
