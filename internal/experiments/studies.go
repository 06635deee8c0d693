package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Params are the command-line knobs every study run receives. Figures
// ignore both; smoke sizes use only the seed.
type Params struct {
	Seed   int64
	Trials int
}

// Output is one study run, in both of benchgrid's renderings plus the
// study's acceptance gate.
type Output struct {
	// Text is the section body printed under the study's title.
	Text string
	// JSON holds the study's top-level keys in the -json document.
	JSON map[string]any
	// Violations lists every gate failure; nil when the gate passes or
	// the study has none.
	Violations []string
}

// Study is one entry of the evaluation table: a paper figure or an
// application study, declared once with its sizes and its gate.
type Study struct {
	// Name is the selector: the figure number for figures, the study
	// name for application studies.
	Name string
	// Figure marks the paper's figures (benchgrid -fig); every other
	// entry is an application study (benchgrid -app).
	Figure bool
	// Title heads the study's text section.
	Title string
	// Full runs the study at its stock size.
	Full func(Params) Output
	// Smoke runs the seconds-long CI size; nil when the study has none.
	Smoke func(Params) Output
}

// Studies is the evaluation in report order: Figures 2–5, then the
// application studies.
var Studies = []Study{
	{Name: "2", Figure: true, Title: "Figure 2 — GRAM submission latency vs process count",
		Full: func(Params) Output {
			res := Figure2([]int{1, 8, 16, 32, 64})
			return Output{
				Text: text(res.Table(), "(paper: latency is largely insensitive to the number of processes)"),
				JSON: map[string]any{"figure2": res},
			}
		}},
	{Name: "3", Figure: true, Title: "Figure 3 — breakdown of a single-process GRAM request",
		Full: func(Params) Output {
			res := Figure3()
			return Output{
				Text: text(res.Table(), "(paper: initgroups 0.7s, authentication 0.5s, misc 0.01s, fork 0.001s)"),
				JSON: map[string]any{"figure3": res},
			}
		}},
	{Name: "4", Figure: true, Title: "Figure 4 — DUROC submission time vs subjob count (64 processes)",
		Full: func(Params) Output {
			res := Figure4(64, []int{1, 2, 4, 8, 12, 16, 20, 25})
			flat := Figure4Flat(4, []int{8, 16, 32, 64})
			var b strings.Builder
			fmt.Fprintf(&b, "%s\n%s\nCompanion: DUROC time vs process count at 4 subjobs (paper: flat)\n",
				res.Table(), res.Summary())
			for _, row := range flat {
				fmt.Fprintf(&b, "  %3d processes: %.3fs\n", row.Processes, row.Measured.Seconds())
			}
			return Output{Text: b.String(), JSON: map[string]any{"figure4": res, "figure4_flat": flat}}
		}},
	{Name: "5", Figure: true, Title: "Figure 5 — timeline of a DUROC submission (4 subjobs, 16 processes)",
		Full: func(Params) Output {
			res := Figure5(4, 16)
			return Output{Text: res, JSON: map[string]any{"figure5_timeline": res}}
		}},
	{Name: "atomic", Title: "A1 — atomic (GRAB) restarts vs interactive (DUROC) transactions",
		Full: func(p Params) Output {
			res := AtomicVsInteractive(5, 15*time.Minute, []float64{0, 0.1, 0.2, 0.3}, p.Trials, p.Seed)
			return Output{
				Text: text(res.Table(), "(paper: restarts of 15-minute startups made atomic transactions untenable)"),
				JSON: map[string]any{"a1_atomic_vs_interactive": res},
			}
		}},
	{Name: "bigrun", Title: "A2 — 1386 processors, 13 machines, 9 sites, with failures",
		Full: func(p Params) Output {
			res := BigRun(p.Seed)
			var b strings.Builder
			fmt.Fprintf(&b, "%s\nfailures configured around:\n", res.Table())
			for _, line := range res.Narrative {
				fmt.Fprintf(&b, "  %s\n", line)
			}
			return Output{Text: b.String(), JSON: map[string]any{"a2_bigrun": res}}
		}},
	{Name: "overprov", Title: "S1 — over-provisioning and forecast quality",
		Full: func(p Params) Output {
			res := OverProvisionSweep(3, 9, []float64{1, 1.33, 2, 3}, []float64{0, 1, 8}, p.Trials, p.Seed)
			return Output{
				Text: text(res.Table(), "(Section 2.2: forecasts and over-provisioning improve co-allocation)"),
				JSON: map[string]any{"s1_overprovision": res},
			}
		}},
	{Name: "staleness", Title: "S2 — co-allocation time vs load-information age",
		Full: func(p Params) Output {
			res := StalenessSweep(3, 10,
				[]time.Duration{0, 15 * time.Minute, time.Hour, 2 * time.Hour}, p.Trials, p.Seed)
			return Output{
				Text: text(res.Table(), "([14]: load information helps only while it remains valid)"),
				JSON: map[string]any{"s2_staleness": res},
			}
		}},
	{Name: "reserve", Title: "R1 — co-reservation (Section 5 future work)",
		Full: func(p Params) Output {
			res := CoReservationStudy(p.Seed)
			return Output{Text: text(res.Table()), JSON: map[string]any{"r1_coreservation": res}}
		}},
	{Name: "load", Title: "R2 — best-effort co-allocation vs co-reservation under load",
		Full: func(p Params) Output {
			res := BestEffortVsReservation(3, []float64{0.3, 0.5, 0.7, 0.85}, p.Trials, p.Seed)
			return Output{
				Text: text(res.Table(),
					"(Section 5: ensuring a co-allocation request succeeds ultimately",
					" requires advance reservation; the crossover falls at moderate load)"),
				JSON: map[string]any{"r2_load_crossover": res},
			}
		}},
	sized("broker", "B1 — broker throughput and latency vs offered load and queue bound", "b1_broker_load",
		func(seed int64) BrokerLoadConfig { return BrokerLoadConfig{Seed: seed} }, BrokerSmokeConfig,
		BrokerLoadStudy, nil, BrokerLoadResult.Table,
		"(internal/broker: bounded admission pushes back when offered load",
		" exceeds what the machines drain; rejects are admission rejections)"),
	sized("chaos", "B2 — broker resilience under injected faults (chaos study)", "b2_chaos",
		func(seed int64) ChaosConfig { return ChaosConfig{Seed: seed} }, ChaosSmokeConfig,
		ChaosStudy, ChaosResult.Check, ChaosResult.Table,
		"(internal/failure through internal/broker: every fault heals in-run,",
		" so the acceptance bar is zero leaked jobs and orphans rec == reaped)"),
	sized("federation", "B6 — federated broker scaling vs replica count (with a leader crash)", "b6_federation",
		func(seed int64) FederationLoadConfig { return FederationLoadConfig{Seed: seed} }, FederationSmokeConfig,
		FederationLoadStudy, FederationLoadResult.Check, FederationLoadResult.Table,
		"(internal/federation: replicas split the admission load; rows with",
		" two or more replicas crash and restart the leader mid-run, so the",
		" gains are earned under election, hand-off, and client failover)"),
	sized("wire", "B3 — wire throughput: JSON vs binary codec, with and without batching", "b3_wire",
		func(seed int64) WireConfig { return WireConfig{Seed: seed} }, WireSmokeConfig,
		WireStudy, WireResult.Check, WireResult.Table,
		"(internal/wire through internal/rpc: the binary envelope codec must",
		" beat JSON on both messages/sec and allocs/op; batching coalesces",
		" same-destination sends at the cost of up to its flush delay)"),
	sized("slo", "B7 — SLO detection latency and flight-recorder coverage", "b7_slo",
		func(seed int64) SLOConfig { return SLOConfig{Chaos: ChaosConfig{Seed: seed}} }, SLOSmokeConfig,
		SLOStudy, SLOResult.Check, SLOResult.Table,
		"(internal/slo over internal/flightrec: fault-free rows must stay",
		" silent; every faulted row must page within the detection budget,",
		" and each fire freezes one validated black-box dump)"),
	sized("scale", "B4 — kernel throughput at scale: timer wheel vs reference heap", "b4_scale",
		func(seed int64) ScaleConfig { return ScaleConfig{Seed: seed} }, ScaleSmokeConfig,
		ScaleStudy, ScaleResult.Check, ScaleResult.Table,
		"(internal/vtime + internal/lrm: the timing wheel and the release",
		" index carry the whole job stream; dual-engine rows must agree on",
		" every virtual-time column, byte for byte)"),
	{Name: "ablation", Title: "Ablation — sequential vs parallel subjob submission",
		Full: func(Params) Output {
			rows := SubmissionAblation(64, []int{1, 5, 10, 25})
			wide := WideAreaStudy(8, 64, []time.Duration{
				time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond, 200 * time.Millisecond,
			})
			return Output{
				Text: text(AblationTable(rows),
					"(the paper's DUROC submitted sequentially — Figure 5 — leaving",
					" pipelining as the only overlap; parallel submission is flat)",
					"") + text(WideAreaTable(wide),
					"(Section 4.2: wide-area barrier costs are negligible next to startup delays)"),
				JSON: map[string]any{"ab1_submission_ablation": rows, "wide_area": wide},
			}
		}},
}

// sized declares a study that also has a smoke size: full and smoke build
// its config from the seed, run executes it, gate (nil for none) checks
// the result, and the text body is the result's table followed by notes.
func sized[C, R, T any](name, title, key string, full, smoke func(seed int64) C,
	run func(C) R, gate func(R) []string, table func(R) T, notes ...string) Study {
	do := func(cfg C) Output {
		res := run(cfg)
		out := Output{Text: text(table(res), notes...), JSON: map[string]any{key: res}}
		if gate != nil {
			out.Violations = gate(res)
		}
		return out
	}
	return Study{Name: name, Title: title,
		Full:  func(p Params) Output { return do(full(p.Seed)) },
		Smoke: func(p Params) Output { return do(smoke(p.Seed)) },
	}
}

// text renders a table followed by one line per note.
func text(table any, notes ...string) string {
	var b strings.Builder
	fmt.Fprint(&b, table)
	for _, n := range notes {
		b.WriteString(n)
		b.WriteByte('\n')
	}
	return b.String()
}
