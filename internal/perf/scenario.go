package perf

import (
	"strings"
	"time"

	"cogrid/internal/experiments"
	"cogrid/internal/grid"
	"cogrid/internal/rpc"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// scenarioConfig is the fixed broker-load setting the scenario series
// measure: small enough to finish in well under a second of real time,
// loaded enough to exercise admission queueing, the MDS cache, DUROC 2PC,
// and every instrumented layer underneath.
func scenarioConfig(seed int64) experiments.BrokerLoadConfig {
	return experiments.BrokerLoadConfig{
		Machines:     3,
		MachineSize:  16,
		Sites:        2,
		ProcsPerSite: 4,
		Workers:      2,
		WorkTime:     30 * time.Second,
		Requests:     8,
		Tenants:      2,
		Seed:         seed,
	}
}

// scenarioRate and scenarioQueueBound pin the open-loop row the scenario
// runs: 6 requests/min against an 8-deep admission queue.
const (
	scenarioRate       = 6.0
	scenarioQueueBound = 8
)

// RunScenario executes the deterministic broker-load scenario and distills
// it into "scenario" series: the client-observed row, kernel throughput
// counters, and per-layer latency quantiles read from the run's histogram
// registry. Every value is a virtual-time quantity, so for a fixed seed
// the returned series — and the grid's Prometheus exposition — are
// byte-stable run to run. The grid is returned so callers can export its
// registries (cmd/perfgrid -prom).
func RunScenario(seed int64) ([]Series, *grid.Grid, experiments.BrokerLoadRow) {
	if seed == 0 {
		seed = 1
	}
	row, g := experiments.BrokerLoadRun(scenarioConfig(seed), scenarioRate, scenarioQueueBound)

	series := []Series{
		{
			Name: "scenario.broker.load",
			Kind: "scenario",
			N:    row.Requests,
			Values: map[string]float64{
				"completed":          float64(row.Completed),
				"failed":             float64(row.Failed),
				"rejects":            float64(row.Rejects),
				"retries":            float64(row.Retries),
				"cache_hits":         float64(row.CacheHits),
				"throughput_per_min": row.ThroughputPerMin,
				"p50_ms":             float64(row.P50) / float64(time.Millisecond),
				"p99_ms":             float64(row.P99) / float64(time.Millisecond),
			},
		},
		{
			Name: "scenario.vtime.kernel",
			Kind: "scenario",
			N:    1,
			Values: map[string]float64{
				"timers_fired":     float64(g.Sim.TimersFired()),
				"net_messages":     float64(g.Net.Messages()),
				"net_bytes":        float64(g.Net.Bytes()),
				"final_virtual_ms": float64(g.Sim.Now()) / float64(time.Millisecond),
			},
		},
	}
	// One series per populated layer histogram, in sorted-name order.
	series = append(series, histSeries(g, "scenario.hist.")...)
	return series, g, row
}

// histSeries distills every populated histogram in the grid's registry
// into one quantile series apiece, under the given name prefix.
func histSeries(g *grid.Grid, prefix string) []Series {
	var out []Series
	for _, name := range g.Hists.Names() {
		h := g.Hists.H(name)
		n := h.Count()
		if n == 0 {
			continue
		}
		out = append(out, Series{
			Name: prefix + name,
			Kind: "scenario",
			N:    int(n),
			Values: map[string]float64{
				"p50_ns":  float64(h.Quantile(0.50)),
				"p90_ns":  float64(h.Quantile(0.90)),
				"p99_ns":  float64(h.Quantile(0.99)),
				"max_ns":  float64(h.Max()),
				"mean_ns": h.Mean(),
			},
		})
	}
	return out
}

// sloScenarioFaultRate pins the fault rate the SLO scenario replays: the
// smoke configuration's faulted row, where the orphan rule pages.
const sloScenarioFaultRate = 0.75

// RunSLOScenario executes the deterministic chaos workload with the SLO
// engine armed (the faulted row of the B7 smoke configuration) and
// distills the observability plane's behavior into "scenario.slo"
// series: alert and dump counts, the virtual-time detection lag from
// first fault onset to first page, and the fault-linked signal levels at
// quiescence. Byte-stable run to run like every scenario series.
func RunSLOScenario(seed int64) ([]Series, *grid.Grid) {
	if seed == 0 {
		seed = 1
	}
	cfg := experiments.SLOSmokeConfig(seed)
	row, g, _ := experiments.SLORun(cfg, sloScenarioFaultRate)
	end := g.Sim.Now()
	series := []Series{
		{
			Name: "scenario.slo.detection",
			Kind: "scenario",
			N:    row.Requests,
			Values: map[string]float64{
				"faults":           float64(row.Faults),
				"first_fault_ms":   float64(row.FirstFault) / float64(time.Millisecond),
				"alerts_fired":     float64(row.Alerts),
				"alerts_resolved":  float64(row.Resolves),
				"detection_lag_ms": float64(row.DetectionLag) / float64(time.Millisecond),
				"completed":        float64(row.Completed),
				"failed":           float64(row.Failed),
			},
		},
		{
			Name: "scenario.slo.flightrec",
			Kind: "scenario",
			N:    int(row.Dumps),
			Values: map[string]float64{
				"dumps":           float64(row.Dumps),
				"slo_dumps":       float64(row.SLODumps),
				"dump_errors":     float64(row.DumpErrors),
				"dump_skipped":    float64(row.DumpSkipped),
				"transport_drops": g.Gauges.G("transport.drops").Value(end),
				"orphans_end":     g.Gauges.G("broker.orphans@broker0").Value(end),
				"alerts_active":   g.Gauges.G("slo.alerts.active").Value(end),
			},
		},
	}
	return series, g
}

// wireScenarioMessages and wireScenarioBody pin the fixed stream the wire
// scenario runs per codec setting: enough messages that batch sizes and
// byte counts are stable, small enough to finish in milliseconds.
const (
	wireScenarioMessages = 2000
	wireScenarioBody     = 64
)

// wireScenarioBatch is the coalescing policy of the batched wire row.
func wireScenarioBatch() transport.BatchOptions {
	return transport.BatchOptions{MaxMsgs: 32, MaxBytes: 64 << 10, Delay: 500 * time.Microsecond}
}

// RunWireScenario executes the deterministic half of the B3 wire study —
// a fixed notification stream per codec setting — and distills each row
// into a "scenario.wire" series: wire bytes, per-message framing cost,
// deliveries, drops, and batch coalescing. Wall-clock throughput lives in
// the wire_encode/wire_decode benches and benchgrid -app wire; these
// series pin the codec's on-the-wire behavior byte-stably run to run.
func RunWireScenario(seed int64) []Series {
	if seed == 0 {
		seed = 1
	}
	_ = seed // the stream is fixed; the seed keeps the signature uniform
	rows := []struct {
		name  string
		codec rpc.Codec
		batch transport.BatchOptions
	}{
		{"scenario.wire.json", rpc.JSON, transport.BatchOptions{}},
		{"scenario.wire.binary", rpc.Binary, transport.BatchOptions{}},
		{"scenario.wire.binary_batched", rpc.Binary, wireScenarioBatch()},
	}
	var series []Series
	for _, r := range rows {
		row := experiments.WireNetRun(r.codec, r.batch, wireScenarioMessages, wireScenarioBody)
		vals := map[string]float64{
			"delivered":        float64(row.Delivered),
			"dropped":          float64(row.Dropped),
			"wire_bytes":       float64(row.WireBytes),
			"bytes_per_msg":    row.BytesPerMsg,
			"final_virtual_ms": row.VirtualMs,
		}
		if row.BatchP50 > 0 {
			vals["batch_p50_msgs"] = row.BatchP50
		}
		series = append(series, Series{
			Name:   r.name,
			Kind:   "scenario",
			N:      row.Messages,
			Values: vals,
		})
	}
	return series
}

// scaleScenarioConfig is the fixed sub-second slice of the B4 scale study
// the "scenario.scale" series measure: a Poisson batch-job stream over a
// small fleet, raw on the kernel, deep enough that the timing wheel,
// passive timer batches, and release index all carry real load.
func scaleScenarioConfig(seed int64) experiments.ScaleConfig {
	return experiments.ScaleConfig{
		Jobs:             2000,
		Machines:         50,
		MachineSize:      16,
		MeanInterarrival: time.Second,
		Seed:             seed,
	}
}

// RunScaleScenario executes the deterministic scale slice on the
// production timing wheel and distills it into one "scenario.scale.kernel"
// series: job accounting, timer dispatch volume, drain time, and queue-wait
// quantiles. Every value is a virtual-time quantity, byte-stable run to
// run; the wall-clock side of B4 lives in benchgrid -app scale.
func RunScaleScenario(seed int64) []Series {
	if seed == 0 {
		seed = 1
	}
	row := experiments.ScaleRun(scaleScenarioConfig(seed), vtime.EngineWheel)
	return []Series{{
		Name: "scenario.scale.kernel",
		Kind: "scenario",
		N:    row.Jobs,
		Values: map[string]float64{
			"done":            float64(row.Done),
			"failed":          float64(row.Failed),
			"timers_fired":    float64(row.TimersFired),
			"virtual_end_ms":  float64(row.VirtualEnd) / float64(time.Millisecond),
			"mean_wait_ms":    float64(row.MeanWait) / float64(time.Millisecond),
			"p99_wait_ms":     float64(row.P99Wait) / float64(time.Millisecond),
			"machines":        float64(row.Machines),
			"jobs_per_virt_s": float64(row.Jobs) / row.VirtualEnd.Seconds(),
		},
	}}
}

// ScaleSeries runs the FULL-SIZE B4 scale study — 10⁶ jobs over 10⁴
// machines on the production timing wheel, minutes of wall clock — and
// returns it as one "scale.b4.full" series: virtual-time accounting in
// Values, wall-clock ns/job and jobs/sec in the NsPerOp/OpsPerSec fields.
// Unlike the scenario series this is deliberately NOT part of Run: it is
// appended only when perfgrid is invoked with -scale, so the committed
// BENCH_grid.json documents the kernel's scale envelope without every
// snapshot or test paying for it. Kind "scale" keeps it out of the bench
// regression compare (wall-clock at this length is machine-dependent).
func ScaleSeries(seed int64) []Series {
	if seed == 0 {
		seed = 1
	}
	row := experiments.ScaleRun(experiments.ScaleConfig{Seed: seed}, vtime.EngineWheel)
	return []Series{{
		Name:      "scale.b4.full",
		Kind:      "scale",
		N:         row.Jobs,
		NsPerOp:   row.NsPerJob,
		OpsPerSec: row.JobsPerSec,
		Values: map[string]float64{
			"jobs":           float64(row.Jobs),
			"machines":       float64(row.Machines),
			"machine_size":   float64(row.MachineSize),
			"done":           float64(row.Done),
			"failed":         float64(row.Failed),
			"timers_fired":   float64(row.TimersFired),
			"virtual_end_ms": float64(row.VirtualEnd) / float64(time.Millisecond),
			"mean_wait_ms":   float64(row.MeanWait) / float64(time.Millisecond),
			"p99_wait_ms":    float64(row.P99Wait) / float64(time.Millisecond),
			"wall_ms":        float64(row.Wall) / float64(time.Millisecond),
		},
	}}
}

// fedScenarioConfig is the fixed federated setting the "scenario.fed"
// series measure: the stock B6 grid, run as a two-replica group absorbing
// a leader crash — still a fraction of a second of real time, and deep
// enough that election, shard hand-off, journal adoption, and client
// failover all leave samples in the federation histograms.
func fedScenarioConfig(seed int64) experiments.FederationLoadConfig {
	return experiments.FederationLoadConfig{Seed: seed}
}

// fedScenarioReplicas pins the replica count the federation scenario runs.
const fedScenarioReplicas = 2

// RunFedScenario executes the deterministic federated-broker scenario and
// distills it into "scenario.fed" series: the client-observed row plus
// quantiles of the federation's own histograms (election latency, journal
// hand-off age, forward hop counts). Like RunScenario, every value is a
// virtual-time quantity: for a fixed seed the series and the returned
// grid's Prometheus exposition are byte-stable run to run.
func RunFedScenario(seed int64) ([]Series, *grid.Grid, experiments.FederationLoadRow) {
	if seed == 0 {
		seed = 1
	}
	row, g := experiments.FederationLoadRun(fedScenarioConfig(seed), fedScenarioReplicas)

	series := []Series{{
		Name: "scenario.fed.load",
		Kind: "scenario",
		N:    row.Requests,
		Values: map[string]float64{
			"replicas":           float64(row.Replicas),
			"completed":          float64(row.Completed),
			"failed":             float64(row.Failed),
			"rejects":            float64(row.Rejects),
			"failovers":          float64(row.Failovers),
			"forwards":           float64(row.Forwards),
			"elections":          float64(row.Elections),
			"handoffs":           float64(row.Handoffs),
			"crashes":            float64(row.Crashes),
			"throughput_per_min": row.ThroughputPerMin,
			"p50_ms":             float64(row.P50) / float64(time.Millisecond),
			"p99_ms":             float64(row.P99) / float64(time.Millisecond),
		},
	}}
	// Only the federation's own histograms: the broker/RPC/kernel layers
	// are already covered by RunScenario's grid, and duplicating their
	// names here would collide in the snapshot.
	for _, s := range histSeries(g, "scenario.fed.hist.") {
		if strings.HasPrefix(s.Name, "scenario.fed.hist.fed.") {
			series = append(series, s)
		}
	}
	return series, g, row
}
