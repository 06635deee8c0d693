// Command perfbench is the repository benchmark: it drives seeded
// workloads through the simulator's public APIs, checks the simulated
// outputs, and reports host cost and simulated outcome as one JSON line.
//
// Usage, from the repository root:
//
//	sh perfbench/run.sh --workload coalloc|jobstream|faulted --seed N --seconds S --trace 0|1
//
// A round is one testbed set-up plus one simulation to quiescence, run
// in its own process. With --trace 0 the benchmark repeats rounds until
// S seconds have passed (at least three) and reports end-to-end medians.
// With --trace 1 it runs one untraced round, one round under the CPU
// profiler with spans recorded, and one round with every allocation
// profiled, and reports the per-layer ledger. README.md lists the
// metrics and what each layer should move.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cogrid/internal/metrics"
)

// outDir holds the run's artifacts (spans, ledgers, fingerprints),
// relative to the repository root the benchmark runs from.
const outDir = ".bench_build/perfbench"

// minRounds is the fewest rounds a timed run measures, so its medians
// never rest on a single round.
const minRounds = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: coalloc, jobstream or faulted")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "how long a timed run measures")
	traced := flag.Int("trace", 0, "1: traced run reporting the per-layer ledger")
	kind := flag.String("round", "", "internal: run one round of this kind and report it")
	flag.Parse()
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *kind != "" {
		line, _ := json.Marshal(runRound(w, *seed, *kind))
		fmt.Println(string(line))
		return
	}
	if err := os.MkdirAll(filepath.Join(outDir, "fingerprints"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("perfbench %s seed=%d nproc=%d GOMAXPROCS=%d %s\n",
		w.name, *seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var res result
	var err error
	if *traced == 1 {
		res, err = tracedRun(w, *seed)
	} else {
		res, err = timedRun(w, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Println("check failed:", err)
		res.Correct = false
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// spawn runs one round in a fresh process and returns its report. A
// round whose audit failed is an error.
func spawn(w *workload, seed int64, kind string) (roundReport, error) {
	var rep roundReport
	exe, err := os.Executable()
	if err != nil {
		return rep, err
	}
	cmd := exec.Command(exe, "--round", kind, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	// A round outlives no coordinator: if this process is killed, so is
	// the round it is waiting for.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return rep, fmt.Errorf("%s round: %w", kind, err)
	}
	last := out[bytes.LastIndexByte(bytes.TrimRight(out, "\n"), '\n')+1:]
	if err := json.Unmarshal(last, &rep); err != nil {
		return rep, fmt.Errorf("%s round: bad report: %w", kind, err)
	}
	if rep.Err != "" {
		return rep, fmt.Errorf("%s round: %s", kind, rep.Err)
	}
	return rep, nil
}

// timedRun repeats rounds for the given duration and reports end-to-end
// medians. Every round must reproduce the first one's fingerprint.
func timedRun(w *workload, seed int64, d time.Duration) (result, error) {
	res := result{Metrics: map[string]metric{}}
	start := time.Now()
	var reps []roundReport
	for len(reps) < minRounds || time.Since(start) < d {
		rep, err := spawn(w, seed, kindPlain)
		if err != nil {
			return res, err
		}
		if len(reps) == 0 {
			if err := checkStored(w.name, seed, rep.Fingerprint); err != nil {
				return res, err
			}
		} else if err := rep.Fingerprint.compare(reps[0].Fingerprint); err != nil {
			return res, fmt.Errorf("round %d: %w", len(reps)+1, err)
		}
		reps = append(reps, rep)
		fmt.Printf("round %d: wall %.3fs stolen %.3fs host %.3fs cpu %.3fs setup %.2fms rss %.1fMB gc %d\n", len(reps),
			float64(rep.WallNs)/1e9, float64(rep.StolenNs)/1e9, rep.hostTime().Seconds(), float64(rep.CPUNs)/1e9,
			float64(rep.SetupNs)/1e6, float64(rep.MaxRSSKB)/1024, rep.GCs)
	}
	first := reps[0]
	res.Attempted = first.Ops * len(reps)
	res.Failed = first.Failed * len(reps)
	ops := float64(first.Ops)
	med := func(f func(roundReport) float64) float64 {
		v := make([]float64, len(reps))
		for i, r := range reps {
			v[i] = f(r)
		}
		return metrics.NewSample(v).Percentile(0.5)
	}
	m := res.Metrics
	m["ops_per_s"] = metric{med(func(r roundReport) float64 { return ops / r.hostTime().Seconds() }), "1/s"}
	m["cpu_us_per_op"] = metric{med(func(r roundReport) float64 { return float64(r.CPUNs) / 1e3 / ops }), "us"}
	m["allocs_per_op"] = metric{med(func(r roundReport) float64 { return float64(r.Mallocs) / ops }), "count"}
	m["alloc_bytes_per_op"] = metric{med(func(r roundReport) float64 { return float64(r.Bytes) / ops }), "B"}
	m["peak_rss_mb"] = metric{med(func(r roundReport) float64 { return float64(r.MaxRSSKB) / 1024 }), "MB"}
	m["setup_s"] = metric{med(func(r roundReport) float64 { return float64(r.SetupNs) / 1e9 }), "s"}
	for _, k := range []string{"sim_p50_s", "sim_p99_s", "sim_makespan_s"} {
		v, ok := first.Sim[k]
		if !ok {
			return res, fmt.Errorf("%s: too few samples", k)
		}
		m[k] = metric{v, "s"}
	}
	fmt.Printf("%d rounds of %d ops, %d failed (failed_frac %.4f); fingerprint %s\n",
		len(reps), first.Ops, first.Failed, float64(first.Failed)/ops, first.Fingerprint)
	fmt.Printf("sim latency: p50 %.3fs, p99 %.3fs over %.0f samples; makespan %.1fs\n",
		first.Sim["sim_p50_s"], first.Sim["sim_p99_s"], first.Counts["sim.samples"], first.Sim["sim_makespan_s"])
	res.Correct = true
	return res, nil
}

// checkStored compares the fingerprint with the one an earlier run of
// the same binary and seed stored, and stores it if none exists.
func checkStored(name string, seed int64, fp fingerprint) error {
	id, err := binaryID()
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "fingerprints", fmt.Sprintf("%s-seed%d-%s", name, seed, id))
	if data, err := os.ReadFile(path); err == nil {
		var prev fingerprint
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("stored fingerprint %s: %w", path, err)
		}
		if err := fp.compare(prev); err != nil {
			return fmt.Errorf("differs from an earlier run of seed %d: %w", seed, err)
		}
		return nil
	}
	data, _ := json.Marshal(fp)
	return os.WriteFile(path, data, 0o644)
}

// binaryID identifies the running build, so a rebuilt program does not
// compare against fingerprints of its predecessor.
func binaryID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// tracedRun measures an untraced round, a CPU-profiled round with spans
// and an allocation-profiled round, and reports the per-layer ledger.
func tracedRun(w *workload, seed int64) (result, error) {
	res := result{Metrics: map[string]metric{}}
	base, err := spawn(w, seed, kindPlain)
	if err != nil {
		return res, err
	}
	cpu, err := spawn(w, seed, kindCPU)
	if err != nil {
		return res, err
	}
	alloc, err := spawn(w, seed, kindAlloc)
	if err != nil {
		return res, err
	}
	for _, r := range []roundReport{cpu, alloc} {
		if err := r.Fingerprint.compare(base.Fingerprint); err != nil {
			return res, fmt.Errorf("profiled round: %w", err)
		}
	}
	res.Attempted, res.Failed = base.Ops, base.Failed
	ops := float64(base.Ops)

	for _, attributed := range []map[string]int64{cpu.CPU, alloc.Allocs} {
		for name := range attributed {
			if !slices.Contains(layers, name) {
				return res, fmt.Errorf("ledger: samples attributed to %q, which is not a listed layer", name)
			}
		}
	}
	var cpuTotal int64
	for _, n := range cpu.CPU {
		cpuTotal += n
	}
	m := res.Metrics
	for _, name := range layers {
		m[name+".cpu_share"] = metric{100 * float64(cpu.CPU[name]) / float64(max(cpuTotal, 1)), "%"}
		m[name+".allocs_per_op"] = metric{float64(alloc.Allocs[name]) / ops, "count"}
		m[name+".alloc_bytes_per_op"] = metric{float64(alloc.AllocBytes[name]) / ops, "B"}
	}
	c := base.Counts
	for name, count := range map[string]string{
		"vtime.timers_per_op":   "vtime.timers",
		"transport.msgs_per_op": "transport.msgs",
		"broker.rejects_per_op": "broker.rejects",
		"broker.retries_per_op": "broker.retries",
		"trace.events_per_op":   "trace.events",
	} {
		m[name] = metric{c[count] / ops, "count"}
	}
	m["transport.bytes_per_op"] = metric{c["transport.bytes"] / ops, "B"}
	for _, name := range []string{"broker.watchdog_aborts", "broker.orphans_reaped", "flightrec.dumps", "slo.alerts_fired", "failure.faults"} {
		m[name] = metric{c[name], "count"}
	}
	m["core.barrier.sim_wait_p50_s"] = metric{c["core.barrier.sim_wait_p50_s"], "s"}
	m["core.barrier.sim_wait_p99_s"] = metric{c["core.barrier.sim_wait_p99_s"], "s"}
	m["lrm.submit.host_us_p50"] = metric{cpu.Counts["lrm.submit.host_us_p50"], "us"}
	m["lrm.submit.host_us_p99"] = metric{cpu.Counts["lrm.submit.host_us_p99"], "us"}
	m["runtime.gc_cycles_per_kop"] = metric{1000 * float64(base.GCs) / ops, "count"}
	m["runtime.tiny_allocs_per_op"] = metric{float64(alloc.Tiny) / ops, "count"}
	m["sim.latency_samples"] = metric{c["sim.samples"], "count"}
	m["tracing.ops_per_s"] = metric{ops / cpu.hostTime().Seconds(), "1/s"}
	m["tracing.untraced_ops_per_s"] = metric{ops / base.hostTime().Seconds(), "1/s"}

	table := ledgerTable(m)
	if err := os.WriteFile(filepath.Join(outDir, w.name+".ledger.txt"), []byte(table), 0o644); err != nil {
		return res, err
	}
	fmt.Print(table)
	fmt.Printf("%.0f spans in %s; tracing overhead %.1f%%\n", cpu.Counts["spans"],
		filepath.Join(outDir, w.name+".spans.jsonl.gz"), 100*(cpu.hostTime().Seconds()/base.hostTime().Seconds()-1))
	if err := checkLedger(w.name, m, float64(base.Mallocs)/ops); err != nil {
		return res, err
	}
	res.Correct = true
	return res, nil
}

// checkLedger holds the traced run to the ledger's own consistency
// checks and to the workload's stated purpose.
func checkLedger(name string, m map[string]metric, untracedAllocs float64) error {
	cpu, allocs := 0.0, m["runtime.tiny_allocs_per_op"].Value
	for _, l := range layers {
		cpu += m[l+".cpu_share"].Value
		allocs += m[l+".allocs_per_op"].Value
	}
	if cpu < 98 || cpu > 102 {
		return fmt.Errorf("ledger: cpu_share sums to %.2f%%, want 100 ± 2%%", cpu)
	}
	if d := allocs/untracedAllocs - 1; d < -0.02 || d > 0.02 {
		return fmt.Errorf("ledger: per-layer and tiny allocs sum to %.1f per op, untraced %.1f (%+.1f%%), want within 2%%",
			allocs, untracedAllocs, 100*d)
	}
	var absent []string
	switch name {
	case "jobstream":
		absent = []string{"rpc", "wire", "gsi"}
		if v := m["transport.msgs_per_op"].Value; v != 0 {
			return fmt.Errorf("jobstream: %.2f msgs per op, want 0", v)
		}
	case "coalloc":
		// Telemetry off means no tracer events and no flight-recorder or
		// SLO work. The trace package itself still runs: callers build
		// counter names and derive span contexts whether or not a sink is
		// attached, and the ledger reports that cost under trace.
		absent = []string{"flightrec", "slo"}
		if v := m["trace.events_per_op"].Value; v != 0 {
			return fmt.Errorf("coalloc: %.2f trace events per op, want 0", v)
		}
	}
	for _, l := range absent {
		if cpu, n := m[l+".cpu_share"].Value, m[l+".allocs_per_op"].Value; cpu != 0 || n != 0 {
			return fmt.Errorf("%s: layer %s has %.2f%% of CPU and %.2f allocs per op, want none", name, l, cpu, n)
		}
	}
	return nil
}

// ledgerTable renders the ledger one row per layer.
func ledgerTable(m map[string]metric) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %9s %13s %13s\n", "layer", "cpu_share", "allocs/op", "bytes/op")
	for _, l := range layers {
		fmt.Fprintf(&b, "%-14s %8.2f%% %13.1f %13.0f\n", l, m[l+".cpu_share"].Value,
			m[l+".allocs_per_op"].Value, m[l+".alloc_bytes_per_op"].Value)
	}
	fmt.Fprintf(&b, "%-14s %9s %13.1f %13s\n", "(tiny packed)", "", m["runtime.tiny_allocs_per_op"].Value, "")
	return b.String()
}
