package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cogrid/internal/metrics"
)

// testbed is one round's assembled simulation.
type testbed interface {
	run() (roundResult, error)
}

type workload struct {
	name  string
	setup func(seed int64, sp *spans) (testbed, error)
	// check holds the workload's self-checks on a finished round.
	check func(r roundResult) error
}

var workloads = []workload{
	{
		name: "coalloc",
		setup: func(seed int64, sp *spans) (testbed, error) {
			t, err := newCoTestbed(seed, false)
			if err != nil {
				return nil, err
			}
			t.sp = sp
			return t, nil
		},
		check: func(r roundResult) error {
			if n := r.counts["trace.events"]; n != 0 {
				return fmt.Errorf("coalloc: telemetry is off but the tracer holds %.0f events", n)
			}
			return nil
		},
	},
	{
		name: "jobstream",
		setup: func(seed int64, sp *spans) (testbed, error) {
			t := newJobstream(seed)
			t.sp = sp
			return t, nil
		},
		check: func(r roundResult) error {
			if r.msgs != 0 {
				return fmt.Errorf("jobstream: %d network messages, want 0", r.msgs)
			}
			return nil
		},
	},
	{
		name: "faulted",
		setup: func(seed int64, sp *spans) (testbed, error) {
			t, err := newCoTestbed(seed, true)
			if err != nil {
				return nil, err
			}
			t.sp = sp
			if faultOnsets(t.plan) == 0 {
				return nil, errors.New("faulted: the fault plan injects no fault")
			}
			return t, nil
		},
		check: func(r roundResult) error {
			c := r.counts
			switch {
			case c["broker.retries"]+c["broker.orphans_reaped"] < 1:
				return errors.New("faulted: no retry and no orphan reaped")
			case c["flightrec.dumps"] < 1:
				return errors.New("faulted: no flight-recorder dump")
			}
			return nil
		},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Round kinds. Every round runs in a fresh process, so no round inherits
// the heap, goroutine pool or abandoned daemons of another.
const (
	kindPlain = "plain" // timed, untraced
	kindCPU   = "cpu"   // under the CPU profiler, with spans recorded
	kindAlloc = "alloc" // with every allocation profiled
)

// cpuProfileHz is the CPU-profiled round's sampling rate: 500 Hz instead
// of pprof's fixed 100 Hz gives a round enough samples to resolve layers
// near 1%.
const cpuProfileHz = 500

// roundReport is what a round process hands back to the coordinator.
type roundReport struct {
	Err         string             `json:"err,omitempty"`
	SetupNs     int64              `json:"setup_ns"`
	WallNs      int64              `json:"wall_ns"`
	CPUNs       int64              `json:"cpu_ns"`
	Mallocs     uint64             `json:"mallocs"`
	Bytes       uint64             `json:"bytes"`
	GCs         uint32             `json:"gcs"`
	MaxRSSKB    int64              `json:"max_rss_kb"`
	Ops         int                `json:"ops"`
	Failed      int                `json:"failed"`
	Fingerprint fingerprint        `json:"fingerprint"`
	Sim         map[string]float64 `json:"sim"`
	Counts      map[string]float64 `json:"counts"`
	CPU         map[string]int64   `json:"cpu,omitempty"`    // profile samples per layer
	Allocs      map[string]int64   `json:"allocs,omitempty"` // objects per layer
	AllocBytes  map[string]int64   `json:"alloc_bytes,omitempty"`
	Tiny        uint64             `json:"tiny,omitempty"` // tiny allocations packed into a block
	StolenNs    int64              `json:"stolen_ns"`      // hypervisor steal during the run, all CPUs
}

// runRound sets up and runs one round of the given kind, measuring its
// host cost, and audits the simulated outcome.
func runRound(w *workload, seed int64, kind string) roundReport {
	var rep roundReport
	var sp *spans
	if kind == kindCPU {
		sp = newSpans()
	}
	t0 := time.Now()
	tb, err := w.setup(seed, sp)
	rep.SetupNs = time.Since(t0).Nanoseconds()
	if err != nil {
		rep.Err = fmt.Sprintf("set-up: %v", err)
		return rep
	}

	var prof bytes.Buffer
	var before ledger
	var tinyBefore uint64
	switch kind {
	case kindCPU:
		// StartCPUProfile finds the profiler already running at this
		// rate, warns on stderr and keeps it.
		runtime.SetCPUProfileRate(cpuProfileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			rep.Err = err.Error()
			return rep
		}
	case kindAlloc:
		runtime.MemProfileRate = 1
		before, tinyBefore = memSnapshot()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	s0 := stolenTime()
	w0 := time.Now()
	r, err := tb.run()
	rep.WallNs = time.Since(w0).Nanoseconds()
	rep.StolenNs = (stolenTime() - s0).Nanoseconds()
	rep.CPUNs = (cpuTime() - c0).Nanoseconds()
	runtime.ReadMemStats(&m1)
	if kind == kindCPU {
		pprof.StopCPUProfile()
	}
	rep.Mallocs = m1.Mallocs - m0.Mallocs
	rep.Bytes = m1.TotalAlloc - m0.TotalAlloc
	rep.GCs = m1.NumGC - m0.NumGC
	rep.MaxRSSKB = maxRSSKB()
	if err == nil {
		err = checkMachines(r.machines)
	}
	if err == nil {
		err = w.check(r)
	}
	if err != nil {
		rep.Err = err.Error()
		return rep
	}
	rep.Ops, rep.Failed = len(r.ops), countFailed(r.ops)
	rep.Fingerprint = fingerprintOf(r)
	rep.Sim = simStats(r)
	rep.Counts = roundCounts(r)

	switch kind {
	case kindCPU:
		l := ledger{}
		if err := cpuLedger(l, prof.Bytes()); err != nil {
			rep.Err = err.Error()
			return rep
		}
		rep.CPU = map[string]int64{}
		for name, s := range l {
			rep.CPU[name] = s.CPU
		}
		sp.link()
		if err := sp.write(filepath.Join(outDir, w.name+".spans.jsonl.gz")); err != nil {
			rep.Err = err.Error()
		}
		rep.Counts["spans"] = float64(len(sp.list))
	case kindAlloc:
		after, tinyAfter := memSnapshot()
		rep.Allocs, rep.AllocBytes = map[string]int64{}, map[string]int64{}
		for name, d := range allocDelta(before, after) {
			rep.Allocs[name], rep.AllocBytes[name] = d.Allocs, d.Bytes
		}
		rep.Tiny = tinyAfter - tinyBefore
	}
	return rep
}

// roundCounts gathers the per-layer counts and waits a round read from
// public accessors and the benchmark's own records.
func roundCounts(r roundResult) map[string]float64 {
	c := map[string]float64{
		"vtime.timers":    float64(r.timers),
		"transport.msgs":  float64(r.msgs),
		"transport.bytes": float64(r.bytes),
		"sim.samples":     float64(len(latencies(r))),
	}
	for k, v := range r.counts {
		c[k] = v
	}
	waits := make([]float64, len(r.barrier))
	for i, d := range r.barrier {
		waits[i] = d.Seconds()
	}
	w := metrics.NewSample(waits)
	c["core.barrier.sim_wait_p50_s"] = w.Percentile(0.5)
	c["core.barrier.sim_wait_p99_s"] = w.Percentile(0.99)
	submit := make([]float64, len(r.submitNs))
	for i, ns := range r.submitNs {
		submit[i] = float64(ns) / 1e3
	}
	h := metrics.NewSample(submit)
	c["lrm.submit.host_us_p50"] = h.Percentile(0.5)
	c["lrm.submit.host_us_p99"] = h.Percentile(0.99)
	return c
}

// hostTime is the round's wall time less its share of the CPU time the
// hypervisor stole from this machine meanwhile. On a shared virtual
// machine other tenants' load shows up as steal; left in, it would read
// as the simulator slowing down. Without steal it is the wall time.
func (r roundReport) hostTime() time.Duration {
	d := time.Duration(r.WallNs) - time.Duration(r.StolenNs)/time.Duration(runtime.NumCPU())
	if d <= 0 {
		return time.Duration(r.WallNs)
	}
	return d
}

func countFailed(ops []opRecord) int {
	n := 0
	for _, op := range ops {
		if !op.OK {
			n++
		}
	}
	return n
}

// latencies returns the virtual latency of every op that succeeded.
func latencies(r roundResult) []float64 {
	var out []float64
	for _, op := range r.ops {
		if op.OK {
			out = append(out, op.Latency.Seconds())
		}
	}
	return out
}

// simStats summarises the round's virtual-time outcome, with the
// repository's percentile convention (metrics.Sample). The 99th
// percentile is reported only when at least ten samples rank above it;
// the workloads are sized so that they always do.
func simStats(r roundResult) map[string]float64 {
	lat := latencies(r)
	var end time.Duration
	for _, op := range r.ops {
		end = max(end, op.Done)
	}
	s := metrics.NewSample(lat)
	out := map[string]float64{
		"sim_p50_s":      s.Percentile(0.5),
		"sim_makespan_s": (end - r.start).Seconds(),
	}
	if beyond(len(lat), 0.99) >= 10 {
		out["sim_p99_s"] = s.Percentile(0.99)
	}
	return out
}

// beyond counts the samples of n that rank above the p-quantile: the
// metrics.Sample convention places it at 1-based rank p*(n+1), between
// two neighbours when that is fractional.
func beyond(n int, p float64) int {
	return min(max(n-int(p*float64(n+1)), 0), n)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func maxRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss // Linux reports KiB
}

// userHZ is the kernel's clock-tick rate for /proc/stat (USER_HZ, 100 on
// Linux).
const userHZ = 100

// stolenTime returns the CPU time the hypervisor has stolen from this
// machine so far, summed over all CPUs (the steal column of /proc/stat),
// or zero where the kernel does not report it.
func stolenTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / userHZ
}
