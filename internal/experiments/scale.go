package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"cogrid/internal/lrm"
	"cogrid/internal/metrics"
	"cogrid/internal/obs"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// --- B4: million-scale kernel throughput ---

// ScaleConfig parameterizes the scale study: a Poisson stream of batch
// jobs spread round-robin across a fleet of machines, run raw on the
// kernel (no GRAM/DUROC protocol layers) so the numbers measure timer
// dispatch, the blocked-process registry, and the batch scheduler — the
// paths the timing wheel and release index exist for. Zero values select
// the full-size run: 10⁶ jobs over 10⁴ 32-processor machines.
type ScaleConfig struct {
	Jobs        int
	Machines    int
	MachineSize int
	// MaxProcs caps the per-job process count (drawn uniformly from
	// 1..MaxProcs).
	MaxProcs int
	// MinRuntime/MaxRuntime bound the per-process work time (drawn
	// uniformly). The wall-time limit is 2× the drawn runtime, so every
	// running job also carries a passive limit timer that outlives it.
	MinRuntime time.Duration
	MaxRuntime time.Duration
	// MeanInterarrival is the Poisson arrival spacing. The default keeps
	// offered load slightly above fleet capacity, so queues form and the
	// backfill/release-index paths stay hot for the whole run.
	MeanInterarrival time.Duration
	// Engines lists the timer engines to run, one row each. Empty means
	// the production wheel only; the smoke configuration runs both and
	// Check diffs the rows' virtual-time columns.
	Engines []vtime.TimerEngine
	Seed    int64
}

func (c *ScaleConfig) fill() {
	if c.Jobs <= 0 {
		c.Jobs = 1_000_000
	}
	if c.Machines <= 0 {
		c.Machines = 10_000
	}
	if c.MachineSize <= 0 {
		c.MachineSize = 32
	}
	if c.MaxProcs <= 0 {
		c.MaxProcs = 4
	}
	if c.MinRuntime <= 0 {
		c.MinRuntime = 30 * time.Second
	}
	if c.MaxRuntime <= c.MinRuntime {
		c.MaxRuntime = 10 * time.Minute
	}
	if c.MeanInterarrival <= 0 {
		c.MeanInterarrival = 2 * time.Millisecond
	}
	if len(c.Engines) == 0 {
		c.Engines = []vtime.TimerEngine{vtime.EngineWheel}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// ScaleSmokeConfig is the seconds-long CI size of the scale study: a
// 10⁴-job stream run on both the reference heap and the production wheel,
// so Check can diff the engines column by column.
func ScaleSmokeConfig(seed int64) ScaleConfig {
	return ScaleConfig{
		Jobs:             10_000,
		Machines:         100,
		MachineSize:      32,
		MeanInterarrival: 200 * time.Millisecond,
		Engines:          []vtime.TimerEngine{vtime.EngineHeap, vtime.EngineWheel},
		Seed:             seed,
	}
}

// ScaleRow is one engine's outcome. The virtual-time columns (everything
// except the wall-clock trio at the end) are deterministic for a fixed
// config, identical across engines, and form the smoke differential
// Check enforces.
type ScaleRow struct {
	Engine      string `json:"engine"`
	Jobs        int    `json:"jobs"`
	Machines    int    `json:"machines"`
	MachineSize int    `json:"machine_size"`
	Done        int64  `json:"done"`
	Failed      int64  `json:"failed"`
	TimersFired int64  `json:"timers_fired"`
	// VirtualEnd is the drain time: the first poll tick at which every
	// job had reached a terminal state.
	VirtualEnd time.Duration `json:"virtual_end_ns"`
	MeanWait   time.Duration `json:"mean_wait_ns"` // accept-to-launch queue wait
	P99Wait    time.Duration `json:"p99_wait_ns"`
	// Wall-clock cost of the run — real time, informational only.
	Wall       time.Duration `json:"wall_ns"`
	NsPerJob   float64       `json:"ns_per_job"`
	JobsPerSec float64       `json:"jobs_per_sec"`
}

// ScaleResult is the B4 study.
type ScaleResult struct {
	Jobs     int        `json:"jobs"`
	Machines int        `json:"machines"`
	Rows     []ScaleRow `json:"rows"`
}

// scalePollInterval is the drain-poll spacing. The driver scans the fleet's
// terminal counts on this virtual-time grid, so VirtualEnd is quantized to
// it — deterministically, since completion state is a pure function of
// virtual time.
const scalePollInterval = 10 * time.Second

// ScaleStudy runs the config once per engine.
func ScaleStudy(cfg ScaleConfig) ScaleResult {
	cfg.fill()
	res := ScaleResult{Jobs: cfg.Jobs, Machines: cfg.Machines}
	for _, engine := range cfg.Engines {
		res.Rows = append(res.Rows, ScaleRun(cfg, engine))
	}
	return res
}

// ScaleRun pushes cfg.Jobs batch jobs through the fleet on one timer
// engine. Arrivals are a chained passive timer — each firing submits one
// job and schedules the next — so the stream itself rides the engine under
// test, alongside every wall-limit timer, process-startup wait, and work
// sleep the jobs generate.
func ScaleRun(cfg ScaleConfig, engine vtime.TimerEngine) ScaleRow {
	cfg.fill()
	row := ScaleRow{
		Engine:      engine.String(),
		Jobs:        cfg.Jobs,
		Machines:    cfg.Machines,
		MachineSize: cfg.MachineSize,
	}
	sim := vtime.NewWithConfig(vtime.Config{Seed: cfg.Seed, Engine: engine})
	net := transport.New(sim, transport.UniformLatency(time.Millisecond))
	hists := metrics.NewHistogramSet()
	net.Attach(obs.Sinks{Hists: hists})

	machines := make([]*lrm.Machine, cfg.Machines)
	for i := range machines {
		host := net.AddHost(fmt.Sprintf("m%05d", i))
		machines[i] = lrm.NewMachine(host, cfg.MachineSize, lrm.Config{
			Mode:  lrm.Batch,
			Costs: lrm.Costs{Fork: time.Millisecond, ProcStartup: time.Second},
			// Terminal jobs leave the table immediately: memory stays
			// proportional to live work, and Stats() keeps the counts.
			RetireTerminal: true,
		})
		machines[i].RegisterExecutable("work", func(p *lrm.Proc) error {
			// Per-process runtime arrives via Env to keep the executable
			// closure-free; the step is coarse so long runs sleep in one go.
			d, err := time.ParseDuration(p.Env["runtime"])
			if err != nil {
				return err
			}
			return p.Work(d, time.Hour)
		})
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	runtimeSpan := int64(cfg.MaxRuntime - cfg.MinRuntime)
	var arrive func(i int)
	arrive = func(i int) {
		m := machines[i%len(machines)]
		runtime := cfg.MinRuntime + time.Duration(rng.Int63n(runtimeSpan))
		_, err := m.Submit(lrm.JobSpec{
			Executable: "work",
			Count:      1 + rng.Intn(cfg.MaxProcs),
			Env:        map[string]string{"runtime": runtime.String()},
			TimeLimit:  2 * runtime,
		})
		if err != nil {
			// Machines are sized for every draw and never down, so Submit
			// cannot fail; a failure here is a harness bug worth crashing on.
			panic(fmt.Sprintf("scale: submit job %d: %v", i, err))
		}
		if next := i + 1; next < cfg.Jobs {
			gap := time.Duration(rng.ExpFloat64() * float64(cfg.MeanInterarrival))
			sim.AfterFuncPassive(gap, func() { arrive(next) })
		}
	}

	start := time.Now()
	err := sim.Run("scale-driver", func() {
		arrive(0)
		for {
			var done, failed int64
			for _, m := range machines {
				st := m.Stats()
				done += st.Done
				failed += st.Failed
			}
			if done+failed >= int64(cfg.Jobs) {
				row.Done, row.Failed = done, failed
				row.VirtualEnd = sim.Now()
				return
			}
			sim.Sleep(scalePollInterval)
		}
	})
	row.Wall = time.Since(start)
	if err != nil {
		panic(fmt.Sprintf("scale: sim: %v", err))
	}
	row.TimersFired = sim.TimersFired()
	if h := hists.H("lrm.queue.wait"); h.Count() > 0 {
		row.MeanWait = time.Duration(h.Mean())
		row.P99Wait = time.Duration(h.Quantile(0.99))
	}
	if cfg.Jobs > 0 {
		row.NsPerJob = float64(row.Wall.Nanoseconds()) / float64(cfg.Jobs)
	}
	if s := row.Wall.Seconds(); s > 0 {
		row.JobsPerSec = float64(cfg.Jobs) / s
	}
	return row
}

// VirtualEqual reports whether two rows agree on every deterministic
// virtual-time column — the engine-equivalence bar for the smoke run.
func (r ScaleRow) VirtualEqual(o ScaleRow) bool {
	return r.Done == o.Done && r.Failed == o.Failed &&
		r.TimersFired == o.TimersFired && r.VirtualEnd == o.VirtualEnd &&
		r.MeanWait == o.MeanWait && r.P99Wait == o.P99Wait
}

// Check is the scale study's acceptance gate: every row accounts for
// every job with zero failures (wall limits are sized so a correctly
// scheduled job cannot hit one), and when the sweep runs more than one
// timer engine, every deterministic virtual-time column must agree across
// the rows — the smoke-sized kernel-equivalence differential. Returns one
// message per violation.
func (r ScaleResult) Check() []string {
	var bad []string
	for _, row := range r.Rows {
		if got := row.Done + row.Failed; got != int64(r.Jobs) {
			bad = append(bad, fmt.Sprintf("engine %s accounted for %d of %d jobs", row.Engine, got, r.Jobs))
		}
		if row.Failed != 0 {
			bad = append(bad, fmt.Sprintf("engine %s failed %d jobs", row.Engine, row.Failed))
		}
	}
	for i := 1; i < len(r.Rows); i++ {
		if !r.Rows[0].VirtualEqual(r.Rows[i]) {
			bad = append(bad, fmt.Sprintf("engines %s and %s diverge on virtual-time columns:\n  %+v\n  %+v",
				r.Rows[0].Engine, r.Rows[i].Engine, r.Rows[0], r.Rows[i]))
		}
	}
	return bad
}

// Table renders the study as text.
func (r ScaleResult) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d jobs over %d machines\n", r.Jobs, r.Machines)
	fmt.Fprintf(&sb, "%-6s %9s %7s %12s %12s %10s %10s %9s %9s %10s\n",
		"engine", "done", "failed", "timers", "virt end", "mean wait", "p99 wait",
		"wall", "ns/job", "jobs/sec")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-6s %9d %7d %12d %12s %10s %10s %9s %9.0f %10.0f\n",
			row.Engine, row.Done, row.Failed, row.TimersFired,
			row.VirtualEnd.Truncate(time.Second), row.MeanWait.Truncate(time.Millisecond),
			row.P99Wait.Truncate(time.Millisecond), row.Wall.Truncate(time.Millisecond),
			row.NsPerJob, row.JobsPerSec)
	}
	return sb.String()
}
