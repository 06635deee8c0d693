package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"cogrid/internal/lrm"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// Shape of the job stream: B4's job mix (1-4 processes, 30 s - 10 min
// runtimes, wall limit twice the runtime) dealt round-robin over a
// smaller fleet. Offered load is about 80% of the fleet's processors, so
// batch queues form and backfill runs, but the backlog does not grow
// without bound.
const (
	jsJobs        = 40000
	jsMachines    = 100
	jsMachineSize = 32
	jsMaxProcs    = 4
	jsMinRuntime  = 30 * time.Second
	jsMaxRuntime  = 10 * time.Minute
	jsMeanGap     = 310 * time.Millisecond
	jsMinStartup  = 900 * time.Millisecond
	jsMaxStartup  = 1100 * time.Millisecond
	jsPoll        = 10 * time.Second
)

// jsJob is one pre-drawn job.
type jsJob struct {
	at      time.Duration
	machine int
	procs   int
	runtime time.Duration
}

// jsTestbed is one job-stream round: a fleet of batch machines on the
// kernel with no protocol layers and no telemetry.
type jsTestbed struct {
	sim      *vtime.Sim
	net      *transport.Network
	machines []*lrm.Machine
	jobs     []jsJob
	env      []map[string]string
	ops      []opRecord
	submitNs []int64 // host ns per Submit call (traced rounds only)
	submitSp []int32 // span index of each job's Submit (traced rounds only)

	sp *spans
}

func newJobstream(seed int64) *jsTestbed {
	t := &jsTestbed{sim: vtime.NewWithConfig(vtime.Config{Seed: seed})}
	t.net = transport.New(t.sim, transport.UniformLatency(time.Millisecond))
	rng := rand.New(rand.NewSource(seed))
	t.machines = make([]*lrm.Machine, jsMachines)
	for i := range t.machines {
		// Machines differ in process startup cost, drawn around 1 s.
		startup := jsMinStartup + time.Duration(rng.Int63n(int64(jsMaxStartup-jsMinStartup)))
		m := lrm.NewMachine(t.net.AddHost(fmt.Sprintf("m%03d", i)), jsMachineSize, lrm.Config{
			Mode:           lrm.Batch,
			Costs:          lrm.Costs{Fork: time.Millisecond, ProcStartup: startup},
			RetireTerminal: true,
		})
		m.RegisterExecutable("work", t.work)
		t.machines[i] = m
	}
	t.jobs = make([]jsJob, jsJobs)
	t.env = make([]map[string]string, jsJobs)
	for i, at := range poissonArrivals(rng, jsJobs, 0, jsMeanGap) {
		t.jobs[i] = jsJob{
			at:      at,
			machine: i % jsMachines,
			procs:   1 + rng.Intn(jsMaxProcs),
			runtime: jsMinRuntime + time.Duration(rng.Int63n(int64(jsMaxRuntime-jsMinRuntime))),
		}
		t.env[i] = map[string]string{"job": strconv.Itoa(i)}
	}
	t.ops = make([]opRecord, jsJobs)
	return t
}

// work is the job executable: rank 0 records when the application
// starts (submit to launch plus the machine's process startup, so never
// zero), then every rank computes its runtime in one step.
func (t *jsTestbed) work(p *lrm.Proc) error {
	i, err := strconv.Atoi(p.Getenv("job"))
	if err != nil {
		return err
	}
	if p.Rank == 0 {
		t.ops[i].Latency = p.Sim().Now() - t.jobs[i].at
	}
	parent := int32(-1)
	if t.sp != nil {
		parent = t.submitSp[i]
	}
	s := t.sp.begin("lrm.Work", int32(i), "", p.JobID(), parent, p.Sim().Now())
	err = p.Work(t.jobs[i].runtime, t.jobs[i].runtime)
	t.sp.end(s, p.Sim().Now())
	if p.Rank == 0 && err == nil {
		t.ops[i].Done = p.Sim().Now()
	}
	return err
}

// submit hands job i to its machine and chains the next arrival as a
// passive timer, so the stream itself rides the kernel.
func (t *jsTestbed) submit(i int) error {
	j := t.jobs[i]
	spec := lrm.JobSpec{Executable: "work", Count: j.procs, Env: t.env[i], TimeLimit: 2 * j.runtime}
	s := t.sp.begin("lrm.Submit", int32(i), "", "", -1, t.sim.Now())
	var h0 time.Time
	if t.sp != nil {
		t.submitSp[i] = s
		h0 = time.Now()
	}
	_, err := t.machines[j.machine].Submit(spec)
	if t.sp != nil {
		t.submitNs = append(t.submitNs, time.Since(h0).Nanoseconds())
	}
	t.sp.end(s, t.sim.Now())
	if err != nil {
		return fmt.Errorf("submit job %d: %w", i, err)
	}
	if next := i + 1; next < len(t.jobs) {
		t.sim.AfterFuncPassive(t.jobs[next].at-t.sim.Now(), func() { t.arrive(next) })
	}
	return nil
}

// arrive runs inside a passive timer, which cannot return an error:
// a failed submit is recorded and surfaces in the audit.
func (t *jsTestbed) arrive(i int) {
	if err := t.submit(i); err != nil {
		t.ops[i].Err = err.Error()
	}
}

func (t *jsTestbed) run() (roundResult, error) {
	if t.sp != nil {
		t.submitSp = make([]int32, len(t.jobs))
		t.submitNs = make([]int64, 0, len(t.jobs))
	}
	var drained bool
	err := t.sim.Run("driver", func() {
		t.sim.SleepUntil(t.jobs[0].at)
		t.arrive(0)
		for {
			var terminal int64
			for _, m := range t.machines {
				st := m.Stats()
				terminal += st.Done + st.Failed
			}
			if terminal >= int64(len(t.jobs)) {
				drained = true
				return
			}
			t.sim.Sleep(jsPoll)
		}
	})
	if err != nil {
		return roundResult{}, fmt.Errorf("simulation: %w", err)
	}
	res := roundResult{
		ops:      t.ops,
		start:    t.jobs[0].at,
		timers:   t.sim.TimersFired(),
		msgs:     t.net.Messages(),
		bytes:    t.net.Bytes(),
		counts:   map[string]float64{},
		machines: make([]machineState, len(t.machines)),
	}
	var terminal int64
	for i, m := range t.machines {
		res.machines[i] = stateOf(m)
		st := m.Stats()
		terminal += st.Done + st.Failed
	}
	for i := range t.ops {
		t.ops[i].OK = t.ops[i].Err == "" && t.ops[i].Done > 0
	}
	res.submitNs = t.submitNs
	switch {
	case !drained:
		return res, fmt.Errorf("job stream did not drain")
	case terminal != int64(len(t.jobs)):
		return res, fmt.Errorf("done+failed = %d, want the %d jobs submitted", terminal, len(t.jobs))
	case res.msgs != 0:
		return res, fmt.Errorf("job stream sent %d network messages, want 0", res.msgs)
	}
	return res, nil
}
