package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"cogrid/internal/broker"
	"cogrid/internal/core"
	"cogrid/internal/failure"
	"cogrid/internal/grid"
	"cogrid/internal/lrm"
	"cogrid/internal/mds"
	"cogrid/internal/slo"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// Shape of the co-allocation workloads. The broker ranks machines by
// published queue-wait forecast; below saturation every forecast is zero
// and its stable order puts each request on site00 and site01, with
// site02 and site03 as spares. At one arrival per coMeanGap each of the
// two holds about 21 subjobs of 4 processes (84 of its 256 processors),
// so the stream stays below saturation and latency measures the
// protocol, not a growing backlog. coWorkers leaves the broker headroom
// for attempts stalled by a faulted machine, so a fault delays the
// requests it hits without queueing the rest behind them; coStartup,
// each subjob's startup timeout, bounds how long such an attempt stalls
// before the broker substitutes a spare. coRequests leaves more than ten
// samples beyond the 99th percentile.
const (
	coMachines     = 16
	coMachineSize  = 256
	coSites        = 2
	coProcsPerSite = 4
	coSpares       = 2
	coWorkers      = 32
	coTenants      = 8
	coRequests     = 1200
	coMeanGap      = time.Second
	coWorkTime     = 20 * time.Second
	coStartup      = 20 * time.Second
	coMaxTime      = 4 * time.Minute
	coBudget       = 2 * time.Hour
	coMaxRejects   = 1000
)

// Shape of the faulted workload's fault plan: coFaults onsets, two of
// each class, spread over the arrival window but clear of its last
// faultQuiet, so the stream's end (and its makespan) is fault-free.
// Every fault lasts faultLen except an authentication outage, which is
// global and lasts revokeLen: longer, it would fail every request's
// first attempts and the retry backoff would dominate the whole tail.
const (
	coFaults    = 10
	faultLen    = 45 * time.Second
	revokeLen   = 10 * time.Second
	faultJitter = 10 * time.Second
	faultQuiet  = 5 * time.Minute
	slowFactor  = 10
)

// coTestbed is one co-allocation round: a brokered grid plus the
// arrival schedule (and, on faulted, the fault plan and SLO engine), all
// drawn from the seed before the simulation starts.
type coTestbed struct {
	faulted  bool
	g        *grid.Grid
	b        *broker.Broker
	engine   *slo.Engine
	clients  []*transport.Host
	arrivals []time.Duration
	plan     failure.Plan
	healBy   time.Duration

	sp *spans // nil on untraced rounds

	mu        sync.Mutex
	committed map[string]string // request key -> committed DUROC job (broker view)
	barrier   []time.Duration   // per rank: start to barrier release
}

func newCoTestbed(seed int64, faulted bool) (*coTestbed, error) {
	t := &coTestbed{faulted: faulted, committed: make(map[string]string)}
	rng := rand.New(rand.NewSource(seed))
	t.g = grid.New(grid.Options{Seed: seed, Trace: faulted, LatencyModel: drawLatencies(rng)})
	g := t.g
	if _, err := mds.NewServer(g.Net.AddHost("mds0"), 0); err != nil {
		return nil, err
	}
	dir := transport.Addr{Host: "mds0", Service: mds.ServiceName}
	for i := 0; i < coMachines; i++ {
		name := fmt.Sprintf("site%02d", i)
		m := g.AddMachine(name, coMachineSize, lrm.Batch)
		mds.Publish(m, dir, g.Contact(name), 31*time.Second, coProcsPerSite, coMachineSize)
	}
	g.RegisterEverywhere("app", t.app)
	retry := broker.DefaultRetryPolicy()
	// Enough attempts that every fault in the plan heals inside one
	// request's retry schedule, so no request fails.
	retry.MaxAttempts = 12
	retry.MaxBackoff = 2 * time.Minute
	b, err := broker.New(g.Net.AddHost("broker0"), core.ControllerConfig{
		Credential: g.UserCred,
		Registry:   g.Registry,
	}, broker.Options{
		Directory:       dir,
		QueueBound:      64,
		Workers:         coWorkers,
		CacheMaxAge:     45 * time.Second,
		RefreshInterval: 40 * time.Second,
		RetryAfter:      20 * time.Second,
		Retry:           retry,
		OnTicket:        t.onTicket,
	})
	if err != nil {
		return nil, err
	}
	t.b = b
	for i := 0; i < coTenants; i++ {
		t.clients = append(t.clients, g.Net.AddHost(fmt.Sprintf("client%d", i)))
	}

	t.arrivals = poissonArrivals(rng, coRequests, 10*time.Second, coMeanGap)
	if faulted {
		t.plan = drawFaults(rng, t.arrivals[0], t.arrivals[len(t.arrivals)-1]-faultQuiet)
		for _, a := range t.plan {
			t.healBy = max(t.healBy, a.At)
		}
		t.engine = slo.New(slo.Deps{
			Sim: g.Sim, Tracer: g.Tracer, Counters: g.Counters,
			Gauges: g.Gauges, Samples: g.Samples, Flight: g.Flight,
		}, sloRules(), slo.Options{EvalInterval: 15 * time.Second})
	}
	return t, nil
}

// drawLatencies gives every machine its own one-way latency to the
// services it talks to (broker, NIS, directory) around the paper's 1 ms,
// and every client its own wide-area latency to the broker, so requests
// differ in protocol time by where they come from and land.
func drawLatencies(rng *rand.Rand) *transport.MatrixLatency {
	lat := transport.NewMatrixLatency(time.Millisecond)
	uniform := func(lo, hi time.Duration) time.Duration {
		return lo + time.Duration(rng.Int63n(int64(hi-lo)))
	}
	for i := 0; i < coMachines; i++ {
		name := fmt.Sprintf("site%02d", i)
		d := uniform(500*time.Microsecond, 2*time.Millisecond)
		for _, peer := range []string{"broker0", "nis0", "mds0"} {
			lat.Set(name, peer, d)
		}
	}
	for i := 0; i < coTenants; i++ {
		lat.Set(fmt.Sprintf("client%d", i), "broker0", uniform(time.Millisecond, 25*time.Millisecond))
	}
	return lat
}

// poissonArrivals draws n open-loop arrivals of a Poisson process with
// the given mean gap, conditioned on all n landing in [start, start +
// n*meanGap): n uniform instants, sorted. Conditioning fixes the arrival
// window, so seeds differ in where requests cluster but not in how long
// the stream lasts.
func poissonArrivals(rng *rand.Rand, n int, start, meanGap time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	span := float64(n) * float64(meanGap)
	for i := range out {
		out[i] = start + time.Duration(rng.Float64()*span)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// faultKinds is the order onsets cycle through, so every plan holds each
// of the five fault classes twice.
var faultKinds = []failure.Kind{
	failure.HostCrash, failure.MachineSlow, failure.HostHang,
	failure.RevokeUser, failure.Partition,
}

// drawFaults spreads coFaults onsets evenly over [from, to), each
// jittered by up to faultJitter. The seed picks the jitter and which of
// the two machines every request is placed on (site00, site01) each
// fault hits: a fault on a spare or an idle machine would exercise the
// failure paths only by chance, and how many of the plan's faults did
// would then swing every failure-path count from seed to seed. A machine
// is faulted at most once at a time.
func drawFaults(rng *rand.Rand, from, to time.Duration) failure.Plan {
	var plan failure.Plan
	busyUntil := make(map[string]time.Duration)
	slot := (to - from) / coFaults
	for i := 0; i < coFaults; i++ {
		at := from + slot*time.Duration(i) + slot/2 + time.Duration((rng.Float64()*2-1)*float64(faultJitter))
		heal := at + faultLen
		name := fmt.Sprintf("site%02d", rng.Intn(coSites))
		for busyUntil[name] > at {
			name = fmt.Sprintf("site%02d", rng.Intn(coSites))
		}
		busyUntil[name] = heal
		switch faultKinds[i%len(faultKinds)] {
		case failure.HostCrash:
			plan = append(plan,
				failure.Action{At: at, Kind: failure.HostCrash, Target: name},
				failure.Action{At: heal, Kind: failure.MachineRestart, Target: name})
		case failure.MachineSlow:
			plan = append(plan,
				failure.Action{At: at, Kind: failure.MachineSlow, Target: name, Factor: slowFactor},
				failure.Action{At: heal, Kind: failure.MachineSlow, Target: name, Factor: 1})
		case failure.HostHang:
			plan = append(plan,
				failure.Action{At: at, Kind: failure.HostHang, Target: name},
				failure.Action{At: heal, Kind: failure.HostRestore, Target: name})
		case failure.RevokeUser:
			plan = append(plan,
				failure.Action{At: at, Kind: failure.RevokeUser, Target: grid.DefaultUser},
				failure.Action{At: at + revokeLen, Kind: failure.ReinstateUser, Target: grid.DefaultUser})
		case failure.Partition:
			plan = append(plan,
				failure.Action{At: at, Kind: failure.Partition, Target: "broker0", Target2: name},
				failure.Action{At: heal, Kind: failure.Heal, Target: "broker0", Target2: name})
		}
	}
	return plan.Sorted()
}

// faultOnsets counts the plan's injected faults (healing actions
// excluded).
func faultOnsets(plan failure.Plan) int {
	n := 0
	for _, a := range plan {
		switch a.Kind {
		case failure.HostCrash, failure.HostHang, failure.RevokeUser, failure.Partition:
			n++
		case failure.MachineSlow:
			if a.Factor > 1 {
				n++
			}
		}
	}
	return n
}

// sloRules watches user-facing symptoms of the faulted stream.
func sloRules() []slo.Rule {
	return []slo.Rule{
		{
			Name: "broker-latency-burn", Kind: slo.KindBurnRate, Severity: "page",
			Metric: "broker.request.latency@broker0", Threshold: time.Minute,
			Budget: 0.1, Window: 5 * time.Minute, MinCount: 5,
		},
		{
			Name: "broker-queue-depth", Kind: slo.KindGaugeLevel, Severity: "warn",
			Metric: "broker.queue_depth@broker0", Op: ">=", Value: 8, HoldFor: time.Minute,
		},
		{
			Name: "transport-drop-storm", Kind: slo.KindRateDelta, Severity: "page",
			Metric: "transport.drops", Window: 2 * time.Minute, Value: 1,
		},
		{
			Name: "broker-orphans", Kind: slo.KindGaugeLevel, Severity: "page",
			Metric: "broker.orphans@broker0", Op: ">=", Value: 1,
		},
	}
}

func (t *coTestbed) onTicket(ev broker.TicketEvent) {
	if ev.Kind != "close" || ev.JobID == "" {
		return
	}
	t.mu.Lock()
	t.committed[ev.Key] = ev.JobID
	t.mu.Unlock()
}

// app is the benchmark's executable: attach, wait in the barrier, then
// compute in one Work step so application timer ticks do not swamp the
// protocol.
func (t *coTestbed) app(p *lrm.Proc) error {
	sim := p.Sim()
	start := sim.Now()
	req := trace.ParseCtx(p.Getenv(core.EnvTrace)).Req
	job := p.Getenv(core.EnvJob)
	rank := t.sp.begin("app.rank", -1, req, job, -1, start)
	defer func() { t.sp.end(rank, sim.Now()) }()

	s := t.sp.begin("core.Attach", -1, req, job, rank, start)
	rt, err := core.Attach(p)
	t.sp.end(s, sim.Now())
	if err != nil {
		return err
	}
	defer rt.Close()
	s = t.sp.begin("core.Barrier", -1, req, job, rank, sim.Now())
	_, err = rt.Barrier(true, "", 24*time.Hour)
	t.sp.end(s, sim.Now())
	if err != nil {
		return nil // aborted: exit before irreversible initialization
	}
	t.mu.Lock()
	t.barrier = append(t.barrier, sim.Now()-start)
	t.mu.Unlock()
	s = t.sp.begin("lrm.Work", -1, req, job, rank, sim.Now())
	err = p.Work(coWorkTime, coWorkTime)
	t.sp.end(s, sim.Now())
	return err
}

// run drives the stream to quiescence and audits the grid.
func (t *coTestbed) run() (roundResult, error) {
	g := t.g
	n := len(t.arrivals)
	ops := make([]opRecord, n)
	var rejects int64
	var mu sync.Mutex
	err := g.Sim.Run("driver", func() {
		if t.faulted {
			t.engine.Start()
			t.plan.Apply(g)
		}
		wg := vtime.NewWaitGroup(g.Sim)
		wg.Add(n)
		for i := range t.arrivals {
			i := i
			g.Sim.GoDaemon("client", func() {
				defer wg.Done()
				g.Sim.SleepUntil(t.arrivals[i])
				ok, r := t.submit(i)
				mu.Lock()
				ops[i] = opRecord{OK: ok, Done: g.Sim.Now(), Latency: g.Sim.Now() - t.arrivals[i]}
				rejects += int64(r)
				mu.Unlock()
			})
		}
		wg.Wait()
		// Quiesce: every fault heals, every committed job runs out (or
		// hits its wall limit), and the reaper sweeps the healed grid.
		if g.Sim.Now() < t.healBy {
			g.Sim.SleepUntil(t.healBy)
		}
		if t.faulted {
			g.Sim.Sleep(coMaxTime + coWorkTime + 2*time.Minute)
		} else {
			g.Sim.Sleep(coWorkTime + time.Minute)
		}
	})
	if err != nil {
		return roundResult{}, fmt.Errorf("simulation: %w", err)
	}

	res := roundResult{
		ops:      ops,
		start:    t.arrivals[0],
		timers:   g.Sim.TimersFired(),
		msgs:     g.Net.Messages(),
		bytes:    g.Net.Bytes(),
		barrier:  t.barrier,
		counts:   map[string]float64{"broker.rejects": float64(rejects)},
		machines: machineStates(g),
	}
	for i, op := range ops {
		_, committed := t.committed[requestKey(i)]
		if committed != op.OK {
			return res, fmt.Errorf("request %d: broker committed=%v but client commit reply=%v", i, committed, op.OK)
		}
	}
	res.counts["trace.events"] = float64(g.Tracer.Len())
	if t.faulted {
		t.faultCounts(res.counts)
	}
	return res, nil
}

func requestKey(i int) string { return fmt.Sprintf("req%04d", i) }

// submit sends request i through a fresh broker connection and waits for
// its terminal reply. The request roots its own causal tree (the broker
// would root one per ticket otherwise), so the DUROC_TRACE environment
// of every rank it starts carries the request key.
func (t *coTestbed) submit(i int) (ok bool, rejects int) {
	host := t.clients[i%len(t.clients)]
	key := requestKey(i)
	ctx := trace.NewRequest(key)
	sim := t.g.Sim
	s := t.sp.begin("broker.SubmitWait", int32(i), key, "", -1, sim.Now())
	defer func() { t.sp.end(s, sim.Now()) }()
	c, err := broker.DialCtx(host, t.b.Contact(), ctx)
	if err != nil {
		return false, 0
	}
	defer c.Close()
	reply, rejects, err := c.SubmitWait(broker.Request{
		Tenant:         fmt.Sprintf("tenant%d", i%coTenants),
		Sites:          coSites,
		ProcsPerSite:   coProcsPerSite,
		Executable:     "app",
		Spares:         coSpares,
		CommitTimeout:  3 * time.Minute,
		StartupTimeout: coStartup,
		MaxTime:        coMaxTime,
		Key:            key,
	}, coBudget, coMaxRejects)
	t.sp.setJob(s, reply.JobID)
	return err == nil && reply.OK(), rejects
}

// faultCounts reads the faulted workload's failure-path and telemetry
// counters from the program's own registries.
func (t *coTestbed) faultCounts(out map[string]float64) {
	g := t.g
	for _, cv := range g.Counters.Snapshot() {
		if strings.HasPrefix(cv.Name, "broker.retry.") {
			out["broker.retries"] += float64(cv.Value)
		}
	}
	out["broker.watchdog_aborts"] = float64(g.Counters.Get(trace.Key("broker", "watchdog", "abort", "broker0")))
	out["broker.orphans_reaped"] = float64(g.Counters.Get(trace.Key("broker", "orphan", "reaped", "broker0")))
	out["flightrec.dumps"] = float64(len(g.Flight.Dumps()))
	out["slo.alerts_fired"] = float64(t.engine.Fires())
	out["failure.faults"] = float64(faultOnsets(t.plan))
}

// machineStates snapshots every machine for the quiescence audit.
func machineStates(g *grid.Grid) []machineState {
	names := g.Machines()
	sort.Strings(names)
	out := make([]machineState, 0, len(names))
	for _, name := range names {
		out = append(out, stateOf(g.Machine(name)))
	}
	return out
}
