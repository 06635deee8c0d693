// Package grid assembles simulated computational grids: a client
// workstation, a NIS server, and any number of GRAM-fronted machines on a
// common network, with shared security credentials — the testbed every
// experiment, example, and benchmark builds on.
package grid

import (
	"fmt"
	"io"
	"time"

	"cogrid/internal/gram"
	"cogrid/internal/gsi"
	"cogrid/internal/lrm"
	"cogrid/internal/metrics"
	"cogrid/internal/nis"
	"cogrid/internal/obs"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// DefaultUser is the principal experiments submit as.
const DefaultUser = "user/grid"

// Options configures a grid testbed. Zero values select the paper's
// calibration: 1 ms one-way network latency (a ~2 ms round trip between
// client and resource, as in Section 4.2), Figure 3 cost models, and a
// deterministic seed.
type Options struct {
	Seed           int64
	Latency        time.Duration
	LatencyModel   transport.LatencyModel // overrides Latency when set
	User           string
	AuthCost       gsi.CostModel
	GRAMCost       gram.CostModel
	LRMCosts       lrm.Costs
	NISServiceTime time.Duration
	// RecordTimeline attaches a shared metrics.Timeline to every
	// gatekeeper (for Figures 3 and 5).
	RecordTimeline bool
	// Trace builds the full telemetry bundle (obs.New) and attaches it to
	// the network, capturing structured events, counters, gauges,
	// histograms, sample logs and flight-recorder rings from every layer
	// (transport hops, RPC calls, GRAM state transitions, DUROC commit
	// and barrier phases).
	Trace bool
	// TimerEngine selects the kernel's timer queue implementation. The
	// zero value is the production default (hierarchical timing wheel);
	// the kernel-equivalence suite sets this to run identical scenarios on
	// the reference heap and diff every artifact byte.
	TimerEngine vtime.TimerEngine
}

// Grid is an assembled testbed. Its embedded telemetry bundle always
// carries Sim; the sinks are set only with Options.Trace.
type Grid struct {
	obs.Sinks
	Net         *transport.Network
	Registry    *gsi.Registry
	NISAddr     transport.Addr
	NIS         *nis.Server
	Workstation *transport.Host
	UserCred    gsi.Credential
	Timeline    *metrics.Timeline

	opts     Options
	machines map[string]*lrm.Machine
	servers  map[string]*gram.Server
}

// New builds a grid with a client workstation and a NIS server.
func New(opts Options) *Grid {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Latency == 0 {
		opts.Latency = time.Millisecond
	}
	if opts.User == "" {
		opts.User = DefaultUser
	}
	sim := vtime.NewWithConfig(vtime.Config{Seed: opts.Seed, Engine: opts.TimerEngine})
	lm := opts.LatencyModel
	if lm == nil {
		lm = transport.UniformLatency(opts.Latency)
	}
	net := transport.New(sim, lm)
	g := &Grid{
		Sinks:       obs.Sinks{Sim: sim},
		Net:         net,
		Registry:    gsi.NewRegistry(),
		Workstation: net.AddHost("workstation"),
		opts:        opts,
		machines:    make(map[string]*lrm.Machine),
		servers:     make(map[string]*gram.Server),
	}
	if opts.RecordTimeline {
		g.Timeline = metrics.NewTimeline(sim)
	}
	if opts.Trace {
		g.Sinks = obs.New(sim)
		net.Attach(g.Sinks)
	}
	nisHost := net.AddHost("nis0")
	srv, err := nis.NewServer(nisHost, opts.NISServiceTime)
	if err != nil {
		panic(err) // fresh host: cannot fail
	}
	g.NIS = srv
	g.NISAddr = transport.Addr{Host: "nis0", Service: nis.ServiceName}
	g.UserCred = g.Registry.Issue(opts.User)
	srv.AddUser(opts.User, "users", "grid")
	return g
}

// AddMachine creates a machine with a gatekeeper. The machine's host takes
// the machine name.
func (g *Grid) AddMachine(name string, processors int, mode lrm.Mode) *lrm.Machine {
	if _, exists := g.machines[name]; exists {
		panic(fmt.Sprintf("grid: machine %q already exists", name))
	}
	host := g.Net.AddHost(name)
	machine := lrm.NewMachine(host, processors, lrm.Config{Mode: mode, Costs: g.opts.LRMCosts})
	var recorder gram.PhaseRecorder
	if g.Timeline != nil {
		recorder = g.Timeline
	}
	server, err := gram.StartServer(machine, gram.ServerConfig{
		Credential: g.Registry.Issue("host/" + name),
		Registry:   g.Registry,
		AuthCost:   g.opts.AuthCost,
		Cost:       g.opts.GRAMCost,
		NISAddr:    g.NISAddr,
		Timeline:   recorder,
	})
	if err != nil {
		panic(err) // fresh host: cannot fail
	}
	g.machines[name] = machine
	g.servers[name] = server
	return machine
}

// RestartMachine reboots a crashed machine's host and starts a fresh
// gatekeeper on it. The LRM keeps its job table — a crash severs the
// network (listeners, live connections), not the simulated scheduler
// state — so jobs that survived locally stay visible and cancellable,
// which is what lets an orphan reaper drain a machine after it returns.
// Panics if the machine is unknown.
func (g *Grid) RestartMachine(name string) {
	machine, ok := g.machines[name]
	if !ok {
		panic(fmt.Sprintf("grid: restart of unknown machine %q", name))
	}
	machine.Host().RestoreCrashed()
	var recorder gram.PhaseRecorder
	if g.Timeline != nil {
		recorder = g.Timeline
	}
	server, err := gram.StartServer(machine, gram.ServerConfig{
		Credential: g.Registry.Issue("host/" + name),
		Registry:   g.Registry,
		AuthCost:   g.opts.AuthCost,
		Cost:       g.opts.GRAMCost,
		NISAddr:    g.NISAddr,
		Timeline:   recorder,
	})
	if err != nil {
		panic(err) // restored host has no listeners: cannot fail
	}
	g.servers[name] = server
}

// Machine returns a machine by name, or nil.
func (g *Grid) Machine(name string) *lrm.Machine { return g.machines[name] }

// Machines returns all machine names in no particular order.
func (g *Grid) Machines() []string {
	out := make([]string, 0, len(g.machines))
	for name := range g.machines {
		out = append(out, name)
	}
	return out
}

// Contact returns the GRAM contact for a machine.
func (g *Grid) Contact(name string) transport.Addr {
	return transport.Addr{Host: name, Service: gram.ServiceName}
}

// RegisterEverywhere installs an executable on every existing machine.
func (g *Grid) RegisterEverywhere(name string, fn lrm.ExecFunc) {
	for _, m := range g.machines {
		m.RegisterExecutable(name, fn)
	}
}

// ClientConfig returns the GRAM client configuration for the grid user.
func (g *Grid) ClientConfig() gram.ClientConfig {
	return gram.ClientConfig{
		Credential: g.UserCred,
		Registry:   g.Registry,
		AuthCost:   g.opts.AuthCost,
	}
}

// Dial opens an authenticated GRAM connection from the workstation.
func (g *Grid) Dial(machine string) (*gram.Client, error) {
	return gram.Dial(g.Workstation, g.Contact(machine), g.ClientConfig())
}

// WriteMetrics writes every counter, gauge, and histogram the run
// collected in Prometheus text format. Gauges are sampled at the current
// virtual time. The output is deterministic for a fixed seed; without
// Options.Trace all registries are empty and the exposition is too.
func (g *Grid) WriteMetrics(w io.Writer) error {
	snap := metrics.PromSnapshot{
		Gauges:  g.Gauges,
		GaugeAt: g.Sim.Now(),
		Hists:   g.Hists,
	}
	for _, cv := range g.Counters.Snapshot() {
		snap.Counters = append(snap.Counters, metrics.NamedValue{Name: cv.Name, Value: cv.Value})
	}
	return metrics.WritePrometheus(w, snap)
}
