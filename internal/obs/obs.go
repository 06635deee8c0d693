// Package obs bundles a run's telemetry sinks — tracer, counters, gauges,
// histograms, sample logs and the flight recorder — into one handle that
// is attached to the network once (transport.Network.Attach) and read by
// every layer above it (Network.Obs). Each sink's nil value is a valid
// no-op, so a bundle with some or all sinks unset costs a layer nothing
// beyond a nil check.
package obs

import (
	"cogrid/internal/flightrec"
	"cogrid/internal/metrics"
	"cogrid/internal/trace"
	"cogrid/internal/vtime"
)

// Sinks is one run's telemetry bundle. Any sink may be nil.
type Sinks struct {
	Sim      *vtime.Sim
	Tracer   *trace.Tracer
	Counters *trace.Counters
	Gauges   *metrics.GaugeSet
	Hists    *metrics.HistogramSet
	Samples  *metrics.SampleLogSet
	Flight   *flightrec.Recorder
}

// New builds every sink on sim and wires them together: the flight
// recorder taps the tracer, so every event any layer emits is mirrored
// into its bounded per-component ring without any layer opting in, and
// counts its dumps in the counter registry; the kernel's timer-lead and
// dispatch-batch probes land in the histogram registry (histogram
// recording is atomic-only, so it is safe under the kernel lock).
func New(sim *vtime.Sim) Sinks {
	s := Sinks{
		Sim:      sim,
		Tracer:   trace.New(sim),
		Counters: trace.NewCounters(),
		Gauges:   metrics.NewGaugeSet(sim),
		Hists:    metrics.NewHistogramSet(),
		Samples:  metrics.NewSampleLogSet(sim),
	}
	s.Flight = flightrec.New(sim, s.Counters)
	s.Tracer.SetTap(s.Flight)
	sim.SetStats(vtime.KernelStats{
		TimerLead:     s.Hists.H("vtime.timer.lead"),
		DispatchBatch: s.Hists.H("vtime.dispatch.batch"),
	})
	return s
}
