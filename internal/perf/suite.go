// Package perf is the performance observatory's measurement engine: a
// declared suite of testing.B micro-benchmarks covering every hot layer
// (histogram, trace export, kernel, transport, RPC, LRM, DUROC 2PC,
// broker), plus a deterministic scenario run whose virtual-time series
// come from the same histogram registry the layers record into. The
// cmd/perfgrid harness drives both and emits a schema-versioned
// BENCH_grid.json snapshot that scripts/check.sh compares for
// regressions.
package perf

import (
	"encoding/json"
	"io"
	"testing"
	"time"

	"cogrid/internal/agent"
	"cogrid/internal/broker"
	"cogrid/internal/core"
	"cogrid/internal/flightrec"
	"cogrid/internal/grid"
	"cogrid/internal/lrm"
	"cogrid/internal/mds"
	"cogrid/internal/metrics"
	"cogrid/internal/rpc"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
	"cogrid/internal/wire"
)

// Bench is one declared micro-benchmark. F follows testing.B conventions;
// Derive optionally turns the raw result into named throughput metrics
// (messages/sec, jobs/sec, kernel events/sec) for the snapshot.
type Bench struct {
	Name   string
	Desc   string
	F      func(b *testing.B)
	Derive func(r testing.BenchmarkResult) map[string]float64
}

// opsPerSec converts a benchmark result to operations per wall second.
func opsPerSec(r testing.BenchmarkResult) float64 {
	if r.T <= 0 || r.N <= 0 {
		return 0
	}
	return float64(r.N) / r.T.Seconds()
}

// Suite returns the declared benchmark suite, one entry per hot layer.
// Names are stable: they are the snapshot series keys the regression
// compare matches on.
func Suite() []Bench {
	return []Bench{
		{
			Name: "histogram_record",
			Desc: "metrics.Histogram.Record hot path (must be 0 allocs/op)",
			F:    benchHistogramRecord,
		},
		{
			Name: "histogram_quantile",
			Desc: "exact-rank quantile over a populated histogram",
			F:    benchHistogramQuantile,
		},
		{
			Name: "trace_export_jsonl",
			Desc: "pooled JSONL encode of one trace event",
			F:    benchTraceExportJSONL,
		},
		{
			Name: "flightrec_record",
			Desc: "flight-recorder ring record of one trace event (must be 0 allocs/op)",
			F:    benchFlightrecRecord,
			Derive: func(r testing.BenchmarkResult) map[string]float64 {
				return map[string]float64{"events_per_sec": opsPerSec(r)}
			},
		},
		{
			Name: "wire_encode",
			Desc: "binary envelope encode into a pooled buffer (must be 0 allocs/op)",
			F:    benchWireEncode,
			Derive: func(r testing.BenchmarkResult) map[string]float64 {
				return map[string]float64{"messages_per_sec": opsPerSec(r)}
			},
		},
		{
			Name: "wire_decode",
			Desc: "binary envelope decode of a typical call frame",
			F:    benchWireDecode,
			Derive: func(r testing.BenchmarkResult) map[string]float64 {
				return map[string]float64{"messages_per_sec": opsPerSec(r)}
			},
		},
		{
			Name: "vtime_timer",
			Desc: "kernel timer schedule + fire + context switch",
			F:    benchVtimeTimer,
			Derive: func(r testing.BenchmarkResult) map[string]float64 {
				return map[string]float64{"kernel_events_per_sec": opsPerSec(r)}
			},
		},
		{
			Name: "vtime_pingpong",
			Desc: "unbuffered channel rendezvous between two processes",
			F:    benchVtimePingPong,
		},
		{
			Name: "transport_roundtrip",
			Desc: "one message round trip through the simulated network",
			F:    benchTransportRoundTrip,
			Derive: func(r testing.BenchmarkResult) map[string]float64 {
				return map[string]float64{"messages_per_sec": 2 * opsPerSec(r)}
			},
		},
		{
			Name: "rpc_call",
			Desc: "RPC call round trip over the transport (binary codec)",
			F:    benchRPCCall,
			Derive: func(r testing.BenchmarkResult) map[string]float64 {
				return map[string]float64{"messages_per_sec": 2 * opsPerSec(r)}
			},
		},
		{
			Name: "lrm_submit",
			Desc: "fork-mode job submit through completion",
			F:    benchLRMSubmit,
			Derive: func(r testing.BenchmarkResult) map[string]float64 {
				return map[string]float64{"jobs_per_sec": opsPerSec(r)}
			},
		},
		{
			Name: "core_2pc",
			Desc: "two-subjob DUROC co-allocation: submit, barrier, release",
			F:    benchCore2PC,
			Derive: func(r testing.BenchmarkResult) map[string]float64 {
				return map[string]float64{"requests_per_sec": opsPerSec(r)}
			},
		},
		{
			Name: "broker_submit",
			Desc: "brokered co-allocation: admission, selection, 2PC",
			F:    benchBrokerSubmit,
			Derive: func(r testing.BenchmarkResult) map[string]float64 {
				return map[string]float64{"requests_per_sec": opsPerSec(r)}
			},
		},
	}
}

func benchHistogramRecord(b *testing.B) {
	h := metrics.NewHistogram()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i))
	}
}

func benchHistogramQuantile(b *testing.B) {
	h := metrics.NewHistogram()
	for i := int64(0); i < 100000; i++ {
		h.Record(i * 997 % (1 << 30))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Quantile(0.99)
	}
}

func benchTraceExportJSONL(b *testing.B) {
	events := make([]trace.Event, 512)
	for i := range events {
		events[i] = trace.Event{
			At: time.Duration(i) * time.Millisecond, Cat: "rpc", Name: "call:submit",
			Proc: "workstation", Thr: "client", ID: "flow#1", Req: "req-1", Span: "/call",
			Dur:  2 * time.Millisecond,
			Args: []trace.Arg{{Key: "outcome", Val: "ok"}},
		}
	}
	_ = trace.WriteJSONL(io.Discard, events) // warm the buffer pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := events[i%len(events) : i%len(events)+1]
		if err := trace.WriteJSONL(io.Discard, ev); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFlightrecRecord(b *testing.B) {
	sim := vtime.New()
	rec := flightrec.New(sim, nil)
	ev := trace.Event{
		At: time.Millisecond, Cat: "rpc", Name: "call:submit",
		Proc: "workstation", Thr: "client", Req: "req-1", Span: "/call",
		Args: []trace.Arg{{Key: "outcome", Val: "ok"}},
	}
	rec.Record(ev) // create the ring outside the measured region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Record(ev)
	}
}

// wireBenchEnvelope is the typical call frame both wire benches measure:
// a dictionary-hit method, causal context, and a small JSON body.
func wireBenchEnvelope() wire.Envelope {
	return wire.Envelope{
		Kind: wire.KindCall, ID: 42, Method: "submit",
		Req: "req-17", Span: "/submit/attempt-1/call:submit#42",
		Body: []byte(`{"rsl":"+(&(executable=app)(count=16))"}`),
	}
}

func benchWireEncode(b *testing.B) {
	env := wireBenchEnvelope()
	var enc wire.Encoder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := wire.GetBuf()
		*buf = enc.Encode((*buf)[:0], &env)
		wire.PutBuf(buf)
	}
}

func benchWireDecode(b *testing.B) {
	env := wireBenchEnvelope()
	var enc wire.Encoder
	enc.Encode(nil, &env) // consume the prologue
	frame := enc.Encode(nil, &env)
	var dec wire.Decoder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out wire.Envelope
		if err := dec.Decode(frame, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func benchVtimeTimer(b *testing.B) {
	b.ReportAllocs()
	sim := vtime.New()
	n := b.N
	b.ResetTimer()
	sim.Go("driver", func() {
		for i := 0; i < n; i++ {
			sim.Sleep(time.Microsecond)
		}
	})
	if err := sim.Wait(); err != nil {
		b.Fatal(err)
	}
}

func benchVtimePingPong(b *testing.B) {
	b.ReportAllocs()
	sim := vtime.New()
	ping := vtime.NewChan[int](sim, "ping", 0)
	pong := vtime.NewChan[int](sim, "pong", 0)
	n := b.N
	sim.GoDaemon("echo", func() {
		for {
			v, ok := ping.Recv()
			if !ok {
				return
			}
			pong.Send(v)
		}
	})
	b.ResetTimer()
	sim.Go("driver", func() {
		for i := 0; i < n; i++ {
			ping.Send(i)
			pong.Recv()
		}
	})
	if err := sim.Wait(); err != nil {
		b.Fatal(err)
	}
}

func benchTransportRoundTrip(b *testing.B) {
	b.ReportAllocs()
	sim := vtime.New()
	net := transport.New(sim, transport.UniformLatency(time.Millisecond))
	client, server := net.AddHost("a"), net.AddHost("b")
	l, err := server.Listen("echo")
	if err != nil {
		b.Fatal(err)
	}
	sim.GoDaemon("server", func() {
		conn, ok := l.Accept()
		if !ok {
			return
		}
		for {
			msg, err := conn.Recv()
			if err != nil {
				return
			}
			if err := conn.Send(msg); err != nil {
				return
			}
		}
	})
	n := b.N
	var benchErr error
	b.ResetTimer()
	err = sim.Run("driver", func() {
		conn, err := client.Dial(transport.Addr{Host: "b", Service: "echo"})
		if err != nil {
			benchErr = err
			return
		}
		defer conn.Close()
		payload := []byte("ping")
		for i := 0; i < n; i++ {
			if err := conn.Send(payload); err != nil {
				benchErr = err
				return
			}
			if _, err := conn.Recv(); err != nil {
				benchErr = err
				return
			}
		}
	})
	if err == nil {
		err = benchErr
	}
	if err != nil {
		b.Fatal(err)
	}
}

func benchRPCCall(b *testing.B) {
	b.ReportAllocs()
	sim := vtime.New()
	net := transport.New(sim, transport.UniformLatency(time.Millisecond))
	client, server := net.AddHost("c"), net.AddHost("s")
	l, err := server.Listen("svc")
	if err != nil {
		b.Fatal(err)
	}
	rpc.Serve(sim, l, rpc.HandlerFuncs{
		Call: func(sc *rpc.ServerConn, method string, body json.RawMessage) (any, error) {
			return body, nil
		},
	}, nil)
	n := b.N
	var benchErr error
	b.ResetTimer()
	err = sim.Run("driver", func() {
		conn, err := client.Dial(transport.Addr{Host: "s", Service: "svc"})
		if err != nil {
			benchErr = err
			return
		}
		c := rpc.NewClient(sim, conn)
		defer c.Close()
		var out int
		for i := 0; i < n; i++ {
			if err := c.Call("ping", i, &out, time.Minute); err != nil {
				benchErr = err
				return
			}
		}
	})
	if err == nil {
		err = benchErr
	}
	if err != nil {
		b.Fatal(err)
	}
}

func benchLRMSubmit(b *testing.B) {
	b.ReportAllocs()
	sim := vtime.New()
	net := transport.New(sim, transport.UniformLatency(time.Millisecond))
	m := lrm.NewMachine(net.AddHost("m0"), 64, lrm.Config{
		Mode:  lrm.Fork,
		Costs: lrm.Costs{Fork: time.Millisecond, ProcStartup: time.Millisecond},
	})
	m.RegisterExecutable("noop", func(p *lrm.Proc) error { return nil })
	n := b.N
	var benchErr error
	b.ResetTimer()
	err := sim.Run("driver", func() {
		for i := 0; i < n; i++ {
			job, err := m.Submit(lrm.JobSpec{Executable: "noop", Count: 4})
			if err != nil {
				benchErr = err
				return
			}
			job.Done().Wait()
		}
	})
	if err == nil {
		err = benchErr
	}
	if err != nil {
		b.Fatal(err)
	}
}

// barrierExec is the minimal DUROC application: attach, pass the startup
// barrier, exit — releasing processors immediately.
func barrierExec(p *lrm.Proc) error {
	rt, err := core.Attach(p)
	if err != nil {
		return err
	}
	defer rt.Close()
	_, err = rt.Barrier(true, "", 0)
	return err
}

func benchCore2PC(b *testing.B) {
	b.ReportAllocs()
	g := grid.New(grid.Options{})
	g.AddMachine("m0", 32, lrm.Fork)
	g.AddMachine("m1", 32, lrm.Fork)
	g.RegisterEverywhere("app", barrierExec)
	ctrl, err := core.NewController(g.Workstation, core.ControllerConfig{
		Credential: g.UserCred,
		Registry:   g.Registry,
	})
	if err != nil {
		b.Fatal(err)
	}
	n := b.N
	var benchErr error
	b.ResetTimer()
	err = g.Sim.Run("driver", func() {
		for i := 0; i < n; i++ {
			res, err := agent.Atomic(ctrl, core.Request{Subjobs: []core.SubjobSpec{
				{Contact: g.Contact("m0"), Count: 2, Executable: "app"},
				{Contact: g.Contact("m1"), Count: 2, Executable: "app"},
			}}, time.Hour)
			if err != nil {
				benchErr = err
				return
			}
			res.Job.Done().Wait()
		}
	})
	if err == nil {
		err = benchErr
	}
	if err != nil {
		b.Fatal(err)
	}
}

func benchBrokerSubmit(b *testing.B) {
	b.ReportAllocs()
	g := grid.New(grid.Options{})
	dirHost := g.Net.AddHost("mds0")
	if _, err := mds.NewServer(dirHost, 0); err != nil {
		b.Fatal(err)
	}
	dir := transport.Addr{Host: "mds0", Service: mds.ServiceName}
	for _, name := range []string{"site00", "site01", "site02"} {
		m := g.AddMachine(name, 16, lrm.Batch)
		mds.Publish(m, dir, g.Contact(name), 31*time.Second, 4, 16)
	}
	g.RegisterEverywhere("app", barrierExec)
	_, err := broker.New(g.Net.AddHost("broker0"), core.ControllerConfig{
		Credential: g.UserCred,
		Registry:   g.Registry,
	}, broker.Options{Directory: dir, QueueBound: 8, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	clientHost := g.Net.AddHost("client0")
	brokerAddr := transport.Addr{Host: "broker0", Service: broker.ServiceName}
	n := b.N
	var benchErr error
	b.ResetTimer()
	err = g.Sim.Run("driver", func() {
		c, err := broker.Dial(clientHost, brokerAddr)
		if err != nil {
			benchErr = err
			return
		}
		defer c.Close()
		for i := 0; i < n; i++ {
			reply, _, err := c.SubmitWait(broker.Request{
				Tenant:       "bench",
				Sites:        2,
				ProcsPerSite: 4,
				Executable:   "app",
				Spares:       1,
			}, 0, 50)
			if err != nil {
				benchErr = err
				return
			}
			if !reply.Accepted {
				benchErr = errRejected
				return
			}
		}
	})
	if err == nil {
		err = benchErr
	}
	if err != nil {
		b.Fatal(err)
	}
}
