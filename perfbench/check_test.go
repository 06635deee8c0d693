package main

import (
	"testing"
	"time"

	"cogrid/internal/lrm"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

func TestCheckMachines(t *testing.T) {
	ok := machineState{Name: "m0", Processors: 32, Free: 32}
	if err := checkMachines([]machineState{ok, ok}); err != nil {
		t.Fatalf("quiescent fleet rejected: %v", err)
	}
	leaked := machineState{Name: "m1", Processors: 32, Free: 32, Live: 1}
	if err := checkMachines([]machineState{ok, leaked}); err == nil {
		t.Error("leaked job accepted")
	}
	mismatch := machineState{Name: "m2", Processors: 32, Free: 28}
	if err := checkMachines([]machineState{ok, mismatch}); err == nil {
		t.Error("processor-count mismatch accepted")
	}
}

// TestStateOfSeesLeakedJob runs a job past the end of the simulation and
// checks that the audit reads both symptoms through lrm's accessors.
func TestStateOfSeesLeakedJob(t *testing.T) {
	sim := vtime.New()
	net := transport.New(sim, transport.UniformLatency(time.Millisecond))
	m := lrm.NewMachine(net.AddHost("m0"), 8, lrm.Config{Mode: lrm.Batch})
	m.RegisterExecutable("stuck", func(p *lrm.Proc) error { return p.Sleep(time.Hour) })
	err := sim.Run("driver", func() {
		if _, err := m.Submit(lrm.JobSpec{Executable: "stuck", Count: 2}); err != nil {
			t.Error(err)
		}
		sim.Sleep(time.Minute)
	})
	if err != nil {
		t.Fatal(err)
	}
	st := stateOf(m)
	if st.Live != 1 || st.Free != 6 {
		t.Fatalf("stateOf = %+v, want 1 live job and 6 free processors", st)
	}
	if err := checkMachines([]machineState{st}); err == nil {
		t.Fatal("leaked job accepted")
	}
}

func TestFingerprintCompare(t *testing.T) {
	want := fingerprint{Ops: 0xfeed, Timers: 10, Msgs: 20, Bytes: 30}
	if err := want.compare(want); err != nil {
		t.Fatalf("identical fingerprints differ: %v", err)
	}
	for _, change := range []func(*fingerprint){
		func(f *fingerprint) { f.Ops++ },
		func(f *fingerprint) { f.Timers++ },
		func(f *fingerprint) { f.Msgs++ },
		func(f *fingerprint) { f.Bytes++ },
	} {
		got := want
		change(&got)
		if err := got.compare(want); err == nil {
			t.Errorf("fingerprint %v accepted as %v", got, want)
		}
	}
}

func TestFingerprintCoversEveryOp(t *testing.T) {
	ops := []opRecord{{OK: true, Done: 5, Latency: 2}, {OK: true, Done: 9, Latency: 3}}
	base := fingerprintOf(roundResult{ops: ops})
	for i, change := range []func(*opRecord){
		func(o *opRecord) { o.OK = false },
		func(o *opRecord) { o.Done++ },
		func(o *opRecord) { o.Latency++ },
	} {
		changed := append([]opRecord(nil), ops...)
		change(&changed[1])
		if fingerprintOf(roundResult{ops: changed}).compare(base) == nil {
			t.Errorf("change %d to the last op kept the fingerprint", i)
		}
	}
}

func TestTailSamples(t *testing.T) {
	for _, c := range []struct{ n, want int }{{1200, 12}, {1000, 10}, {999, 9}, {0, 0}} {
		if got := beyond(c.n, 0.99); got != c.want {
			t.Errorf("beyond(%d, 0.99) = %d, want %d", c.n, got, c.want)
		}
	}
	// Ties do not hide the tail: every latency equal still leaves twelve
	// of 1200 samples ranked above the 99th percentile.
	r := roundResult{ops: make([]opRecord, 1200)}
	for i := range r.ops {
		r.ops[i] = opRecord{OK: true, Latency: 3 * time.Second}
	}
	if got, ok := simStats(r)["sim_p99_s"]; !ok || got != 3 {
		t.Errorf("p99 of 1200 equal samples = %v, %v; want 3, reported", got, ok)
	}
	r.ops = r.ops[:999]
	if _, ok := simStats(r)["sim_p99_s"]; ok {
		t.Error("p99 reported from 999 samples, fewer than ten above it")
	}
}
