package flightrec

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"cogrid/internal/trace"
	"cogrid/internal/vtime"
)

// record runs one deterministic-under-race workload: procs concurrent
// simulated processes all emitting into category "cat" (plus a second
// category) at every whole second up to instants, then triggers a dump at
// the final instant + 1s. Within each instant the real-time arrival order
// of events is racy; the dump must not depend on it.
func raceDump(t *testing.T, seed int64, procs, instants int) []byte {
	t.Helper()
	sim := vtime.NewSeeded(seed)
	tr := trace.New(sim)
	rec := New(sim, nil)
	tr.SetTap(rec)
	err := sim.Run("main", func() {
		wg := vtime.NewWaitGroup(sim)
		wg.Add(procs)
		for p := 0; p < procs; p++ {
			p := p
			sim.Go(fmt.Sprintf("proc%d", p), func() {
				defer wg.Done()
				for i := 1; i <= instants; i++ {
					sim.SleepUntil(time.Duration(i) * time.Second)
					tr.Instant("cat", fmt.Sprintf("ev-%02d-%02d", i, p), "host", "thr", "")
					if p == 0 {
						tr.Instant("other", fmt.Sprintf("o-%02d", i), "host", "thr", "")
					}
				}
			})
		}
		wg.Wait()
		sim.Sleep(time.Second)
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	d := rec.Trigger("test", "race")
	if v := Validate(d.Events); v != nil {
		t.Fatalf("dump invalid: %v", v)
	}
	var buf bytes.Buffer
	if err := WriteDump(&buf, d); err != nil {
		t.Fatalf("write dump: %v", err)
	}
	if rec.Overflows() != 0 {
		t.Fatalf("unexpected entry-granular overflow: %d", rec.Overflows())
	}
	return buf.Bytes()
}

func TestDumpDeterministicUnderInstantRaces(t *testing.T) {
	// 24 procs per instant over 30 instants overfills a RingCap ring: every
	// snapshot must trim older instants at whole-instant granularity, and
	// two identical runs must serialize byte-identically despite racy
	// same-instant arrival.
	const procs, instants = 24, 30
	if procs*instants <= RingCap {
		t.Fatalf("workload of %d events does not overfill RingCap %d", procs*instants, RingCap)
	}
	a := raceDump(t, 7, procs, instants)
	b := raceDump(t, 7, procs, instants)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed dumps differ:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

func TestWholeInstantRetention(t *testing.T) {
	sim := vtime.NewSeeded(1)
	rec := New(sim, nil)
	// 12 events per instant over 50 instants: RingCap holds at most
	// RingCap/12 whole instants; one more would exceed it.
	const per, instants = 12, 50
	kept := RingCap / per
	err := sim.Run("main", func() {
		for i := 1; i <= instants; i++ {
			sim.SleepUntil(time.Duration(i) * time.Second)
			for k := 0; k < per; k++ {
				rec.Record(trace.Event{At: sim.Now(), Cat: "c", Name: fmt.Sprintf("e%d-%d", i, k)})
			}
		}
		sim.Sleep(time.Second)
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	events := rec.Snapshot(sim.Now())
	if len(events) != kept*per {
		t.Fatalf("want %d whole instants (%d events), got %d", kept, kept*per, len(events))
	}
	for _, ev := range events {
		if ev.At < time.Duration(instants-kept+1)*time.Second {
			t.Fatalf("stale instant survived: %+v", ev)
		}
	}
}

func TestSnapshotExcludesTriggerInstant(t *testing.T) {
	sim := vtime.NewSeeded(1)
	rec := New(sim, nil)
	err := sim.Run("main", func() {
		sim.SleepUntil(time.Second)
		rec.Record(trace.Event{At: sim.Now(), Cat: "c", Name: "before"})
		sim.SleepUntil(2 * time.Second)
		rec.Record(trace.Event{At: sim.Now(), Cat: "c", Name: "same-instant"})
		// A trigger fired at t=2s races with "same-instant": the dump must
		// contain only history strictly before the trigger instant.
		if got := rec.Snapshot(sim.Now()); len(got) != 1 || got[0].Name != "before" {
			panic(fmt.Sprintf("snapshot at trigger instant: %+v", got))
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestDumpRoundTrip(t *testing.T) {
	sim := vtime.NewSeeded(1)
	rec := New(sim, nil)
	err := sim.Run("main", func() {
		sim.SleepUntil(time.Second)
		rec.Record(trace.Event{At: sim.Now(), Cat: "broker", Name: "enqueue", Proc: "broker0",
			Req: "r1", Span: "req", Args: []trace.Arg{{Key: "k", Val: "v"}}})
		rec.Record(trace.Event{At: sim.Now(), Cat: "transport", Name: "drop", Proc: "m1"})
		sim.Sleep(time.Second)
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	d := rec.Trigger("watchdog-abort", "broker0 b#1")
	var buf bytes.Buffer
	if err := WriteDump(&buf, d); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadDump(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Trigger != d.Trigger || got.Detail != d.Detail || got.At != d.At {
		t.Fatalf("header mismatch: %+v vs %+v", got, d)
	}
	if len(got.Events) != len(d.Events) {
		t.Fatalf("events: got %d want %d", len(got.Events), len(d.Events))
	}
	if err := Validate(got.Events); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if got.Kind() != "watchdog-abort" {
		t.Fatalf("kind: %q", got.Kind())
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		events []trace.Event
		want   string
	}{
		{"out-of-order", []trace.Event{
			{At: 2 * time.Second, Cat: "c", Name: "b"},
			{At: time.Second, Cat: "c", Name: "a"},
		}, "out of deterministic trace order"},
		{"negative-duration", []trace.Event{{At: time.Second, Dur: -1, Cat: "c", Name: "a"}}, "negative duration"},
		{"empty-category", []trace.Event{{At: time.Second, Name: "a"}}, "empty category"},
		{"empty-name", []trace.Event{{At: time.Second, Cat: "c"}}, "empty name"},
		{"span-without-req", []trace.Event{{At: time.Second, Cat: "c", Name: "a", Span: "req/x"}}, "without request id"},
	}
	for _, tc := range cases {
		err := Validate(tc.events)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
	if err := Validate(nil); err != nil {
		t.Errorf("empty dump should validate: %v", err)
	}
}

func TestMaxDumpsAndCounters(t *testing.T) {
	sim := vtime.NewSeeded(1)
	ctrs := trace.NewCounters()
	rec := New(sim, ctrs)
	rec.Trigger("slo:rule-a", "first")
	for i := 1; i < MaxDumps; i++ {
		rec.Trigger("orphan", fmt.Sprintf("kept-%d", i))
	}
	rec.Trigger("orphan", "past-the-bound")
	if got := len(rec.Dumps()); got != MaxDumps {
		t.Fatalf("dumps: got %d want %d", got, MaxDumps)
	}
	if rec.Skipped() != 1 {
		t.Fatalf("skipped: got %d want 1", rec.Skipped())
	}
	if got := ctrs.Get("flightrec.dump.slo"); got != 1 {
		t.Fatalf("slo dump counter: %d", got)
	}
	if got := ctrs.Get("flightrec.dump.orphan"); got != MaxDumps-1 {
		t.Fatalf("orphan dump counter: %d", got)
	}
	if got := ctrs.Get("flightrec.dump.skip"); got != 1 {
		t.Fatalf("skip counter: %d", got)
	}
}

// TestSkippedTriggerTakesNoSnapshot pins that a trigger past MaxDumps
// costs the same however full the rings are: it counts the skip but
// copies no events.
func TestSkippedTriggerTakesNoSnapshot(t *testing.T) {
	sim := vtime.NewSeeded(1)
	ctrs := trace.NewCounters()
	rec := New(sim, ctrs)
	fill := func(events int) {
		for i := 0; i < events; i++ {
			rec.Record(trace.Event{At: sim.Now(), Cat: fmt.Sprintf("c%d", i%4), Name: "ev"})
		}
	}
	var kept Dump
	var snapshots int
	var small, full float64
	err := sim.Run("main", func() {
		sim.SleepUntil(time.Second)
		fill(8)
		sim.SleepUntil(2 * time.Second)
		kept = rec.Trigger("orphan", "kept")
		for i := 1; i < MaxDumps; i++ {
			rec.Trigger("orphan", "filler")
		}
		skip := func() {
			if d := rec.Trigger("orphan", "skipped"); d.Events != nil {
				snapshots++
			}
		}
		small = testing.AllocsPerRun(100, skip)
		fill(4 * RingCap) // every one of the four rings at capacity
		sim.SleepUntil(3 * time.Second)
		full = testing.AllocsPerRun(100, skip)
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if len(kept.Events) != 8 {
		t.Fatalf("retained dump holds %d events, want 8", len(kept.Events))
	}
	if snapshots != 0 {
		t.Fatalf("%d skipped triggers returned events", snapshots)
	}
	if full > small {
		t.Fatalf("skipped trigger allocs grew with ring contents: %.1f -> %.1f", small, full)
	}
	if got := len(rec.Dumps()); got != MaxDumps {
		t.Fatalf("dumps: got %d want %d", got, MaxDumps)
	}
	// AllocsPerRun makes one warm-up call on top of each run's count.
	const skips = 2 * 101
	if got := rec.Skipped(); got != skips {
		t.Fatalf("skipped: got %d want %d", got, skips)
	}
	if got := ctrs.Get("flightrec.dump.skip"); got != skips {
		t.Fatalf("skip counter: got %d want %d", got, skips)
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var rec *Recorder
	rec.Record(trace.Event{Cat: "c", Name: "n"})
	rec.Trigger("x", "y")
	if rec.Dumps() != nil || rec.Snapshot(time.Second) != nil || rec.Skipped() != 0 || rec.Overflows() != 0 {
		t.Fatal("nil recorder must be inert")
	}
}

// TestRecordAllocs pins the allocation-free record path: after a
// component's ring exists, Record never allocates.
func TestRecordAllocs(t *testing.T) {
	sim := vtime.NewSeeded(1)
	rec := New(sim, nil)
	ev := trace.Event{At: 0, Cat: "bench", Name: "ev", Proc: "p", Thr: "t"}
	rec.Record(ev) // create the ring outside the measured region
	if avg := testing.AllocsPerRun(1000, func() { rec.Record(ev) }); avg != 0 {
		t.Fatalf("Record allocates %.2f allocs/op, want 0", avg)
	}
}

// BenchmarkRecord is the satellite's testing.B proof: steady-state record
// is 0 allocs/op.
func BenchmarkRecord(b *testing.B) {
	sim := vtime.NewSeeded(1)
	rec := New(sim, nil)
	ev := trace.Event{At: 0, Cat: "bench", Name: "ev", Proc: "p", Thr: "t",
		Args: []trace.Arg{{Key: "k", Val: "v"}}}
	rec.Record(ev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Record(ev)
	}
}
