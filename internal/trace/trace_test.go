package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"cogrid/internal/vtime"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer Enabled() = true")
	}
	if tr.Now() != 0 {
		t.Error("nil tracer Now() != 0")
	}
	// None of these may panic.
	tr.Emit(Event{Name: "x"})
	tr.Instant("c", "n", "p", "t", "")
	tr.Span("c", "n", "p", "t", "", 0)
	tr.SpanAt("c", "n", "p", "t", "", 0, time.Second)
	if tr.Len() != 0 {
		t.Error("nil tracer Len() != 0")
	}
	if tr.Events() != nil {
		t.Error("nil tracer Events() != nil")
	}
	if err := tr.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Errorf("nil WriteJSONL: %v", err)
	}
	if err := tr.WriteChromeTrace(&bytes.Buffer{}); err != nil {
		t.Errorf("nil WriteChromeTrace: %v", err)
	}
}

func TestNilCountersAreNoOp(t *testing.T) {
	var cs *Counters
	cs.Add("x", "y", "z", "", 1)
	if cs.C("x") != nil {
		t.Error("nil Counters.C != nil")
	}
	if cs.Get("x") != 0 {
		t.Error("nil Counters.Get != 0")
	}
	if cs.Snapshot() != nil {
		t.Error("nil Counters.Snapshot != nil")
	}
	var c *Counter
	c.Add(5)
	if c.Load() != 0 {
		t.Error("nil Counter.Load != 0")
	}
}

func TestSpanAtClampsNegativeDuration(t *testing.T) {
	sim := vtime.New()
	tr := New(sim)
	tr.SpanAt("c", "n", "p", "t", "", 2*time.Second, time.Second)
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Dur != 0 {
		t.Fatalf("events = %+v, want one zero-duration span", evs)
	}
}

// Events appended in any real-time order sort to one deterministic order.
func TestSortIsTotalAndDeterministic(t *testing.T) {
	mk := func() []Event {
		return []Event{
			{At: 2, Cat: "b", Name: "x", Proc: "p1"},
			{At: 1, Cat: "a", Name: "y", Proc: "p2", Thr: "t"},
			{At: 1, Cat: "a", Name: "y", Proc: "p1"},
			{At: 1, Cat: "a", Name: "x", Proc: "p1", Args: []Arg{{"k", "v"}}},
			{At: 1, Cat: "a", Name: "x", Proc: "p1", Args: []Arg{{"k", "u"}}},
			{At: 1, Cat: "a", Name: "x", Proc: "p1"},
		}
	}
	fwd := mk()
	Sort(fwd)
	rev := mk()
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	Sort(rev)
	for i := range fwd {
		a, b := fwd[i], rev[i]
		if a.At != b.At || a.Name != b.Name || a.Proc != b.Proc || len(a.Args) != len(b.Args) {
			t.Fatalf("order diverges at %d: %+v vs %+v", i, a, b)
		}
	}
	for i := 1; i < len(fwd); i++ {
		if less(fwd[i], fwd[i-1]) {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

func TestCountersConcurrent(t *testing.T) {
	cs := NewCounters()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := cs.C("shared")
			for i := 0; i < 1000; i++ {
				h.Add(1)
				cs.Add("test", "registry", "add", "", 1)
			}
		}()
	}
	wg.Wait()
	if got := cs.Get("shared"); got != 8000 {
		t.Errorf("shared = %d, want 8000", got)
	}
	if got := cs.Get("test.registry.add"); got != 8000 {
		t.Errorf("registry = %d, want 8000", got)
	}
}

func TestKeyConvention(t *testing.T) {
	if got := Key("transport", "msgs", "send", "m1"); got != "transport.msgs.send@m1" {
		t.Errorf("Key = %q", got)
	}
	if got := Key("rpc", "call", "ok", ""); got != "rpc.call.ok" {
		t.Errorf("Key without scope = %q", got)
	}
}

func TestWriteJSONLRoundTrips(t *testing.T) {
	sim := vtime.New()
	tr := New(sim)
	tr.Instant("cat", "inst", "proc", "thr", "id1", Arg{"k", "v"})
	tr.SpanAt("cat", "span", "proc", "thr", "id2", 0, 3*time.Millisecond)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
		if m["cat"] != "cat" {
			t.Errorf("cat = %v", m["cat"])
		}
	}
}

func TestWriteChromeTraceShape(t *testing.T) {
	sim := vtime.New()
	tr := New(sim)
	tr.SpanAt("rpc", "call:x", "hostA", "flow1", "c1", time.Millisecond, 3*time.Millisecond)
	tr.Instant("transport", "recv", "hostB", "flow2", "")
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	byPh := map[string]int{}
	for _, ev := range doc.TraceEvents {
		byPh[ev.Ph]++
		if ev.Ph != "M" && ev.Pid == 0 {
			t.Errorf("event %q has pid 0", ev.Name)
		}
	}
	// 2 process_name + 2 thread_name metadata, one span, one instant.
	if byPh["M"] != 4 || byPh["X"] != 1 || byPh["i"] != 1 {
		t.Errorf("phase counts = %v, want M:4 X:1 i:1", byPh)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			if ev.Ts != 1000 || ev.Dur != 2000 {
				t.Errorf("span ts/dur = %v/%v µs, want 1000/2000", ev.Ts, ev.Dur)
			}
		}
	}
}

// The exported byte streams are identical however the events were appended.
func TestExportByteDeterminism(t *testing.T) {
	build := func(reverse bool) *Tracer {
		sim := vtime.New()
		tr := New(sim)
		evs := []Event{
			{At: time.Millisecond, Cat: "a", Name: "one", Proc: "p1", Thr: "t1"},
			{At: time.Millisecond, Cat: "a", Name: "two", Proc: "p2", Thr: "t2", Dur: time.Millisecond},
			{At: 2 * time.Millisecond, Cat: "b", Name: "three", Proc: "p1", Thr: "t1", Args: []Arg{{"k", "v"}}},
		}
		if reverse {
			for i, j := 0, len(evs)-1; i < j; i, j = i+1, j-1 {
				evs[i], evs[j] = evs[j], evs[i]
			}
		}
		for _, ev := range evs {
			tr.Emit(ev)
		}
		return tr
	}
	var a, b, ca, cb bytes.Buffer
	build(false).WriteJSONL(&a)
	build(true).WriteJSONL(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("JSONL export depends on append order")
	}
	build(false).WriteChromeTrace(&ca)
	build(true).WriteChromeTrace(&cb)
	if !bytes.Equal(ca.Bytes(), cb.Bytes()) {
		t.Error("Chrome export depends on append order")
	}
}

// DeriveTimeline projects span events back into a metrics.Timeline
// equivalent to direct recording: the thread track becomes the actor and
// the event name the phase.
func TestPhaseRecorderAndDeriveTimeline(t *testing.T) {
	sim := vtime.New()
	tr := New(sim)
	tr.SpanAt("gram", "authentication", "m1", "gram", "", 0, 500*time.Millisecond)
	tr.SpanAt("gram", "submit", "m1", "sj1", "", 500*time.Millisecond, 700*time.Millisecond)
	tl := DeriveTimeline(sim, tr.Events(), "gram")
	spans := tl.Spans()
	if len(spans) != 2 {
		t.Fatalf("derived spans = %d, want 2", len(spans))
	}
	if spans[0].Actor != "gram" || spans[0].Phase != "authentication" || spans[0].End != 500*time.Millisecond {
		t.Errorf("span 0 = %+v", spans[0])
	}
	if spans[1].Actor != "sj1" || spans[1].Phase != "submit" {
		t.Errorf("span 1 = %+v", spans[1])
	}
	// The category filter excludes other spans, and a zero-length span is
	// an instant in the trace schema, so it never becomes a timeline span.
	tr.SpanAt("other", "noise", "p", "t", "", 0, time.Second)
	tr.SpanAt("gram", "barrier", "m1", "sj1", "", time.Second, time.Second)
	if got := len(DeriveTimeline(sim, tr.Events(), "gram").Spans()); got != 2 {
		t.Errorf("filtered spans = %d, want 2", got)
	}
}
