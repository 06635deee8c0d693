// Package trace provides the observability substrate for the co-allocation
// stack: a deterministic, virtual-time-stamped structured event layer and a
// lock-cheap counter registry.
//
// Every layer of the stack emits typed events through a shared *Tracer —
// transport message hops, RPC call/reply pairs, GRAM job state transitions,
// DUROC subjob lifecycle and commit phases — so one co-allocation run can be
// decomposed span-by-span, exactly the per-layer latency attribution the
// paper's Figures 2-5 perform by hand.
//
// All Tracer and Counters methods are nil-safe: a nil *Tracer (the default
// everywhere) records nothing and costs nothing, so untraced paths stay
// zero-cost. Because simulated processes may run concurrently within one
// virtual instant, events are kept unordered internally and sorted by a
// total deterministic order on export: two runs with the same seed produce
// byte-identical traces.
package trace

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cogrid/internal/vtime"
)

// Arg is one key/value annotation on an event.
type Arg struct {
	Key string
	Val string
}

// Event is a single structured trace event. Dur == 0 makes it an instant;
// Dur > 0 makes it a complete span [At, At+Dur).
type Event struct {
	// At is the virtual time of the event (span start for spans).
	At time.Duration
	// Dur is the span length; zero for instant events.
	Dur time.Duration
	// Cat is the emitting layer: "transport", "rpc", "gram", "duroc", or
	// an application-chosen category.
	Cat string
	// Name identifies the event within its category, e.g. "hop",
	// "call:submit", "state:active", "commit".
	Name string
	// Proc is the process track (usually a host or actor name).
	Proc string
	// Thr is the thread track within Proc (a connection flow, a service
	// name, or a job/subjob label).
	Thr string
	// ID is an optional correlation identifier shared by related events,
	// e.g. an RPC call and its reply processing on the server.
	ID string
	// Req is the causal request id this event belongs to (empty for
	// events outside any request tree).
	Req string
	// Span is the event's position in the request's causal tree: a
	// "/"-separated path from the root ("req"), e.g.
	// "req/call:submit#1/serve/attempt1/sj:site00/submit". The parent
	// span is the longest proper path prefix that names another span.
	Span string
	// Args are optional annotations.
	Args []Arg
}

// Ctx is a propagated span context: the request id plus the causal path of
// the current span. It is carried through RPC envelopes and transport
// message metadata so every layer stamps its events into the same request
// tree. The zero Ctx is "untraced": Child on it stays zero and events keep
// empty Req/Span.
type Ctx struct {
	Req  string
	Span string
}

// NewRequest roots a fresh causal tree for request id. The root span path
// is always "req" so analyzers can find the request root by name.
func NewRequest(id string) Ctx { return Ctx{Req: id, Span: "req"} }

// Valid reports whether the context belongs to a request tree.
func (c Ctx) Valid() bool { return c.Req != "" }

// Child derives the context for a sub-span named seg. Deriving from the
// zero Ctx yields the zero Ctx, so untraced paths propagate nothing.
func (c Ctx) Child(seg string) Ctx {
	if c.Req == "" {
		return Ctx{}
	}
	if c.Span == "" {
		return Ctx{Req: c.Req, Span: seg}
	}
	return Ctx{Req: c.Req, Span: c.Span + "/" + seg}
}

// Seg sanitizes s for use as a span path segment: "/" is the path
// separator, so embedded slashes (job ids, subjob labels) become "_".
func Seg(s string) string { return strings.ReplaceAll(s, "/", "_") }

// String encodes the context for out-of-band carriers (e.g. an environment
// variable handed to a spawned process). ParseCtx inverts it.
func (c Ctx) String() string { return c.Req + "|" + c.Span }

// ParseCtx decodes a Ctx produced by String. Malformed or empty input
// yields the zero Ctx.
func ParseCtx(s string) Ctx {
	i := strings.IndexByte(s, '|')
	if i < 0 {
		return Ctx{}
	}
	return Ctx{Req: s[:i], Span: s[i+1:]}
}

// Tap observes every event the tracer records, synchronously on the
// emitting goroutine. A tap must be cheap and must not call back into the
// tracer. The flight recorder is the canonical tap: it mirrors the live
// event stream into bounded ring buffers without growing the trace.
type Tap interface {
	Record(Event)
}

// Tracer records events in virtual time. The zero value is not usable;
// create with New. A nil *Tracer is a valid no-op tracer.
type Tracer struct {
	sim    *vtime.Sim
	tap    atomic.Pointer[Tap]
	mu     sync.Mutex
	events []Event
}

// New creates a tracer stamping events with sim's virtual clock.
func New(sim *vtime.Sim) *Tracer { return &Tracer{sim: sim} }

// Enabled reports whether the tracer records events. It is the idiomatic
// guard before building expensive annotations.
func (t *Tracer) Enabled() bool { return t != nil }

// Now returns the current virtual time, or zero on a nil tracer. Use it to
// capture span start times without touching the kernel on untraced paths.
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	return t.sim.Now()
}

// SetTap installs tap to observe every subsequent event; nil detaches.
// Nil-safe on a nil tracer.
func (t *Tracer) SetTap(tap Tap) {
	if t == nil {
		return
	}
	if tap == nil {
		t.tap.Store(nil)
		return
	}
	t.tap.Store(&tap)
}

// Emit records ev as given. Nil-safe.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
	if tap := t.tap.Load(); tap != nil {
		(*tap).Record(ev)
	}
}

// Instant records an instant event stamped now. Nil-safe.
func (t *Tracer) Instant(cat, name, proc, thr, id string, args ...Arg) {
	if t == nil {
		return
	}
	t.Emit(Event{At: t.sim.Now(), Cat: cat, Name: name, Proc: proc, Thr: thr, ID: id, Args: args})
}

// Span records a complete span from start to now. Nil-safe.
func (t *Tracer) Span(cat, name, proc, thr, id string, start time.Duration, args ...Arg) {
	if t == nil {
		return
	}
	t.SpanAt(cat, name, proc, thr, id, start, t.sim.Now(), args...)
}

// SpanAt records a complete span over [start, end). A span with end < start
// is recorded with zero duration. Nil-safe.
func (t *Tracer) SpanAt(cat, name, proc, thr, id string, start, end time.Duration, args ...Arg) {
	if t == nil {
		return
	}
	dur := end - start
	if dur < 0 {
		dur = 0
	}
	t.Emit(Event{At: start, Dur: dur, Cat: cat, Name: name, Proc: proc, Thr: thr, ID: id, Args: args})
}

// InstantCtx records an instant event stamped now, tagged with the span
// context. Nil-safe.
func (t *Tracer) InstantCtx(ctx Ctx, cat, name, proc, thr, id string, args ...Arg) {
	if t == nil {
		return
	}
	t.Emit(Event{At: t.sim.Now(), Cat: cat, Name: name, Proc: proc, Thr: thr, ID: id,
		Req: ctx.Req, Span: ctx.Span, Args: args})
}

// SpanCtx records a complete span from start to now, tagged with the span
// context. Nil-safe.
func (t *Tracer) SpanCtx(ctx Ctx, cat, name, proc, thr, id string, start time.Duration, args ...Arg) {
	if t == nil {
		return
	}
	t.SpanAtCtx(ctx, cat, name, proc, thr, id, start, t.sim.Now(), args...)
}

// SpanAtCtx records a complete span over [start, end), tagged with the
// span context. A span with end < start is recorded with zero duration.
// Nil-safe.
func (t *Tracer) SpanAtCtx(ctx Ctx, cat, name, proc, thr, id string, start, end time.Duration, args ...Arg) {
	if t == nil {
		return
	}
	dur := end - start
	if dur < 0 {
		dur = 0
	}
	t.Emit(Event{At: start, Dur: dur, Cat: cat, Name: name, Proc: proc, Thr: thr, ID: id,
		Req: ctx.Req, Span: ctx.Span, Args: args})
}

// Len returns the number of recorded events (0 on a nil tracer).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of the recorded events in the deterministic export
// order. Returns nil on a nil tracer.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Event(nil), t.events...)
	t.mu.Unlock()
	Sort(out)
	return out
}

// Sort orders events by the total deterministic order used for export:
// time, then process, thread, category, name, correlation ID, duration, and
// finally argument content. Processes that run concurrently within one
// virtual instant may append events in any real-time order; sorting by
// content restores a unique order because each event's content is itself
// deterministic.
func Sort(events []Event) {
	sort.SliceStable(events, func(i, j int) bool { return less(events[i], events[j]) })
}

// Less reports whether a sorts strictly before b in the deterministic
// export order — the comparator behind Sort, exported so dump validators
// can verify an event stream is already in trace order.
func Less(a, b Event) bool { return less(a, b) }

func less(a, b Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Proc != b.Proc {
		return a.Proc < b.Proc
	}
	if a.Thr != b.Thr {
		return a.Thr < b.Thr
	}
	if a.Cat != b.Cat {
		return a.Cat < b.Cat
	}
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	if a.Req != b.Req {
		return a.Req < b.Req
	}
	if a.Span != b.Span {
		return a.Span < b.Span
	}
	if a.Dur != b.Dur {
		return a.Dur < b.Dur
	}
	for k := 0; k < len(a.Args) && k < len(b.Args); k++ {
		if a.Args[k].Key != b.Args[k].Key {
			return a.Args[k].Key < b.Args[k].Key
		}
		if a.Args[k].Val != b.Args[k].Val {
			return a.Args[k].Val < b.Args[k].Val
		}
	}
	return len(a.Args) < len(b.Args)
}
