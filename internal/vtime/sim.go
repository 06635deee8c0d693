// Package vtime implements a deterministic discrete-event virtual-time
// kernel for simulating distributed systems.
//
// Simulated processes are ordinary goroutines registered with a Sim via
// [Sim.Go] or [Sim.GoDaemon]. All blocking inside the simulation must go
// through kernel primitives — [Sim.Sleep], [Chan] operations, [WaitGroup],
// [Event] — so the kernel can account for runnable processes. Virtual time
// advances only when every registered process is blocked: the kernel then
// jumps the clock to the earliest pending timer and fires it. This makes
// timing exact (no wall-clock jitter) and fast (simulated seconds cost
// microseconds of real time).
//
// Timers are kept in one of two interchangeable engines selected at
// construction ([Config.Engine]): a hierarchical timer wheel with a
// calendar-queue overflow level (the default; O(1) amortized push/pop at
// million-timer scale) and the original binary heap, retained as the
// reference scheduler for differential testing. Both fire timers in
// identical (time, insertion) order.
//
// Execution is serialized: the kernel grants a run token to one process at
// a time, in FIFO wake order, so two processes woken at the same virtual
// instant never race — the same seed replays the same interleaving even
// under the race detector. Each process has one kernel-owned record that
// holds its grant channel and describes its current wait; parked
// goroutines resume only when granted the token. Passive timer callbacks
// ([Sim.AfterFuncPassive]) have no goroutine of their own: they run in
// batches on the goroutine whose block or exit let the clock advance,
// which holds the token until the batch's last callback returns.
//
// The clock does not move before [Sim.Wait] is called, so processes
// spawned from the test goroutine one after another all start at t=0
// however the Go scheduler interleaves them.
//
// Processes may use plain sync.Mutex for instantaneous critical sections,
// but must never block on ordinary Go channels or hold a mutex across a
// kernel blocking call; doing so breaks runnable accounting.
//
// If every live non-daemon process is blocked and no timers are pending,
// the simulation has deadlocked: the kernel records a *DeadlockError
// describing each blocked process and terminates the run, and [Sim.Wait]
// returns the error.
package vtime

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TimerEngine selects the data structure behind the kernel's timer queue.
type TimerEngine uint8

const (
	// EngineWheel is the default: a hierarchical timing wheel with a
	// calendar-queue overflow level. O(1) amortized push/pop.
	EngineWheel TimerEngine = iota
	// EngineHeap is the original container/heap scheduler, retained as the
	// reference implementation for differential kernel-equivalence tests.
	EngineHeap
)

func (e TimerEngine) String() string {
	switch e {
	case EngineWheel:
		return "wheel"
	case EngineHeap:
		return "heap"
	}
	return fmt.Sprintf("TimerEngine(%d)", uint8(e))
}

// ParseTimerEngine converts an engine name ("wheel" or "heap") to its
// TimerEngine value.
func ParseTimerEngine(name string) (TimerEngine, error) {
	switch name {
	case "wheel", "":
		return EngineWheel, nil
	case "heap":
		return EngineHeap, nil
	}
	return EngineWheel, fmt.Errorf("vtime: unknown timer engine %q", name)
}

// Config parameterizes kernel construction.
type Config struct {
	// Seed seeds the kernel's random source (0 means seed 1).
	Seed int64
	// Engine selects the timer queue implementation (default EngineWheel).
	Engine TimerEngine
}

// Sim is a discrete-event simulation kernel. Create one with New, NewSeeded
// or NewWithConfig; a zero Sim is not usable.
type Sim struct {
	mu        sync.Mutex
	now       time.Duration
	seq       uint64 // tiebreaker for timers scheduled at the same instant
	runnable  int    // processes ready to run: the token holder, the run queue, an in-flight passive batch
	alive     int    // non-daemon processes that have not exited
	started   bool   // at least one non-daemon process was spawned
	waited    bool   // Wait was called: setup is over and the clock may move
	completed bool   // all non-daemon processes exited, or deadlock detected

	// Deterministic cooperative scheduling: at most one simulated process
	// executes at a time, selected in FIFO wake order. running marks the
	// run token as held and cur is its holder (nil while a passive batch
	// holds it); runq holds the processes that are ready but waiting their
	// turn (runqHead is the pop index, reset when the queue drains).
	// Without this serialization two processes woken at the same virtual
	// instant race, and the winner — hence the entire downstream run — is
	// decided by the Go scheduler instead of the seed.
	running  bool
	cur      *proc
	runq     []*proc
	runqHead int

	live     *proc  // every process that has not exited, for deadlock reports
	blockSeq uint64 // numbers blocks so deadlock reports list them in order

	timers     timerQueue
	liveTimers int // pending timers that are neither cancelled nor fired
	engine     TimerEngine

	done     chan struct{}
	deadlock *DeadlockError

	// nowA mirrors now so that Now() never takes the kernel lock: the
	// clock is frozen whenever the reader is runnable, so a relaxed
	// atomic read is exact for simulated processes.
	nowA atomic.Int64

	rngMu sync.Mutex
	rng   *rand.Rand

	stats       KernelStats
	timersFired atomic.Int64
	batchWhen   time.Duration // virtual instant of the open dispatch batch
	batchCount  int64         // timers dispatched at batchWhen so far

	passiveBuf []*timerEntry // reusable batch buffer (one batch in flight at a time)
}

// Recorder consumes one non-negative int64 sample. It is the kernel's view
// of a latency histogram: vtime cannot import the metrics package (metrics
// builds on vtime), so callers inject recorders — *metrics.Histogram
// satisfies this interface — via SetStats. Implementations are invoked with
// the kernel lock held and therefore must not block or call back into the
// Sim; an atomic-only histogram qualifies.
type Recorder interface {
	Record(v int64)
}

// KernelStats wires distribution recorders into the kernel hot paths. Any
// nil field disables that probe at zero cost beyond a nil check.
type KernelStats struct {
	// TimerLead receives, for every timer that fires, its virtual lead time
	// in nanoseconds: how far ahead of the then-current clock it was set.
	// Fired timers are the deterministic population — whether a timeout
	// timer is even created can depend on real goroutine interleaving
	// within one virtual instant (a waiter may take a fast path and never
	// block), but a timer that fires exists and fires in every schedule.
	TimerLead Recorder
	// DispatchBatch receives, for every virtual instant at which at least
	// one timer fired, the number of timer callbacks dispatched at that
	// instant. Batches are keyed by the virtual clock, not by scheduler
	// invocation, so the recorded multiset is deterministic for a fixed
	// seed even though real goroutine interleaving varies run to run.
	DispatchBatch Recorder
}

// SetStats installs kernel probes. Call it during setup, before processes
// are spawned; recorders must be safe for use under the kernel lock (see
// Recorder).
func (s *Sim) SetStats(ks KernelStats) {
	s.mu.Lock()
	s.stats = ks
	s.mu.Unlock()
}

// TimersFired returns the total number of timer callbacks dispatched so
// far — the kernel's event throughput counter.
func (s *Sim) TimersFired() int64 { return s.timersFired.Load() }

// Engine returns the timer engine this kernel was constructed with.
func (s *Sim) Engine() TimerEngine { return s.engine }

// DeadlockError reports that every live process was blocked with no pending
// timers. Blocked lists a human-readable description of each blocked
// process at the moment of detection.
type DeadlockError struct {
	Now     time.Duration
	Blocked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("vtime: deadlock at t=%v: %d blocked: [%s]",
		e.Now, len(e.Blocked), strings.Join(e.Blocked, "; "))
}

// New returns a kernel seeded deterministically (seed 1).
func New() *Sim { return NewSeeded(1) }

// NewSeeded returns a kernel whose random source is seeded with seed.
func NewSeeded(seed int64) *Sim { return NewWithConfig(Config{Seed: seed}) }

// NewWithConfig returns a kernel built per cfg.
func NewWithConfig(cfg Config) *Sim {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	s := &Sim{
		done:   make(chan struct{}),
		rng:    rand.New(rand.NewSource(seed)),
		engine: cfg.Engine,
	}
	switch cfg.Engine {
	case EngineHeap:
		s.timers = newHeapQueue()
	default:
		s.timers = newTimerWheel()
	}
	return s
}

// Now returns the current virtual time, measured from the start of the
// simulation. It is lock-free: for a simulated process the clock cannot
// move while the caller is runnable, so the value is exact.
func (s *Sim) Now() time.Duration { return time.Duration(s.nowA.Load()) }

// setNowLocked advances the clock and its lock-free mirror. Must be called
// with s.mu held.
func (s *Sim) setNowLocked(t time.Duration) {
	s.now = t
	s.nowA.Store(int64(t))
}

// Go spawns fn as a simulated process. The simulation is complete when all
// non-daemon processes have returned.
func (s *Sim) Go(name string, fn func()) { s.spawn(name, fn, false) }

// GoDaemon spawns fn as a daemon process. Daemons (servers, background
// monitors) do not keep the simulation alive: once every non-daemon process
// has exited, the simulation completes and any still-blocked daemons are
// abandoned.
func (s *Sim) GoDaemon(name string, fn func()) { s.spawn(name, fn, true) }

func (s *Sim) spawn(name string, fn func(), daemon bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.completed {
		s.spawnLocked(fn, daemon)
	}
}

// spawnLocked starts fn as a process and queues it for the run token. Must
// be called with s.mu held.
func (s *Sim) spawnLocked(fn func(), daemon bool) {
	s.runnable++
	if !daemon {
		s.alive++
		s.started = true
	}
	p := s.newProcLocked()
	s.readyLocked(p)
	go func() {
		<-p.grant
		defer s.procExit(p, daemon)
		fn()
	}()
}

func (s *Sim) procExit(p *proc, daemon bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.unlinkLocked(p)
	s.runnable--
	s.yieldLocked()
	if !daemon {
		s.alive--
	}
	s.releaseLocked()
}

// Wait blocks the calling (real) goroutine until the simulation completes:
// every non-daemon process has exited, or a deadlock was detected. It
// returns the *DeadlockError in the latter case. At least one non-daemon
// process must have been spawned before calling Wait. Wait ends setup:
// until it is called the clock stays put and the simulation cannot
// complete, so processes spawned one after another all start at t=0.
func (s *Sim) Wait() error {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		panic("vtime: Wait called before any process was spawned")
	}
	s.waited = true
	s.releaseLocked()
	s.mu.Unlock()
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.deadlock != nil {
		return s.deadlock
	}
	return nil
}

// Run spawns fn as a non-daemon process and waits for the simulation to
// complete. It is shorthand for Go followed by Wait.
func (s *Sim) Run(name string, fn func()) error {
	s.Go(name, fn)
	return s.Wait()
}

// Sleep suspends the calling process for d of virtual time. A non-positive
// d returns immediately.
func (s *Sim) Sleep(d time.Duration) {
	s.mu.Lock()
	if s.completed {
		s.mu.Unlock()
		parkForever()
	}
	if d <= 0 {
		s.mu.Unlock()
		return
	}
	p := s.cur
	s.pushTimerLocked(s.now+d, func() { s.wakeLocked(p) })
	s.blockLocked(waitSleep, "", s.now+d)
}

// SleepUntil suspends the calling process until virtual time t. If t is not
// in the future it returns immediately.
func (s *Sim) SleepUntil(t time.Duration) {
	s.Sleep(t - s.Now())
}

// Timer is a handle to a callback scheduled with AfterFunc or
// AfterFuncPassive.
type Timer struct {
	s *Sim
	t *timerEntry
}

// Stop cancels the timer. It reports whether the callback was prevented
// from running.
func (t *Timer) Stop() bool {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	return t.s.cancelTimerLocked(t.t)
}

// Reset reschedules the timer to fire after d from the current virtual
// instant, whether or not it has already fired or been stopped. It reports
// whether the timer was still pending (and was therefore cancelled) at the
// time of the call, with the same meaning as Stop's return value.
func (t *Timer) Reset(d time.Duration) bool {
	s := t.s
	s.mu.Lock()
	defer s.mu.Unlock()
	was := s.cancelTimerLocked(t.t)
	entry := s.pushTimerLocked(s.now+d, t.t.fn)
	entry.passive = t.t.passive
	t.t = entry
	return was
}

// AfterFunc schedules fn to run as a new daemon process after d of virtual
// time. fn may use all kernel primitives, including blocking ones.
func (s *Sim) AfterFunc(d time.Duration, fn func()) *Timer {
	s.mu.Lock()
	defer s.mu.Unlock()
	entry := s.pushTimerLocked(s.now+d, func() {
		// Runs under s.mu from advanceLocked: spawn without re-locking.
		s.spawnLocked(fn, true)
	})
	return &Timer{s: s, t: entry}
}

// AfterFuncPassive schedules fn to run after d of virtual time without a
// process of its own. Same-instant passive callbacks run in batches, in
// (when, seq) order, on the goroutine whose block or exit let the clock
// advance; the batch holds the run token, so processes its callbacks wake
// start only after it. This makes passive timers dramatically cheaper at
// scale.
//
// fn MUST NOT block on kernel primitives (Sleep, Chan Send/Recv, WaitGroup
// or Event waits): a passive callback that blocks panics. Non-blocking
// kernel calls (TrySend, TryRecv, Set, Go, GoDaemon, AfterFunc) are
// allowed. Use AfterFunc for callbacks that may block.
func (s *Sim) AfterFuncPassive(d time.Duration, fn func()) *Timer {
	s.mu.Lock()
	defer s.mu.Unlock()
	entry := s.pushTimerLocked(s.now+d, fn)
	entry.passive = true
	return &Timer{s: s, t: entry}
}

// --- random helpers (safe for concurrent use by processes) ---

// RandFloat64 returns a pseudo-random float64 in [0,1).
func (s *Sim) RandFloat64() float64 {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return s.rng.Float64()
}

// RandIntn returns a pseudo-random int in [0,n).
func (s *Sim) RandIntn(n int) int {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return s.rng.Intn(n)
}

// RandNorm returns a normally distributed float64 with mean 0 and
// standard deviation 1.
func (s *Sim) RandNorm() float64 {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return s.rng.NormFloat64()
}

// RandExp returns an exponentially distributed float64 with rate 1.
func (s *Sim) RandExp() float64 {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return s.rng.ExpFloat64()
}

// --- kernel internals ---

// releaseLocked runs after the caller gave up the run token by blocking or
// exiting. Once setup is over it completes the simulation when the last
// non-daemon process has exited, and otherwise, while nothing is runnable,
// advances the clock; passive batches that come due run here, on the
// calling goroutine. Must be called with s.mu held; s.mu is released while
// a batch runs.
func (s *Sim) releaseLocked() {
	for s.waited && !s.completed {
		if s.alive == 0 {
			s.flushBatchLocked()
			s.completed = true
			close(s.done)
			return
		}
		if s.runnable > 0 {
			return
		}
		if batch := s.advanceLocked(); batch != nil {
			s.runBatchLocked(batch)
		}
	}
}

// readyLocked makes a process runnable: it is granted the run token
// immediately if the token is free, otherwise queued FIFO behind the
// current holder. A parked process resumes only when it is actually its
// turn, which is what makes wake order (and therefore the whole run)
// deterministic. Must be called with s.mu held.
func (s *Sim) readyLocked(p *proc) {
	if s.running {
		s.runq = append(s.runq, p)
		return
	}
	s.running = true
	s.cur = p
	p.grant <- struct{}{}
}

// yieldLocked releases the run token and hands it to the next queued
// process, if any. Must be called with s.mu held by the current holder
// (or on its behalf, for passive batches).
func (s *Sim) yieldLocked() {
	if s.runqHead < len(s.runq) {
		next := s.runq[s.runqHead]
		s.runq[s.runqHead] = nil
		s.runqHead++
		if s.runqHead == len(s.runq) {
			s.runq = s.runq[:0]
			s.runqHead = 0
		}
		s.cur = next
		next.grant <- struct{}{}
		return
	}
	s.running = false
	s.cur = nil
}

// pushTimerLocked schedules fn at virtual time when. Must be called with
// s.mu held.
func (s *Sim) pushTimerLocked(when time.Duration, fn func()) *timerEntry {
	s.seq++
	entry := &timerEntry{when: when, born: s.now, seq: s.seq, fn: fn}
	s.timers.push(entry)
	s.liveTimers++
	return entry
}

// cancelTimerLocked marks entry cancelled, keeping the live-timer count
// exact for deadlock detection. The entry itself is discarded lazily when
// the queue pops it. Reports whether the entry was still pending. Must be
// called with s.mu held.
func (s *Sim) cancelTimerLocked(entry *timerEntry) bool {
	if entry.cancelled || entry.fired {
		return false
	}
	entry.cancelled = true
	s.liveTimers--
	return true
}

// advanceLocked advances virtual time while no process is runnable, firing
// timers in (time, insertion) order. It returns early with the batch of a
// due passive timer, which the caller must run (see runBatchLocked). Must
// be called with s.mu held and s.runnable == 0.
func (s *Sim) advanceLocked() []*timerEntry {
	for s.runnable == 0 && !s.completed {
		if s.liveTimers == 0 {
			s.reportDeadlockLocked()
			return nil
		}
		entry := s.timers.pop()
		if entry == nil {
			panic("vtime: timer queue empty with live timers pending")
		}
		if entry.cancelled {
			continue
		}
		if entry.when > s.now {
			s.setNowLocked(entry.when)
		}
		// Dispatch batches are keyed by the clock value at fire time: a
		// woken process that blocks again at the same instant continues
		// the open batch, keeping the statistic independent of where the
		// scheduler happened to pause.
		if s.batchCount > 0 && s.now != s.batchWhen {
			s.flushBatchLocked()
		}
		s.batchWhen = s.now
		if entry.passive {
			return s.collectPassiveLocked(entry)
		}
		s.fireLocked(entry)
	}
	return nil
}

// fireLocked dispatches one timer inline under the kernel lock.
func (s *Sim) fireLocked(entry *timerEntry) {
	s.markFiredLocked(entry)
	entry.fn()
}

// markFiredLocked does a firing timer's accounting. Must be called with
// s.mu held.
func (s *Sim) markFiredLocked(e *timerEntry) {
	e.fired = true
	s.liveTimers--
	s.batchCount++
	s.timersFired.Add(1)
	if s.stats.TimerLead != nil {
		s.stats.TimerLead.Record(int64(e.when - e.born))
	}
}

// maxPassiveBatch bounds how many same-instant passive callbacks run as one
// batch. Processes a batch wakes run before the next batch at the same
// instant, so changing it reorders them against the remaining callbacks.
const maxPassiveBatch = 256

// collectPassiveLocked collects first plus every consecutive same-instant
// passive timer (up to maxPassiveBatch) into a batch that takes the run
// token. The batch counts as one runnable unit until its last callback
// completes, so the clock cannot move past it. Must be called with s.mu
// held.
func (s *Sim) collectPassiveLocked(first *timerEntry) []*timerEntry {
	s.markFiredLocked(first)
	batch := append(s.passiveBuf[:0], first)
	for len(batch) < maxPassiveBatch {
		next := s.timers.peek()
		if next == nil || next.when != s.now {
			break
		}
		if next.cancelled {
			s.timers.pop()
			continue
		}
		if !next.passive {
			break
		}
		s.timers.pop()
		s.markFiredLocked(next)
		batch = append(batch, next)
	}
	s.passiveBuf = batch
	s.runnable++
	// The batch holds the run token while in flight: processes its
	// callbacks wake queue behind it and start, in FIFO order, only after
	// its last callback — otherwise a woken process would race the
	// remaining callbacks.
	s.running = true
	return batch
}

// runBatchLocked runs a passive batch's callbacks in order without s.mu,
// then hands the run token on. Must be called with s.mu held.
func (s *Sim) runBatchLocked(batch []*timerEntry) {
	s.mu.Unlock()
	for _, e := range batch {
		e.fn()
	}
	s.mu.Lock()
	s.runnable--
	s.yieldLocked()
}

// flushBatchLocked records and resets the open dispatch batch. Must be
// called with s.mu held.
func (s *Sim) flushBatchLocked() {
	if s.batchCount > 0 && s.stats.DispatchBatch != nil {
		s.stats.DispatchBatch.Record(s.batchCount)
	}
	s.batchCount = 0
}

func (s *Sim) reportDeadlockLocked() {
	s.flushBatchLocked()
	s.deadlock = &DeadlockError{Now: s.now, Blocked: s.blockedLocked()}
	s.completed = true
	close(s.done)
}

// parkForever parks the calling goroutine permanently. Used for daemons
// that block after the simulation has completed.
func parkForever() {
	select {}
}

// --- timer entries ---

type timerEntry struct {
	when      time.Duration
	born      time.Duration // clock value when the timer was scheduled
	seq       uint64
	fn        func() // under s.mu unless passive; passive ones run without it
	passive   bool
	cancelled bool
	fired     bool
	index     int // heap engine bookkeeping
}

// timerQueue is the kernel's timer store. Both engines return entries in
// exact (when, seq) order, including cancelled entries (the kernel skips
// those lazily). len counts every stored entry, cancelled included.
type timerQueue interface {
	push(e *timerEntry)
	pop() *timerEntry
	peek() *timerEntry
	len() int
}
