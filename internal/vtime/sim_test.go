package vtime

import (
	"context"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	s := New()
	var end time.Duration
	err := s.Run("main", func() {
		s.Sleep(3 * time.Second)
		end = s.Now()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != 3*time.Second {
		t.Fatalf("Now after sleep = %v, want 3s", end)
	}
}

func TestSleepZeroOrNegativeReturnsImmediately(t *testing.T) {
	s := New()
	err := s.Run("main", func() {
		s.Sleep(0)
		s.Sleep(-time.Second)
		if got := s.Now(); got != 0 {
			t.Errorf("Now = %v, want 0", got)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestConcurrentSleepsOverlap(t *testing.T) {
	s := New()
	wg := NewWaitGroup(s)
	wg.Add(3)
	for i := 0; i < 3; i++ {
		s.Go("sleeper", func() {
			s.Sleep(5 * time.Second)
			wg.Done()
		})
	}
	var end time.Duration
	s.Go("main", func() {
		wg.Wait()
		end = s.Now()
	})
	if err := s.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if end != 5*time.Second {
		t.Fatalf("three parallel 5s sleeps ended at %v, want 5s", end)
	}
}

func TestSequentialSleepsAccumulate(t *testing.T) {
	s := New()
	err := s.Run("main", func() {
		for i := 0; i < 10; i++ {
			s.Sleep(time.Second)
		}
		if got := s.Now(); got != 10*time.Second {
			t.Errorf("Now = %v, want 10s", got)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestTimerFiringOrderIsDeterministic(t *testing.T) {
	s := New()
	var mu sync.Mutex
	var order []int
	wg := NewWaitGroup(s)
	// Unique delays: with ties the wake order would depend on which
	// goroutine reached Sleep first, which the Go scheduler decides.
	delays := []time.Duration{5, 3, 8, 1, 4, 9, 2}
	wg.Add(len(delays))
	s.Go("main", func() {
		// Spawn from inside the simulation so the clock stays at zero
		// until every sleeper is registered.
		for i, d := range delays {
			i, d := i, d
			s.Go("sleeper", func() {
				s.Sleep(d * time.Second)
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
				wg.Done()
			})
		}
		wg.Wait()
	})
	if err := s.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	// Expected: sorted by (delay, spawn order): indices 3(1s) 6(2s) 1(3s) 4(3s) 0(5s) 2(8s) 5(9s)
	want := []int{3, 6, 1, 4, 0, 2, 5}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("got %d wakeups, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("firing order = %v, want %v", order, want)
		}
	}
}

func TestAfterFuncRunsAtScheduledTime(t *testing.T) {
	s := New()
	var fired time.Duration
	done := NewEvent(s, "done")
	s.AfterFunc(7*time.Second, func() {
		fired = s.Now()
		done.Set()
	})
	err := s.Run("main", func() { done.Wait() })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 7*time.Second {
		t.Fatalf("AfterFunc fired at %v, want 7s", fired)
	}
}

func TestAfterFuncStopPreventsRun(t *testing.T) {
	s := New()
	ran := false
	timer := s.AfterFunc(5*time.Second, func() { ran = true })
	err := s.Run("main", func() {
		if !timer.Stop() {
			t.Error("Stop returned false for pending timer")
		}
		if timer.Stop() {
			t.Error("second Stop returned true")
		}
		s.Sleep(10 * time.Second)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran {
		t.Fatal("stopped timer still ran")
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := New()
	ch := NewChan[int](s, "never", 0)
	s.Go("blocked", func() { ch.Recv() })
	err := s.Wait()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Wait error = %v, want *DeadlockError", err)
	}
	if len(de.Blocked) != 1 || !strings.Contains(de.Blocked[0], "never") {
		t.Fatalf("deadlock report %q does not name channel", de.Error())
	}
}

// TestDeadlockReportsMultipleWaiters pins the exact report strings, in
// block order, for every wait kind that can deadlock: DST kernel
// violations embed them, so a change to their bytes or order is an output
// change.
func TestDeadlockReportsMultipleWaiters(t *testing.T) {
	s := New()
	a := NewChan[int](s, "chan-a", 0)
	b := NewChan[int](s, "chan-b", 0)
	wg := NewWaitGroup(s)
	wg.Add(1)
	ev := NewEvent(s, "ev")
	// Each process sleeps a different time first, so the block order and
	// the "since" stamps are fixed.
	s.Go("event", func() { s.Sleep(4 * time.Second); ev.Wait() })
	s.Go("recv", func() { s.Sleep(time.Second); a.Recv() })
	s.GoDaemon("send", func() { s.Sleep(2 * time.Second); b.Send(1) })
	s.Go("wg", func() { s.Sleep(3 * time.Second); wg.Wait() })
	err := s.Wait()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Wait error = %v, want *DeadlockError", err)
	}
	want := []string{
		"recv on chan-a (since t=1s)",
		"send on chan-b (since t=2s)",
		"waitgroup wait (since t=3s)",
		"event ev (since t=4s)",
	}
	if de.Now != 4*time.Second || !reflect.DeepEqual(de.Blocked, want) {
		t.Fatalf("deadlock at t=%v blocked %q, want t=4s blocked %q", de.Now, de.Blocked, want)
	}
	if got := de.Error(); got != "vtime: deadlock at t=4s: 4 blocked: [recv on chan-a (since t=1s); send on chan-b (since t=2s); waitgroup wait (since t=3s); event ev (since t=4s)]" {
		t.Fatalf("Error() = %q", got)
	}
}

// TestClockWaitsForWait is the setup-race regression: a process spawned
// from the test goroutine may block before the next one is spawned. The
// kernel must neither declare a deadlock nor advance the clock until Wait
// ends setup.
func TestClockWaitsForWait(t *testing.T) {
	s := New()
	ch := NewChan[int](s, "rv", 0)
	var got int
	s.Go("receiver", func() { got, _ = ch.Recv() })
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		parked := s.runnable == 0
		s.mu.Unlock()
		if parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("receiver never parked")
		}
		runtime.Gosched()
	}
	var at time.Duration
	s.Go("sender", func() {
		s.Sleep(time.Second)
		ch.Send(7)
		at = s.Now()
	})
	if err := s.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got != 7 || at != time.Second {
		t.Fatalf("received %d, sent at %v; want 7 at 1s", got, at)
	}
}

// TestPassiveCallbackBlockPanics checks that a passive callback that
// blocks on a kernel primitive crashes with a clear message instead of
// silently corrupting runnable accounting. The crash is observed in a
// child process: the test binary re-executes itself with
// VTIME_PASSIVE_BLOCK_CHILD set.
func TestPassiveCallbackBlockPanics(t *testing.T) {
	if os.Getenv("VTIME_PASSIVE_BLOCK_CHILD") == "1" {
		s := New()
		s.AfterFuncPassive(time.Second, func() { s.Sleep(time.Second) })
		_ = s.Run("main", func() { s.Sleep(5 * time.Second) })
		// The panicking goroutine may still be unwinding; give it time to
		// crash the process before the test returns cleanly.
		time.Sleep(2 * time.Second)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestPassiveCallbackBlockPanics$", "-test.count=1")
	cmd.Env = append(os.Environ(), "VTIME_PASSIVE_BLOCK_CHILD=1")
	out, err := cmd.CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("child hung instead of crashing; output:\n%s", out)
	}
	if err == nil {
		t.Fatalf("child exited cleanly; want a crash. output:\n%s", out)
	}
	const msg = "vtime: passive timer callback blocked on a kernel primitive"
	if !strings.Contains(string(out), msg) {
		t.Fatalf("child output lacks %q:\n%s", msg, out)
	}
}

func TestDaemonDoesNotKeepSimulationAlive(t *testing.T) {
	s := New()
	ch := NewChan[int](s, "daemon-inbox", 0)
	s.GoDaemon("server", func() {
		for {
			if _, ok := ch.Recv(); !ok {
				return
			}
		}
	})
	var end time.Duration
	err := s.Run("main", func() {
		s.Sleep(time.Second)
		ch.Send(42)
		end = s.Now()
	})
	if err != nil {
		t.Fatalf("Run: %v (daemon should not deadlock the sim)", err)
	}
	if end != time.Second {
		t.Fatalf("end = %v, want 1s", end)
	}
}

func TestDaemonSleepLoopDoesNotSpinClockAfterCompletion(t *testing.T) {
	s := New()
	s.GoDaemon("ticker", func() {
		for {
			s.Sleep(time.Millisecond)
		}
	})
	err := s.Run("main", func() { s.Sleep(time.Second) })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The daemon must not advance the clock after completion. Give the
	// runtime a moment, then verify the clock is frozen.
	now1 := s.Now()
	time.Sleep(10 * time.Millisecond)
	if now2 := s.Now(); now2 != now1 {
		t.Fatalf("clock advanced after completion: %v -> %v", now1, now2)
	}
}

func TestWaitBeforeSpawnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Wait before spawn did not panic")
		}
	}()
	New().Wait()
}

func TestSleepUntil(t *testing.T) {
	s := New()
	err := s.Run("main", func() {
		s.SleepUntil(4 * time.Second)
		if s.Now() != 4*time.Second {
			t.Errorf("Now = %v, want 4s", s.Now())
		}
		s.SleepUntil(2 * time.Second) // in the past: no-op
		if s.Now() != 4*time.Second {
			t.Errorf("Now after past SleepUntil = %v, want 4s", s.Now())
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestGoAfterCompletionIsIgnored(t *testing.T) {
	s := New()
	if err := s.Run("main", func() {}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	ran := make(chan struct{})
	s.Go("late", func() { close(ran) })
	select {
	case <-ran:
		t.Fatal("process spawned after completion ran")
	case <-time.After(10 * time.Millisecond):
	}
}

func TestSpawnTreeCompletes(t *testing.T) {
	s := New()
	var mu sync.Mutex
	count := 0
	var spawn func(depth int)
	spawn = func(depth int) {
		mu.Lock()
		count++
		mu.Unlock()
		if depth == 0 {
			return
		}
		s.Sleep(time.Duration(depth) * time.Millisecond)
		for i := 0; i < 2; i++ {
			d := depth - 1
			s.Go("child", func() { spawn(d) })
		}
	}
	s.Go("root", func() { spawn(5) })
	if err := s.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if count != 63 { // 2^6 - 1 nodes
		t.Fatalf("spawned %d processes, want 63", count)
	}
}

func TestRandDeterministicAcrossSeeds(t *testing.T) {
	a, b := NewSeeded(42), NewSeeded(42)
	for i := 0; i < 100; i++ {
		if av, bv := a.RandFloat64(), b.RandFloat64(); av != bv {
			t.Fatalf("same-seed kernels diverge at draw %d: %v vs %v", i, av, bv)
		}
	}
	c := NewSeeded(7)
	same := true
	d := NewSeeded(8)
	for i := 0; i < 10; i++ {
		if c.RandFloat64() != d.RandFloat64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestManyTimersSortedFiring(t *testing.T) {
	s := New()
	var mu sync.Mutex
	var times []time.Duration
	n := 500
	wg := NewWaitGroup(s)
	wg.Add(n)
	s.Go("main", func() {
		for i := 0; i < n; i++ {
			d := time.Duration((i*7919)%1000) * time.Millisecond
			s.Go("sleeper", func() {
				s.Sleep(d)
				mu.Lock()
				times = append(times, s.Now())
				mu.Unlock()
				wg.Done()
			})
		}
		wg.Wait()
	})
	if err := s.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] }) {
		t.Fatal("wakeup times are not monotonically non-decreasing")
	}
	if len(times) != n {
		t.Fatalf("got %d wakeups, want %d", len(times), n)
	}
}
