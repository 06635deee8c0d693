package transport

import (
	"fmt"
	"testing"
	"time"

	"cogrid/internal/obs"
	"cogrid/internal/trace"
	"cogrid/internal/vtime"
)

// TestSendqFullDropAccounting is the regression test for the silent-loss
// bug: when the delivery queue saturates, Send used to ignore the TrySend
// result, so messages counted as sent simply vanished. Every sent message
// must now be accounted as either received or dropped.
func TestSendqFullDropAccounting(t *testing.T) {
	sim, net, a, b := testNet(t)
	ctrs := trace.NewCounters()
	net.Attach(obs.Sinks{Counters: ctrs})
	l, err := b.Listen("svc")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	sim.GoDaemon("server", func() {
		conn, ok := l.Accept()
		if !ok {
			return
		}
		for {
			if _, err := conn.Recv(); err != nil {
				return
			}
		}
	})
	const sends = 6000 // well past the 4096-slot delivery queue
	err = sim.Run("client", func() {
		conn, err := a.Dial(Addr{"b", "svc"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		// All sends land at the same virtual instant: the delivery daemon
		// cannot drain between them, so the out queue saturates.
		for i := 0; i < sends; i++ {
			if err := conn.Send([]byte("m")); err != nil {
				t.Errorf("Send %d: %v", i, err)
			}
		}
		sim.Sleep(time.Second) // let deliveries finish
		conn.Close()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if net.Messages() != sends {
		t.Fatalf("Messages = %d, want %d", net.Messages(), sends)
	}
	recvd := ctrs.Get(trace.Key("transport", "msgs", "recv", "b"))
	dropped := ctrs.Get(trace.Key("transport", "msgs", "drop", "a"))
	if dropped == 0 {
		t.Error("no drops accounted: the saturated send queue lost messages silently")
	}
	if recvd+dropped != sends {
		t.Errorf("recv %d + drop %d = %d, want %d: messages vanished without accounting",
			recvd, dropped, recvd+dropped, sends)
	}
}

// TestCloseFINReliableUnderOverload is the regression test for the lost-FIN
// bug: Close used to enqueue its FIN with a blind TrySend, so under
// overload the peer never learned of the close and hung in Recv until its
// timeout. The peer must observe ErrClosed even when the delivery queue was
// saturated at close time.
func TestCloseFINReliableUnderOverload(t *testing.T) {
	sim, _, a, b := testNet(t)
	l, err := b.Listen("svc")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	result := vtime.NewChan[error](sim, "result", 1)
	sim.GoDaemon("server", func() {
		conn, ok := l.Accept()
		if !ok {
			return
		}
		for {
			_, err := conn.RecvTimeout(time.Hour)
			if err != nil {
				result.Send(err)
				return
			}
		}
	})
	err = sim.Run("client", func() {
		conn, err := a.Dial(Addr{"b", "svc"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		// Saturate the delivery queue, then close while it is still full.
		for i := 0; i < 6000; i++ {
			conn.Send([]byte("m"))
		}
		conn.Close()
		got, _ := result.Recv()
		if got != ErrClosed {
			t.Errorf("peer Recv after overloaded close = %v, want ErrClosed (FIN was lost)", got)
		}
		if sim.Now() >= time.Hour {
			t.Errorf("peer only noticed the close via timeout at t=%v", sim.Now())
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// TestDialVsCrashRace is the regression test for the dial/crash window:
// DialCtx used to check the local host's state, drop the network lock for
// the SYN sleep, and re-acquire it to register the conn pair without
// re-checking — a crash in that window registered live connections on a
// swept host. The dial must fail, and neither host may end up with a
// registered connection. Run under -race in CI.
func TestDialVsCrashRace(t *testing.T) {
	sim, net, a, b := testNet(t)
	l, err := b.Listen("svc")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	sim.GoDaemon("server", func() {
		for {
			if _, ok := l.Accept(); !ok {
				return
			}
		}
	})
	err = sim.Run("client", func() {
		// The dial's SYN sleep covers (0, 1ms); crash in the middle of it.
		sim.AfterFunc(500*time.Microsecond, func() { a.Crash() })
		conn, err := a.Dial(Addr{"b", "svc"})
		if err != ErrHostDown {
			t.Errorf("Dial racing with local crash = %v, want ErrHostDown", err)
		}
		if conn != nil {
			t.Error("Dial racing with local crash returned a connection")
		}
		sim.Sleep(10 * time.Millisecond)
		net.mu.Lock()
		aConns, bConns := len(a.conns), len(b.conns)
		net.mu.Unlock()
		if aConns != 0 || bConns != 0 {
			t.Errorf("connections registered on swept hosts: a=%d b=%d, want 0", aConns, bConns)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// batchEcho runs one send-heavy scenario and returns the exact sequence of
// messages the server received plus the virtual time of the last delivery.
func batchEcho(t *testing.T, batch BatchOptions, sends int) ([]string, time.Duration) {
	t.Helper()
	sim := vtime.New()
	net := New(sim, UniformLatency(time.Millisecond))
	a, b := net.AddHost("a"), net.AddHost("b")
	net.SetBatching(batch)
	l, err := b.Listen("svc")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	var got []string
	var lastAt time.Duration
	done := vtime.NewChan[struct{}](sim, "done", 1)
	sim.GoDaemon("server", func() {
		conn, ok := l.Accept()
		if !ok {
			return
		}
		for {
			msg, err := conn.Recv()
			if err != nil {
				done.Send(struct{}{})
				return
			}
			got = append(got, string(msg))
			lastAt = sim.Now()
		}
	})
	err = sim.Run("client", func() {
		conn, err := a.Dial(Addr{"b", "svc"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		for i := 0; i < sends; i++ {
			if err := conn.Send([]byte(fmt.Sprintf("msg-%04d", i))); err != nil {
				t.Errorf("Send %d: %v", i, err)
			}
			if i%7 == 6 {
				sim.Sleep(50 * time.Microsecond) // spread sends across ticks
			}
		}
		sim.Sleep(time.Second)
		conn.Close()
		done.Recv()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	return got, lastAt
}

// TestBatchedDeliveryOrderAndDeterminism pins the two properties batching
// must not cost: the receiver sees exactly the unbatched message sequence
// (nothing lost, reordered, or duplicated), and a batched run is
// byte-identical across executions.
func TestBatchedDeliveryOrderAndDeterminism(t *testing.T) {
	const sends = 200
	batch := BatchOptions{MaxMsgs: 16, MaxBytes: 1 << 10, Delay: 200 * time.Microsecond}
	plain, _ := batchEcho(t, BatchOptions{}, sends)
	batched, at1 := batchEcho(t, batch, sends)
	again, at2 := batchEcho(t, batch, sends)

	if len(plain) != sends {
		t.Fatalf("unbatched run delivered %d of %d messages", len(plain), sends)
	}
	if len(batched) != sends {
		t.Fatalf("batched run delivered %d of %d messages", len(batched), sends)
	}
	for i := range plain {
		if plain[i] != batched[i] {
			t.Fatalf("message %d: batched %q != unbatched %q (order not preserved)", i, batched[i], plain[i])
		}
	}
	if at1 != at2 || len(batched) != len(again) {
		t.Fatalf("batched run not deterministic: lastAt %v vs %v, %d vs %d msgs", at1, at2, len(batched), len(again))
	}
	for i := range batched {
		if batched[i] != again[i] {
			t.Fatalf("message %d differs across identical batched runs: %q vs %q", i, batched[i], again[i])
		}
	}
}

// TestBatchFlushTriggers checks both flush paths: a full batch goes out
// immediately (no Delay wait), and a lone message waits exactly the batch
// delay before crossing the wire.
func TestBatchFlushTriggers(t *testing.T) {
	sim, net, a, b := testNet(t)
	const delay = 500 * time.Microsecond
	net.SetBatching(BatchOptions{MaxMsgs: 4, Delay: delay})
	l, err := b.Listen("svc")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	arrivals := vtime.NewChan[time.Duration](sim, "arrivals", 64)
	sim.GoDaemon("server", func() {
		conn, ok := l.Accept()
		if !ok {
			return
		}
		for {
			if _, err := conn.Recv(); err != nil {
				return
			}
			arrivals.Send(sim.Now())
		}
	})
	err = sim.Run("client", func() {
		conn, err := a.Dial(Addr{"b", "svc"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		// Four sends fill the batch: it must flush now, not after Delay.
		start := sim.Now()
		for i := 0; i < 4; i++ {
			conn.Send([]byte("x"))
		}
		for i := 0; i < 4; i++ {
			at, _ := arrivals.Recv()
			if want := start + time.Millisecond; at != want {
				t.Errorf("full-batch message %d arrived at %v, want %v (size flush must not wait)", i, at, want)
			}
		}
		// A lone send flushes on the timer: wire latency plus Delay.
		start = sim.Now()
		conn.Send([]byte("y"))
		at, _ := arrivals.Recv()
		if want := start + delay + time.Millisecond; at != want {
			t.Errorf("lone message arrived at %v, want %v (timer flush)", at, want)
		}
		conn.Close()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// TestCloseFlushesPendingBatch: messages coalesced but not yet flushed at
// close time must still be delivered, ahead of the FIN.
func TestCloseFlushesPendingBatch(t *testing.T) {
	sim, net, a, b := testNet(t)
	net.SetBatching(BatchOptions{MaxMsgs: 64, Delay: time.Millisecond})
	l, err := b.Listen("svc")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	got := vtime.NewChan[string](sim, "got", 8)
	sim.GoDaemon("server", func() {
		conn, ok := l.Accept()
		if !ok {
			return
		}
		for {
			msg, err := conn.Recv()
			if err != nil {
				got.Close()
				return
			}
			got.Send(string(msg))
		}
	})
	err = sim.Run("client", func() {
		conn, err := a.Dial(Addr{"b", "svc"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		for _, m := range []string{"one", "two", "three"} {
			conn.Send([]byte(m))
		}
		conn.Close() // batch still pending: close must flush it first
		for _, want := range []string{"one", "two", "three"} {
			msg, ok := got.Recv()
			if !ok || msg != want {
				t.Errorf("got %q (ok=%t), want %q delivered before the FIN", msg, ok, want)
			}
		}
		if _, ok := got.Recv(); ok {
			t.Error("unexpected extra message after the flushed batch")
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}
