package transport

import (
	"strings"
	"testing"
	"time"

	"cogrid/internal/obs"
	"cogrid/internal/trace"
)

// sumPrefix totals every counter whose name starts with prefix — per-conn
// counter names embed the connection establish time, so tests match on the
// directional prefix rather than reconstructing the full key.
func sumPrefix(ctrs *trace.Counters, prefix string) int64 {
	var total int64
	for _, cv := range ctrs.Snapshot() {
		if strings.HasPrefix(cv.Name, prefix) {
			total += cv.Value
		}
	}
	return total
}

// Per-connection counters must track sends, receives, and both drop paths
// (unreachable at send time, in-flight when the partition lands mid-hop).
func TestPerConnCountersUnderDrops(t *testing.T) {
	sim, net, a, b := testNet(t)
	tr := trace.New(sim)
	ctrs := trace.NewCounters()
	net.Attach(obs.Sinks{Tracer: tr, Counters: ctrs})

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
	err = sim.Run("client", func() {
		conn, err := a.Dial(Addr{"b", "svc"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		// Two delivered messages.
		conn.Send([]byte("hello"))
		conn.Send([]byte("world!"))
		sim.Sleep(10 * time.Millisecond)
		// Unreachable drop: partition is visible at send time.
		net.Partition("a", "b")
		conn.Send([]byte("xx"))
		sim.Sleep(10 * time.Millisecond)
		// In-flight drop: send passes the reachability check, then the
		// partition lands before the 1 ms hop completes.
		net.Heal("a", "b")
		conn.Send([]byte("yy"))
		net.Partition("a", "b")
		sim.Sleep(10 * time.Millisecond)
		conn.Close()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}

	// The unreachable message never reaches the wire, so send counts 3 of
	// the 4 attempts; only the first two arrive.
	clientPrefix := "transport.conn."
	checks := []struct {
		name string
		want int64
	}{
		{clientPrefix + "send@a:", 3},
		{clientPrefix + "sendbytes@a:", int64(len("hello") + len("world!") + len("yy"))},
		{clientPrefix + "drop@a:", 2},
		{clientPrefix + "recv@b:", 2},
		{clientPrefix + "recvbytes@b:", int64(len("hello") + len("world!"))},
	}
	for _, c := range checks {
		if got := sumPrefix(ctrs, c.name); got != c.want {
			t.Errorf("sum(%s*) = %d, want %d", c.name, got, c.want)
		}
	}
	if got := ctrs.Get(trace.Key("transport", "msgs", "drop", "a")); got != 2 {
		t.Errorf("transport.msgs.drop@a = %d, want 2", got)
	}

	// The trace must carry one hop span per wire send and one drop instant
	// per lost message, with distinct reasons for the two drop paths.
	hops := 0
	reasons := map[string]int{}
	for _, ev := range tr.Events() {
		if ev.Cat != "transport" {
			continue
		}
		switch ev.Name {
		case "hop":
			hops++
		case "drop":
			for _, arg := range ev.Args {
				if arg.Key == "reason" {
					reasons[arg.Val]++
				}
			}
		}
	}
	if hops != 3 {
		t.Errorf("hop spans = %d, want 3", hops)
	}
	if reasons["unreachable"] != 1 || reasons["in-flight"] != 1 {
		t.Errorf("drop reasons = %v, want one unreachable and one in-flight", reasons)
	}
}

// An unattached network hands out a zero telemetry bundle, and a counter
// increment through it builds no counter name: it allocates nothing.
func TestUnattachedCounterAddAllocatesNothing(t *testing.T) {
	_, net, a, _ := testNet(t)
	if o := net.Obs(); o == nil || *o != (obs.Sinks{}) {
		t.Fatalf("unattached Obs() = %+v, want a zero bundle", o)
	}
	host := a.Name()
	if n := testing.AllocsPerRun(100, func() {
		net.Obs().Counters.Add("transport", "msgs", "send", host, 1)
	}); n != 0 {
		t.Fatalf("unattached counter increment allocates %.1f times per call, want 0", n)
	}
}
