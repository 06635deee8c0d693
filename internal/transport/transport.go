// Package transport implements a simulated message network over the vtime
// kernel: named hosts, service listeners, reliable in-order connections
// with configurable latency, and failure injection (crash, hang,
// partition).
//
// The failure model distinguishes the two failure visibilities the paper
// cares about: a *crash* closes connections so peers get an explicit error,
// while a *hang* silently drops traffic so peers observe only lack of
// progress and must rely on timeouts.
package transport

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cogrid/internal/metrics"
	"cogrid/internal/obs"
	"cogrid/internal/trace"
	"cogrid/internal/vtime"
)

// Errors returned by transport operations.
var (
	ErrHostDown    = errors.New("transport: local host is down")
	ErrRefused     = errors.New("transport: connection refused")
	ErrDialTimeout = errors.New("transport: dial timed out")
	ErrClosed      = errors.New("transport: connection closed")
	ErrRecvTimeout = errors.New("transport: receive timed out")
)

// Addr names a service endpoint as host:service.
type Addr struct {
	Host    string
	Service string
}

func (a Addr) String() string { return a.Host + ":" + a.Service }

// ParseAddr splits "host:service" into an Addr.
func ParseAddr(s string) (Addr, error) {
	for i := 0; i < len(s); i++ {
		if s[i] == ':' {
			if i == 0 || i == len(s)-1 {
				break
			}
			return Addr{Host: s[:i], Service: s[i+1:]}, nil
		}
	}
	return Addr{}, fmt.Errorf("transport: malformed address %q", s)
}

// LatencyModel yields the one-way message latency between two hosts.
type LatencyModel interface {
	Latency(from, to string) time.Duration
}

// UniformLatency is a LatencyModel with a single inter-host latency and
// zero latency between co-located endpoints.
type UniformLatency time.Duration

// Latency implements LatencyModel.
func (u UniformLatency) Latency(from, to string) time.Duration {
	if from == to {
		return 0
	}
	return time.Duration(u)
}

// MatrixLatency is a LatencyModel with per-host-pair latencies. Pairs are
// symmetric; missing pairs fall back to Default.
type MatrixLatency struct {
	Default time.Duration
	mu      sync.Mutex
	pairs   map[[2]string]time.Duration
}

// NewMatrixLatency creates a MatrixLatency with the given fallback.
func NewMatrixLatency(def time.Duration) *MatrixLatency {
	return &MatrixLatency{Default: def, pairs: make(map[[2]string]time.Duration)}
}

// Set assigns the symmetric latency between hosts a and b.
func (m *MatrixLatency) Set(a, b string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pairs[pairKey(a, b)] = d
}

// Latency implements LatencyModel.
func (m *MatrixLatency) Latency(from, to string) time.Duration {
	if from == to {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if d, ok := m.pairs[pairKey(from, to)]; ok {
		return d
	}
	return m.Default
}

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// BatchOptions configures same-destination send coalescing. When enabled
// (Delay > 0), a connection's sends are gathered into a pending batch that
// is flushed onto the wire as one delivery either when it reaches MaxMsgs
// messages or MaxBytes payload bytes, or Delay of virtual time after its
// first message — whichever comes first. Batching preserves per-connection
// FIFO order and per-message drop/recv accounting; it reduces the number
// of delivery-pipeline operations (and so the simulator's per-message
// cost) at the price of up to Delay of added latency on lightly loaded
// connections.
type BatchOptions struct {
	// MaxMsgs flushes a batch when it holds this many messages
	// (default 32).
	MaxMsgs int
	// MaxBytes flushes a batch when it holds this many payload bytes
	// (default 64 KiB).
	MaxBytes int
	// Delay is the virtual-time flush tick: a batch never waits longer
	// than this after its first message. Zero disables batching.
	Delay time.Duration
}

func (o BatchOptions) enabled() bool { return o.Delay > 0 }

// SetBatching installs batch as the coalescing policy for connections
// created from now on; existing connections keep the policy they were
// created with. A zero Delay disables batching (the default).
func (n *Network) SetBatching(batch BatchOptions) {
	if batch.MaxMsgs <= 0 {
		batch.MaxMsgs = 32
	}
	if batch.MaxBytes <= 0 {
		batch.MaxBytes = 64 << 10
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.batch = batch
}

// hostState models the failure condition of a host.
type hostState int

const (
	hostUp hostState = iota
	hostCrashed
	hostHung
)

// Network is a simulated network of hosts.
type Network struct {
	sim     *vtime.Sim
	latency LatencyModel

	mu         sync.Mutex
	hosts      map[string]*Host
	partitions map[[2]string]bool
	batch      BatchOptions
	connSeq    uint64 // establishment order, for deterministic failure sweeps

	msgs  atomic.Int64
	bytes atomic.Int64

	obs atomic.Pointer[obs.Sinks] // never nil
}

// New creates a network on sim with the given latency model.
func New(sim *vtime.Sim, latency LatencyModel) *Network {
	n := &Network{
		sim:        sim,
		latency:    latency,
		hosts:      make(map[string]*Host),
		partitions: make(map[[2]string]bool),
	}
	n.obs.Store(&obs.Sinks{})
	return n
}

// Sim returns the kernel the network runs on.
func (n *Network) Sim() *vtime.Sim { return n.sim }

// Messages returns the total number of payload messages sent.
func (n *Network) Messages() int64 { return n.msgs.Load() }

// Bytes returns the total payload bytes sent.
func (n *Network) Bytes() int64 { return n.bytes.Load() }

// Attach installs the run's telemetry bundle. Every layer above (rpc,
// gram, lrm, duroc, broker, federation) reads it through Obs, so one
// attachment instruments the whole stack. Attach during setup, before
// building those layers: the DUROC controller, broker and federation read
// the bundle once, when they are built. Sinks left nil stay disabled;
// without any attachment every sink is nil and telemetry costs nothing
// beyond a nil check.
func (n *Network) Attach(s obs.Sinks) { n.obs.Store(&s) }

// Obs returns the attached telemetry bundle: never nil, and a zero bundle
// until Attach is called. The bundle is shared; do not modify it.
func (n *Network) Obs() *obs.Sinks { return n.obs.Load() }

// AddHost registers a host by name. Adding an existing name returns the
// existing host.
func (n *Network) AddHost(name string) *Host {
	n.mu.Lock()
	defer n.mu.Unlock()
	if h, ok := n.hosts[name]; ok {
		return h
	}
	h := &Host{
		net:       n,
		name:      name,
		listeners: make(map[string]*Listener),
		conns:     make(map[*Conn]struct{}),
	}
	n.hosts[name] = h
	return h
}

// Host returns the named host, or nil if it was never added.
func (n *Network) Host(name string) *Host {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.hosts[name]
}

// Partition severs connectivity between hosts a and b: packets in either
// direction are silently dropped and new dials time out.
func (n *Network) Partition(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitions[pairKey(a, b)] = true
}

// Heal restores connectivity between hosts a and b.
func (n *Network) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partitions, pairKey(a, b))
}

// Partitioned reports whether hosts a and b are partitioned.
func (n *Network) Partitioned(a, b string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.partitions[pairKey(a, b)]
}

// deliverable reports whether a packet sent now from one host would reach
// the other, considering partitions and remote failure state.
func (n *Network) deliverable(from, to string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.partitions[pairKey(from, to)] {
		return false
	}
	h, ok := n.hosts[to]
	return ok && h.state == hostUp
}

// Host is a simulated machine on the network.
type Host struct {
	net   *Network
	name  string
	state hostState

	listeners map[string]*Listener
	conns     map[*Conn]struct{}
}

// Name returns the host's name.
func (h *Host) Name() string { return h.name }

// Network returns the network the host belongs to.
func (h *Host) Network() *Network { return h.net }

// Up reports whether the host is neither crashed nor hung.
func (h *Host) Up() bool {
	h.net.mu.Lock()
	defer h.net.mu.Unlock()
	return h.state == hostUp
}

// Crash fails the host with detectable semantics: all its connections are
// closed (peers observe ErrClosed) and its listeners stop accepting.
func (h *Host) Crash() { h.fail(hostCrashed) }

// Hang fails the host silently: connections stay open but all traffic to
// and from it is dropped, so peers observe only lack of progress.
func (h *Host) Hang() {
	h.net.mu.Lock()
	defer h.net.mu.Unlock()
	if h.state == hostUp {
		h.state = hostHung
	}
}

func (h *Host) fail(to hostState) {
	h.net.mu.Lock()
	h.state = to
	conns := make([]*Conn, 0, len(h.conns))
	for c := range h.conns {
		conns = append(conns, c)
	}
	h.conns = make(map[*Conn]struct{})
	listeners := make([]*Listener, 0, len(h.listeners))
	for _, l := range h.listeners {
		listeners = append(listeners, l)
	}
	h.listeners = make(map[string]*Listener)
	h.net.mu.Unlock()
	// Close in establishment order, not map order: every Close wakes the
	// connection's blocked peers, and the wake sequence must be a function
	// of the seed, not of map iteration.
	sort.Slice(conns, func(i, j int) bool { return conns[i].estSeq < conns[j].estSeq })
	sort.Slice(listeners, func(i, j int) bool { return listeners[i].service < listeners[j].service })
	for _, c := range conns {
		c.Close()
	}
	for _, l := range listeners {
		l.close(false)
	}
}

// Restore brings a hung host back. A crashed host stays down: its
// listeners and connections are gone; re-create services explicitly after
// RestoreCrashed.
func (h *Host) Restore() {
	h.net.mu.Lock()
	defer h.net.mu.Unlock()
	if h.state == hostHung {
		h.state = hostUp
	}
}

// RestoreCrashed boots a crashed host back up with no listeners or
// connections.
func (h *Host) RestoreCrashed() {
	h.net.mu.Lock()
	defer h.net.mu.Unlock()
	h.state = hostUp
}

// Listen registers a service listener on the host.
func (h *Host) Listen(service string) (*Listener, error) {
	h.net.mu.Lock()
	defer h.net.mu.Unlock()
	if h.state != hostUp {
		return nil, ErrHostDown
	}
	if _, exists := h.listeners[service]; exists {
		return nil, fmt.Errorf("transport: service %q already listening on %s", service, h.name)
	}
	l := &Listener{
		host:    h,
		service: service,
		accept:  vtime.NewChan[*Conn](h.net.sim, "accept:"+h.name+":"+service, 64),
	}
	h.listeners[service] = l
	return l, nil
}

// DialTimeout is the default timeout for Dial attempts into a partition or
// a hung host.
const DialTimeout = 30 * time.Second

// Dial opens a connection from this host to a remote service. Connection
// establishment costs one round trip. Dialing a crashed host or a missing
// service is refused after one round trip; dialing through a partition or
// into a hung host times out after DialTimeout.
func (h *Host) Dial(to Addr) (*Conn, error) { return h.DialCtx(to, trace.Ctx{}) }

// DialCtx is Dial carrying a causal span context. The context becomes the
// connection's base context: handshake traffic and any context-less sends
// on the connection inherit it, and it disambiguates the connection's flow
// identifier (see newConnPair).
func (h *Host) DialCtx(to Addr, ctx trace.Ctx) (*Conn, error) {
	n := h.net
	n.mu.Lock()
	if h.state != hostUp {
		n.mu.Unlock()
		return nil, ErrHostDown
	}
	n.mu.Unlock()

	tr := n.Obs().Tracer
	oneWay := n.latency.Latency(h.name, to.Host)
	dialStart := n.sim.Now()
	// SYN retransmission: an unreachable peer (partition, crash, hang)
	// never answers, but the dialer keeps retrying within its timeout, so
	// a transient partition that heals mid-dial still connects.
	const synRetry = time.Second
	deadline := dialStart + DialTimeout
	for !n.deliverable(h.name, to.Host) {
		remaining := deadline - n.sim.Now()
		if remaining <= 0 {
			tr.SpanCtx(ctx.Child("dial"), "transport", "dial", h.name, to.String(), "", dialStart,
				trace.Arg{Key: "outcome", Val: "timeout"})
			return nil, ErrDialTimeout
		}
		if remaining < synRetry {
			n.sim.Sleep(remaining)
		} else {
			n.sim.Sleep(synRetry)
		}
	}
	n.sim.Sleep(oneWay) // SYN

	n.mu.Lock()
	// Re-check the local host under the same lock that registers the conn
	// pair: the host may have crashed or hung during the SYN sleep, and its
	// sweep already ran. Registering now would attach live connections to a
	// swept host — they would never be closed by a later failure.
	if h.state != hostUp {
		n.mu.Unlock()
		tr.SpanCtx(ctx.Child("dial"), "transport", "dial", h.name, to.String(), "", dialStart,
			trace.Arg{Key: "outcome", Val: "local-down"})
		return nil, ErrHostDown
	}
	remote, ok := n.hosts[to.Host]
	var l *Listener
	if ok && remote.state == hostUp {
		l = remote.listeners[to.Service]
	}
	refused := l == nil
	var client, server *Conn
	if !refused {
		client, server = newConnPair(n, Addr{h.name, "client"}, to, ctx)
		h.conns[client] = struct{}{}
		remote.conns[server] = struct{}{}
	}
	n.mu.Unlock()

	n.sim.Sleep(oneWay) // SYN-ACK
	if refused {
		tr.SpanCtx(ctx.Child("dial"), "transport", "dial", h.name, to.String(), "", dialStart,
			trace.Arg{Key: "outcome", Val: "refused"})
		return nil, ErrRefused
	}
	if !l.accept.TrySend(server) {
		// Accept backlog full: refuse.
		client.Close()
		tr.SpanCtx(ctx.Child("dial"), "transport", "dial", h.name, to.String(), "", dialStart,
			trace.Arg{Key: "outcome", Val: "backlog-full"})
		return nil, ErrRefused
	}
	tr.SpanCtx(ctx.Child("dial"), "transport", "dial", h.name, to.String(), client.flow, dialStart,
		trace.Arg{Key: "outcome", Val: "ok"})
	return client, nil
}

// Listener accepts inbound connections for one service.
type Listener struct {
	host    *Host
	service string
	accept  *vtime.Chan[*Conn]
	mu      sync.Mutex
	closed  bool
}

// Addr returns the listener's address.
func (l *Listener) Addr() Addr { return Addr{Host: l.host.name, Service: l.service} }

// Accept blocks until a connection arrives; ok is false once the listener
// is closed.
func (l *Listener) Accept() (*Conn, bool) {
	return l.accept.Recv()
}

// Close stops the listener and deregisters the service.
func (l *Listener) Close() { l.close(true) }

func (l *Listener) close(deregister bool) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.mu.Unlock()
	if deregister {
		l.host.net.mu.Lock()
		if l.host.listeners[l.service] == l {
			delete(l.host.listeners, l.service)
		}
		l.host.net.mu.Unlock()
	}
	l.accept.Close()
}

// pendingMsg is one coalesced send awaiting batch flush.
type pendingMsg struct {
	payload []byte
	sentAt  time.Duration
	// ctx is the causal context of the send, stamped on the matching recv
	// or drop event at the far end of the wire.
	ctx trace.Ctx
}

// outMsg is an entry in a connection's delivery pipeline: a single
// payload, a coalesced batch, or a FIN.
type outMsg struct {
	payload   []byte
	batch     []pendingMsg
	sentAt    time.Duration
	deliverAt time.Duration
	fin       bool
	ctx       trace.Ctx
}

// Conn is one end of a reliable, in-order, message-oriented connection.
type Conn struct {
	net    *Network
	estSeq uint64 // establishment order; failure sweeps close in this order
	local  Addr
	remote Addr
	in     *vtime.Chan[[]byte]
	out    *vtime.Chan[outMsg]
	peer   *Conn

	// flow identifies the connection pair (client=>server@establish-time);
	// both ends share it, so it correlates trace events across the two
	// hosts. dirFlow is this end's directional name (local->remote@t).
	flow    string
	dirFlow string
	// ctx is the base causal context the connection was dialed under;
	// both ends share it. Context-less sends inherit it.
	ctx trace.Ctx
	// Per-connection counter handles, nil when no registry is attached.
	cSend, cSendBytes, cRecv, cRecvBytes, cDrop *trace.Counter
	// Cached histogram handles (shared network-wide, not per-connection, to
	// bound cardinality), nil when no registry is attached.
	hBytes, hDelay, hBatch *metrics.Histogram

	// batch is the coalescing policy this connection was created under;
	// flushSig wakes the flusher daemon when a batch opens.
	batch    BatchOptions
	flushSig *vtime.Chan[struct{}]

	mu        sync.Mutex
	closed    bool
	pend      []pendingMsg
	pendBytes int
}

// Flow returns the connection-pair identifier shared by both ends: the
// client and server addresses plus the establishment time in microseconds.
// Layers above use it to build correlation IDs that match across hosts.
func (c *Conn) Flow() string { return c.flow }

// Network returns the network the connection runs on. Layers above use it
// to reach the attached telemetry bundle (Network.Obs).
func (c *Conn) Network() *Network { return c.net }

// Ctx returns the base causal context the connection was dialed under
// (zero for context-less dials). Both ends share it.
func (c *Conn) Ctx() trace.Ctx { return c.ctx }

// newConnPair builds both ends of a connection along with their delivery
// daemons. Caller holds n.mu.
//
// The flow identifier is client=>server@establish-time; two dials between
// the same host pair in the same microsecond would collide, so when a dial
// carries a causal context a short hash of it is appended — the contexts
// of simultaneous dials differ, keeping flows (and the correlation IDs
// layered on them) unique per connection.
func newConnPair(n *Network, clientAddr, serverAddr Addr, ctx trace.Ctx) (client, server *Conn) {
	ts := strconv.FormatInt(int64(n.sim.Now()/time.Microsecond), 10)
	flow := clientAddr.String() + "=>" + serverAddr.String() + "@" + ts
	if ctx.Valid() {
		h := fnv.New32a()
		h.Write([]byte(ctx.Req))
		h.Write([]byte{0})
		h.Write([]byte(ctx.Span))
		flow += "~" + strconv.FormatUint(uint64(h.Sum32()), 16)
	}
	o := n.Obs()
	ctrs := o.Counters
	mk := func(local, remote Addr) *Conn {
		tag := local.String() + "->" + remote.String()
		n.connSeq++
		c := &Conn{
			net:     n,
			estSeq:  n.connSeq,
			local:   local,
			remote:  remote,
			flow:    flow,
			ctx:     ctx,
			dirFlow: tag + "@" + ts,
			in:      vtime.NewChan[[]byte](n.sim, "in:"+tag, 4096),
			out:     vtime.NewChan[outMsg](n.sim, "out:"+tag, 4096),
			batch:   n.batch,
		}
		if c.batch.enabled() {
			c.flushSig = vtime.NewChan[struct{}](n.sim, "flush:"+tag, 1)
		}
		if ctrs != nil {
			c.cSend = ctrs.C(trace.Key("transport", "conn", "send", c.dirFlow))
			c.cSendBytes = ctrs.C(trace.Key("transport", "conn", "sendbytes", c.dirFlow))
			c.cRecv = ctrs.C(trace.Key("transport", "conn", "recv", c.dirFlow))
			c.cRecvBytes = ctrs.C(trace.Key("transport", "conn", "recvbytes", c.dirFlow))
			c.cDrop = ctrs.C(trace.Key("transport", "conn", "drop", c.dirFlow))
		}
		if hs := o.Hists; hs != nil {
			c.hBytes = hs.H("transport.msg.bytes")
			c.hDelay = hs.H("transport.msg.delay")
			if c.batch.enabled() {
				c.hBatch = hs.H("transport.batch.msgs")
			}
		}
		return c
	}
	client = mk(clientAddr, serverAddr)
	server = mk(serverAddr, clientAddr)
	client.peer = server
	server.peer = client
	n.sim.GoDaemon("deliver:"+clientAddr.String(), client.deliverLoop)
	n.sim.GoDaemon("deliver:"+serverAddr.String(), server.deliverLoop)
	if client.batch.enabled() {
		n.sim.GoDaemon("flush:"+clientAddr.String(), client.flushLoop)
		n.sim.GoDaemon("flush:"+serverAddr.String(), server.flushLoop)
	}
	return client, server
}

// deliverLoop moves messages from this end's out queue into the peer's
// inbox after the appropriate latency, preserving FIFO order.
func (c *Conn) deliverLoop() {
	for {
		m, ok := c.out.Recv()
		if !ok {
			return
		}
		c.net.sim.SleepUntil(m.deliverAt)
		if m.fin {
			c.peer.markClosed()
			return
		}
		// Reachability is evaluated once per delivery (per batch): a batch
		// crosses the wire as one unit.
		deliverable := c.net.deliverable(c.local.Host, c.remote.Host)
		if m.batch != nil {
			for _, p := range m.batch {
				c.deliver(p.payload, p.sentAt, p.ctx, deliverable)
			}
			continue
		}
		c.deliver(m.payload, m.sentAt, m.ctx, deliverable)
	}
}

// deliver lands one payload in the peer's inbox (or accounts for its
// loss), recording per-message delay, counters, and the recv trace event.
func (c *Conn) deliver(payload []byte, sentAt time.Duration, ctx trace.Ctx, deliverable bool) {
	if !deliverable {
		c.dropped(len(payload), "in-flight", ctx)
		return
	}
	if !c.peer.in.TrySend(payload) { // inbox overflow drops, like UDP under DoS
		c.dropped(len(payload), "overflow", ctx)
		return
	}
	// Enqueue-to-delivery virtual delay: wire latency plus any FIFO
	// backlog (and batch coalescing time) behind earlier messages on this
	// connection.
	c.hDelay.Record(int64(c.net.sim.Now() - sentAt))
	c.peer.cRecv.Add(1)
	c.peer.cRecvBytes.Add(int64(len(payload)))
	o := c.net.Obs()
	o.Counters.Add("transport", "msgs", "recv", c.remote.Host, 1)
	o.Counters.Add("transport", "bytes", "recv", c.remote.Host, int64(len(payload)))
	o.Tracer.InstantCtx(ctx, "transport", "recv", c.remote.Host, c.peer.dirFlow, c.flow,
		trace.Arg{Key: "bytes", Val: strconv.Itoa(len(payload))})
}

// dropped accounts for a message lost on this end's send path: the
// per-conn counter, per-host and per-reason registry counters, the
// network-wide drop gauge the SLO engine windows over, and a trace
// instant carrying the reason. "conn-closed" is excluded from the SLO
// gauge — losing a message to a connection the application itself is
// tearing down is a normal shutdown race, not wire loss.
func (c *Conn) dropped(size int, reason string, ctx trace.Ctx) {
	c.cDrop.Add(1)
	o := c.net.Obs()
	o.Counters.Add("transport", "msgs", "drop", c.local.Host, 1)
	o.Counters.Add("transport", "drop", reason, c.local.Host, 1)
	if reason != "conn-closed" {
		o.Gauges.G("transport.drops").Add(1)
	}
	o.Tracer.InstantCtx(ctx, "transport", "drop", c.local.Host, c.dirFlow, c.flow,
		trace.Arg{Key: "bytes", Val: strconv.Itoa(size)},
		trace.Arg{Key: "reason", Val: reason})
}

// LocalAddr returns this end's address.
func (c *Conn) LocalAddr() Addr { return c.local }

// RemoteAddr returns the peer's address.
func (c *Conn) RemoteAddr() Addr { return c.remote }

// Send transmits payload to the peer. It fails if the connection is closed
// or the local host is down; a partition or remote failure silently drops
// the message instead (the peer sees lack of progress, not an error).
func (c *Conn) Send(payload []byte) error { return c.SendCtx(payload, c.ctx) }

// SendCtx is Send carrying the causal context of this message: the hop
// span and the far end's recv (or drop) event are stamped into that
// request's tree. A zero context falls back to the connection's base
// context.
func (c *Conn) SendCtx(payload []byte, ctx trace.Ctx) error {
	if !ctx.Valid() {
		ctx = c.ctx
	}
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	n := c.net
	n.mu.Lock()
	h := n.hosts[c.local.Host]
	localUp := h != nil && h.state == hostUp
	n.mu.Unlock()
	if !localUp {
		return ErrHostDown
	}
	if !n.deliverable(c.local.Host, c.remote.Host) {
		c.dropped(len(payload), "unreachable", ctx)
		return nil // silently dropped
	}
	n.msgs.Add(1)
	n.bytes.Add(int64(len(payload)))
	c.cSend.Add(1)
	c.cSendBytes.Add(int64(len(payload)))
	o := n.Obs()
	o.Counters.Add("transport", "msgs", "send", c.local.Host, 1)
	o.Counters.Add("transport", "bytes", "send", c.local.Host, int64(len(payload)))
	c.hBytes.Record(int64(len(payload)))
	now := n.sim.Now()
	oneWay := n.latency.Latency(c.local.Host, c.remote.Host)
	buf := make([]byte, len(payload))
	copy(buf, payload)
	if c.batch.enabled() {
		c.appendBatch(buf, ctx, now)
		return nil
	}
	// One hop span per send, covering the wire time to the peer.
	o.Tracer.SpanAtCtx(ctx.Child("hop"), "transport", "hop", c.local.Host, c.dirFlow, c.flow, now, now+oneWay,
		trace.Arg{Key: "bytes", Val: strconv.Itoa(len(payload))},
		trace.Arg{Key: "to", Val: c.remote.String()})
	if !c.enqueue(outMsg{payload: buf, sentAt: now, deliverAt: now + oneWay, ctx: ctx}) {
		// The delivery queue is saturated (extreme overload) or the send
		// raced with a close. Either way the message is lost here, and the
		// loss must be accounted: everything above already counted it as
		// sent, so silence would leave send-minus-recv unexplained.
		c.dropped(len(buf), "sendq-full", ctx)
	}
	return nil
}

// enqueue places m in the delivery pipeline. Data and batch entries leave
// one slot of slack so the FIN enqueued by Close always has room — that
// slack is what keeps close detectable under overload. Returns false when
// the pipeline is saturated or the connection raced with a close.
func (c *Conn) enqueue(m outMsg) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.enqueueLocked(m)
}

func (c *Conn) enqueueLocked(m outMsg) bool {
	if !m.fin && c.out.Len() >= c.out.Cap()-1 {
		return false
	}
	return c.out.TrySend(m)
}

// appendBatch coalesces one send into the connection's pending batch,
// flushing inline when the batch reaches a size threshold and arming the
// flush timer when a batch opens.
func (c *Conn) appendBatch(payload []byte, ctx trace.Ctx, now time.Duration) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.dropped(len(payload), "conn-closed", ctx)
		return
	}
	first := len(c.pend) == 0
	c.pend = append(c.pend, pendingMsg{payload: payload, sentAt: now, ctx: ctx})
	c.pendBytes += len(payload)
	full := len(c.pend) >= c.batch.MaxMsgs || c.pendBytes >= c.batch.MaxBytes
	if full {
		c.flushLocked()
	}
	c.mu.Unlock()
	if first && !full {
		// Capacity 1: if the timer is already armed the signal is
		// redundant, and if the connection just closed TrySend is a no-op.
		c.flushSig.TrySend(struct{}{})
	}
}

// flushLocked moves the pending batch into the delivery pipeline as one
// unit. Caller holds c.mu; the swap-and-enqueue is atomic under it, which
// is what keeps batches in per-connection FIFO order.
func (c *Conn) flushLocked() {
	if len(c.pend) == 0 {
		return
	}
	batch := c.pend
	c.pend = nil
	c.pendBytes = 0
	n := c.net
	now := n.sim.Now()
	oneWay := n.latency.Latency(c.local.Host, c.remote.Host)
	if !c.enqueueLocked(outMsg{batch: batch, sentAt: now, deliverAt: now + oneWay}) {
		for _, p := range batch {
			c.dropped(len(p.payload), "sendq-full", p.ctx)
		}
		return
	}
	c.hBatch.Record(int64(len(batch)))
	// One hop span per coalesced message, from its send time to the
	// batch's delivery time: the span length includes the coalescing wait,
	// so traces show the latency cost of batching, not just the wire time.
	tr := n.Obs().Tracer
	for _, p := range batch {
		tr.SpanAtCtx(p.ctx.Child("hop"), "transport", "hop", c.local.Host, c.dirFlow, c.flow, p.sentAt, now+oneWay,
			trace.Arg{Key: "bytes", Val: strconv.Itoa(len(p.payload))},
			trace.Arg{Key: "to", Val: c.remote.String()})
	}
}

// flushLoop is the connection's batch-flush daemon: each time a batch
// opens it sleeps the batch delay, then flushes whatever is pending.
func (c *Conn) flushLoop() {
	for {
		if _, ok := c.flushSig.Recv(); !ok {
			return
		}
		c.net.sim.Sleep(c.batch.Delay)
		c.mu.Lock()
		c.flushLocked()
		c.mu.Unlock()
	}
}

// Recv blocks until a message arrives. It returns ErrClosed once the
// connection is closed and drained.
func (c *Conn) Recv() ([]byte, error) {
	b, ok := c.in.Recv()
	if !ok {
		return nil, ErrClosed
	}
	return b, nil
}

// RecvTimeout blocks until a message arrives or d of virtual time elapses.
func (c *Conn) RecvTimeout(d time.Duration) ([]byte, error) {
	b, res := c.in.RecvTimeout(d)
	switch res {
	case vtime.RecvOK:
		return b, nil
	case vtime.RecvClosed:
		return nil, ErrClosed
	default:
		return nil, ErrRecvTimeout
	}
}

// Close closes this end immediately and, after one-way latency, the peer's
// end (the peer drains buffered messages first). Closing twice is a no-op.
func (c *Conn) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.flushLocked() // the last pending batch rides out ahead of the FIN
	c.mu.Unlock()

	n := c.net
	n.mu.Lock()
	if h := n.hosts[c.local.Host]; h != nil {
		delete(h.conns, c)
	}
	n.mu.Unlock()

	c.in.Close()
	deliverAt := n.sim.Now() + n.latency.Latency(c.local.Host, c.remote.Host)
	// The FIN must not be lost under overload: data sends leave one slot of
	// slack in the delivery queue (see enqueue), so this TrySend has room
	// even when the pipeline is saturated. If the slot is somehow gone, a
	// fallback daemon closes the peer directly after the wire latency — the
	// peer must observe ErrClosed, never hang until its receive timeout.
	if !c.out.TrySend(outMsg{deliverAt: deliverAt, fin: true}) {
		peer := c.peer
		n.sim.GoDaemon("fin:"+c.local.String(), func() {
			n.sim.SleepUntil(deliverAt)
			peer.markClosed()
		})
	}
	if c.flushSig != nil {
		c.flushSig.Close()
	}
	c.out.Close()
}

// markClosed closes the receive side in response to a peer FIN.
func (c *Conn) markClosed() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	n := c.net
	n.mu.Lock()
	if h := n.hosts[c.local.Host]; h != nil {
		delete(h.conns, c)
	}
	n.mu.Unlock()
	c.in.Close()
	if c.flushSig != nil {
		c.flushSig.Close()
	}
	c.out.Close()
}
