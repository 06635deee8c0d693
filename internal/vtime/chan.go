package vtime

import "time"

// RecvResult classifies the outcome of a channel receive with timeout.
type RecvResult int

const (
	// RecvOK means a value was received.
	RecvOK RecvResult = iota
	// RecvClosed means the channel was closed and drained.
	RecvClosed
	// RecvTimedOut means the timeout expired before a value arrived.
	RecvTimedOut
)

func (r RecvResult) String() string {
	switch r {
	case RecvOK:
		return "ok"
	case RecvClosed:
		return "closed"
	case RecvTimedOut:
		return "timeout"
	}
	return "invalid"
}

const (
	wsWaiting = iota
	wsDelivered
	wsClosed
	wsTimedOut
)

type recvWaiter[T any] struct {
	p     *proc
	val   T
	state int
	timer *timerEntry
}

type sendWaiter[T any] struct {
	p     *proc
	val   T
	state int
}

// Chan is a simulated channel. Operations have Go channel semantics
// (rendezvous when unbuffered, FIFO buffering otherwise, close wakes
// receivers), but blocking is accounted by the kernel so that virtual time
// can advance while processes wait.
type Chan[T any] struct {
	s      *Sim
	name   string
	buf    []T
	cap    int
	recvq  []*recvWaiter[T]
	sendq  []*sendWaiter[T]
	closed bool
}

// NewChan creates a simulated channel with the given buffer capacity
// (0 for a rendezvous channel). The name appears in deadlock reports.
func NewChan[T any](s *Sim, name string, capacity int) *Chan[T] {
	if capacity < 0 {
		panic("vtime: negative channel capacity")
	}
	return &Chan[T]{s: s, name: name, cap: capacity}
}

// Send delivers v, blocking in virtual time until a receiver or buffer
// space is available. Sending on a closed channel panics, as with Go
// channels.
func (c *Chan[T]) Send(v T) {
	s := c.s
	s.mu.Lock()
	if s.completed {
		s.mu.Unlock()
		parkForever()
	}
	if c.closed {
		s.mu.Unlock()
		panic("vtime: send on closed channel " + c.name)
	}
	if w := c.popRecvLocked(); w != nil {
		w.val = v
		w.state = wsDelivered
		if w.timer != nil {
			s.cancelTimerLocked(w.timer)
		}
		s.wakeLocked(w.p)
		s.mu.Unlock()
		return
	}
	if len(c.buf) < c.cap {
		c.buf = append(c.buf, v)
		s.mu.Unlock()
		return
	}
	sw := &sendWaiter[T]{p: s.cur, val: v}
	c.sendq = append(c.sendq, sw)
	s.blockLocked(waitSend, c.name, 0)
	if sw.state == wsClosed {
		panic("vtime: send on closed channel " + c.name)
	}
}

// TrySend delivers v without blocking; it reports whether the value was
// accepted. TrySend on a closed channel returns false.
func (c *Chan[T]) TrySend(v T) bool {
	s := c.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.closed {
		return false
	}
	if w := c.popRecvLocked(); w != nil {
		w.val = v
		w.state = wsDelivered
		if w.timer != nil {
			s.cancelTimerLocked(w.timer)
		}
		s.wakeLocked(w.p)
		return true
	}
	if len(c.buf) < c.cap {
		c.buf = append(c.buf, v)
		return true
	}
	return false
}

// Recv receives a value, blocking in virtual time until one is available.
// ok is false if the channel is closed and drained.
func (c *Chan[T]) Recv() (v T, ok bool) {
	v, res := c.recv(-1)
	return v, res == RecvOK
}

// RecvTimeout receives a value, giving up after d of virtual time.
func (c *Chan[T]) RecvTimeout(d time.Duration) (v T, res RecvResult) {
	if d < 0 {
		panic("vtime: negative receive timeout")
	}
	return c.recv(d)
}

// recv implements Recv (d < 0 means no timeout) and RecvTimeout.
func (c *Chan[T]) recv(d time.Duration) (v T, res RecvResult) {
	s := c.s
	s.mu.Lock()
	if s.completed {
		s.mu.Unlock()
		parkForever()
	}
	if len(c.buf) > 0 {
		v = c.buf[0]
		c.buf[0] = *new(T)
		c.buf = c.buf[1:]
		if w := c.popSendLocked(); w != nil {
			c.buf = append(c.buf, w.val)
			w.state = wsDelivered
			s.wakeLocked(w.p)
		}
		s.mu.Unlock()
		return v, RecvOK
	}
	if w := c.popSendLocked(); w != nil {
		// Unbuffered rendezvous: take the value directly from the sender.
		v = w.val
		w.state = wsDelivered
		s.wakeLocked(w.p)
		s.mu.Unlock()
		return v, RecvOK
	}
	if c.closed {
		s.mu.Unlock()
		return v, RecvClosed
	}
	if d == 0 {
		s.mu.Unlock()
		return v, RecvTimedOut
	}
	rw := &recvWaiter[T]{p: s.cur}
	if d > 0 {
		rw.timer = s.pushTimerLocked(s.now+d, func() {
			if rw.state != wsWaiting {
				return
			}
			rw.state = wsTimedOut
			s.wakeLocked(rw.p)
		})
	}
	c.recvq = append(c.recvq, rw)
	s.blockLocked(waitRecv, c.name, 0)
	switch rw.state {
	case wsDelivered:
		return rw.val, RecvOK
	case wsClosed:
		return v, RecvClosed
	default:
		return v, RecvTimedOut
	}
}

// TryRecv receives a value without blocking; ok is false if no value is
// immediately available (including when the channel is closed and drained).
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	v, res := c.recv(0)
	return v, res == RecvOK
}

// Close closes the channel. Blocked receivers wake with a closed result;
// blocked senders panic, as with Go channels. Closing twice panics.
func (c *Chan[T]) Close() {
	s := c.s
	s.mu.Lock()
	if c.closed {
		s.mu.Unlock()
		panic("vtime: close of closed channel " + c.name)
	}
	c.closed = true
	for _, w := range c.recvq {
		if w.state != wsWaiting {
			continue
		}
		w.state = wsClosed
		if w.timer != nil {
			s.cancelTimerLocked(w.timer)
		}
		s.wakeLocked(w.p)
	}
	c.recvq = nil
	for _, w := range c.sendq {
		if w.state != wsWaiting {
			continue
		}
		w.state = wsClosed
		s.wakeLocked(w.p)
	}
	c.sendq = nil
	s.mu.Unlock()
}

// IsClosed reports whether the channel has been closed.
func (c *Chan[T]) IsClosed() bool {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.closed
}

// Len returns the number of buffered values.
func (c *Chan[T]) Len() int {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return len(c.buf)
}

// Cap returns the buffer capacity.
func (c *Chan[T]) Cap() int { return c.cap }

// popRecvLocked removes and returns the first receiver still waiting.
func (c *Chan[T]) popRecvLocked() *recvWaiter[T] {
	for len(c.recvq) > 0 {
		w := c.recvq[0]
		c.recvq = c.recvq[1:]
		if w.state == wsWaiting {
			return w
		}
	}
	return nil
}

// popSendLocked removes and returns the first sender still waiting.
func (c *Chan[T]) popSendLocked() *sendWaiter[T] {
	for len(c.sendq) > 0 {
		w := c.sendq[0]
		c.sendq = c.sendq[1:]
		if w.state == wsWaiting {
			return w
		}
	}
	return nil
}
