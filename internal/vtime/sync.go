package vtime

import "time"

// WaitGroup is a simulated analogue of sync.WaitGroup: Wait blocks in
// virtual time until the counter reaches zero.
type WaitGroup struct {
	s       *Sim
	count   int
	waiters []*wgWaiter
}

type wgWaiter struct {
	p     *proc
	state int
	timer *timerEntry
}

// NewWaitGroup creates a WaitGroup bound to s.
func NewWaitGroup(s *Sim) *WaitGroup { return &WaitGroup{s: s} }

// Add adds delta (which may be negative) to the counter. If the counter
// reaches zero, all blocked Wait calls are released. A negative counter
// panics.
func (wg *WaitGroup) Add(delta int) {
	s := wg.s
	s.mu.Lock()
	wg.count += delta
	if wg.count < 0 {
		s.mu.Unlock()
		panic("vtime: negative WaitGroup counter")
	}
	if wg.count == 0 {
		wg.releaseLocked()
	}
	s.mu.Unlock()
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Count returns the current counter value.
func (wg *WaitGroup) Count() int {
	wg.s.mu.Lock()
	defer wg.s.mu.Unlock()
	return wg.count
}

// Wait blocks in virtual time until the counter is zero.
func (wg *WaitGroup) Wait() { wg.wait(-1) }

// WaitTimeout blocks until the counter is zero or d of virtual time has
// elapsed; it reports whether the counter reached zero.
func (wg *WaitGroup) WaitTimeout(d time.Duration) bool {
	if d < 0 {
		panic("vtime: negative WaitGroup timeout")
	}
	return wg.wait(d)
}

func (wg *WaitGroup) wait(d time.Duration) bool {
	s := wg.s
	s.mu.Lock()
	if s.completed {
		s.mu.Unlock()
		parkForever()
	}
	if wg.count == 0 {
		s.mu.Unlock()
		return true
	}
	if d == 0 {
		s.mu.Unlock()
		return false
	}
	w := &wgWaiter{p: s.cur}
	if d > 0 {
		w.timer = s.pushTimerLocked(s.now+d, func() {
			if w.state != wsWaiting {
				return
			}
			w.state = wsTimedOut
			s.wakeLocked(w.p)
		})
	}
	wg.waiters = append(wg.waiters, w)
	s.blockLocked(waitWaitGroup, "", 0)
	return w.state == wsDelivered
}

func (wg *WaitGroup) releaseLocked() {
	for _, w := range wg.waiters {
		if w.state != wsWaiting {
			continue
		}
		w.state = wsDelivered
		if w.timer != nil {
			wg.s.cancelTimerLocked(w.timer)
		}
		wg.s.wakeLocked(w.p)
	}
	wg.waiters = nil
}

// Event is a one-shot broadcast flag: Wait blocks in virtual time until Set
// is called. Once set, an Event stays set. It is useful for cancellation
// and shutdown signals.
type Event struct {
	s       *Sim
	name    string
	set     bool
	waiters []*wgWaiter
}

// NewEvent creates an unset Event. The name appears in deadlock reports.
func NewEvent(s *Sim, name string) *Event { return &Event{s: s, name: name} }

// Set sets the event, releasing all current and future Wait calls. Setting
// an already-set event is a no-op.
func (e *Event) Set() {
	s := e.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.set {
		return
	}
	e.set = true
	for _, w := range e.waiters {
		if w.state != wsWaiting {
			continue
		}
		w.state = wsDelivered
		if w.timer != nil {
			s.cancelTimerLocked(w.timer)
		}
		s.wakeLocked(w.p)
	}
	e.waiters = nil
}

// IsSet reports whether the event has been set.
func (e *Event) IsSet() bool {
	e.s.mu.Lock()
	defer e.s.mu.Unlock()
	return e.set
}

// Wait blocks in virtual time until the event is set.
func (e *Event) Wait() { e.wait(-1) }

// WaitTimeout blocks until the event is set or d of virtual time has
// elapsed; it reports whether the event was set.
func (e *Event) WaitTimeout(d time.Duration) bool {
	if d < 0 {
		panic("vtime: negative Event timeout")
	}
	return e.wait(d)
}

func (e *Event) wait(d time.Duration) bool {
	s := e.s
	s.mu.Lock()
	if s.completed {
		s.mu.Unlock()
		parkForever()
	}
	if e.set {
		s.mu.Unlock()
		return true
	}
	if d == 0 {
		s.mu.Unlock()
		return false
	}
	w := &wgWaiter{p: s.cur}
	if d > 0 {
		w.timer = s.pushTimerLocked(s.now+d, func() {
			if w.state != wsWaiting {
				return
			}
			w.state = wsTimedOut
			s.wakeLocked(w.p)
		})
	}
	e.waiters = append(e.waiters, w)
	s.blockLocked(waitEvent, e.name, 0)
	return w.state == wsDelivered
}
