package vtime

import (
	"fmt"
	"sort"
	"time"
)

type waitKind uint8

const (
	waitSleep waitKind = iota
	waitSend
	waitRecv
	waitWaitGroup
	waitEvent
)

// proc is the kernel's record of one simulated process. The kernel always
// knows the record of the run-token holder (Sim.cur), so blocking
// primitives record their wait here and keep no table of their own, and
// every block reuses the same grant channel.
type proc struct {
	// grant receives the run token. It is buffered so that granting never
	// blocks, even when the receiver has not parked yet or is the
	// goroutine doing the granting (a blocked process that runs a passive
	// batch can be woken by it).
	grant chan struct{}

	// The current wait, for deadlock reports. seq is the Sim's block
	// sequence number at the time of blocking, 0 while not blocked.
	seq      uint64
	kind     waitKind
	name     string
	deadline time.Duration
	since    time.Duration

	prev, next *proc // the Sim's list of live processes
}

func (p *proc) describe() string {
	switch p.kind {
	case waitSleep:
		return fmt.Sprintf("sleep until t=%v (since t=%v)", p.deadline, p.since)
	case waitSend:
		return fmt.Sprintf("send on %s (since t=%v)", p.name, p.since)
	case waitRecv:
		return fmt.Sprintf("recv on %s (since t=%v)", p.name, p.since)
	case waitWaitGroup:
		return fmt.Sprintf("waitgroup wait (since t=%v)", p.since)
	default:
		return fmt.Sprintf("event %s (since t=%v)", p.name, p.since)
	}
}

// newProcLocked creates a process record and links it into the live list.
// Must be called with s.mu held.
func (s *Sim) newProcLocked() *proc {
	p := &proc{grant: make(chan struct{}, 1), next: s.live}
	if s.live != nil {
		s.live.prev = p
	}
	s.live = p
	return p
}

// unlinkLocked removes an exited process from the live list. It clears the
// record's own links too: a cancelled timeout timer still queued can keep
// a dead record reachable, and stale links would keep every record it
// once pointed at alive with it. Must be called with s.mu held.
func (s *Sim) unlinkLocked(p *proc) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		s.live = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	}
	p.prev, p.next = nil, nil
}

// blockLocked records the token holder's wait, gives up the run token,
// releases s.mu and parks until the process is granted the token again.
// Must be called with s.mu held by a simulated process; it returns with
// s.mu released.
func (s *Sim) blockLocked(kind waitKind, name string, deadline time.Duration) {
	p := s.cur
	if p == nil {
		// Only a passive batch holds the token without a process record.
		s.mu.Unlock()
		panic("vtime: passive timer callback blocked on a kernel primitive")
	}
	s.blockSeq++
	p.seq, p.kind, p.name, p.deadline, p.since = s.blockSeq, kind, name, deadline, s.now
	s.runnable--
	s.yieldLocked()
	s.releaseLocked()
	s.mu.Unlock()
	<-p.grant
}

// wakeLocked makes one blocked process runnable and queues it for the run
// token. Must be called with s.mu held.
func (s *Sim) wakeLocked(p *proc) {
	p.seq = 0
	s.runnable++
	s.readyLocked(p)
}

// blockedLocked describes every blocked live process in block order, for
// deadlock reports. Must be called with s.mu held.
func (s *Sim) blockedLocked() []string {
	var blocked []*proc
	for p := s.live; p != nil; p = p.next {
		if p.seq != 0 {
			blocked = append(blocked, p)
		}
	}
	sort.Slice(blocked, func(i, j int) bool { return blocked[i].seq < blocked[j].seq })
	out := make([]string, len(blocked))
	for i, p := range blocked {
		out[i] = p.describe()
	}
	return out
}
