package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"cogrid/internal/lrm"
)

// opRecord is one operation's simulated outcome.
type opRecord struct {
	OK      bool
	Done    time.Duration // virtual completion instant
	Latency time.Duration // virtual: arrival to commit reply, or submit to launch
	Err     string
}

// roundResult is what one round's simulation produced, read through
// public accessors after quiescence.
type roundResult struct {
	ops      []opRecord
	start    time.Duration // first arrival
	timers   int64
	msgs     int64
	bytes    int64
	barrier  []time.Duration
	submitNs []int64
	counts   map[string]float64
	machines []machineState
}

// machineState is a machine as the quiescence audit sees it.
type machineState struct {
	Name       string
	Processors int
	Free       int
	Live       int
}

func stateOf(m *lrm.Machine) machineState {
	return machineState{Name: m.Name(), Processors: m.Processors(), Free: m.FreeProcessors(), Live: m.LiveJobs()}
}

// checkMachines rejects a quiescent fleet that still holds processors or
// non-terminal jobs.
func checkMachines(ms []machineState) error {
	for _, m := range ms {
		if m.Live != 0 {
			return fmt.Errorf("machine %s: %d job(s) left non-terminal", m.Name, m.Live)
		}
		if m.Free != m.Processors {
			return fmt.Errorf("machine %s: %d of %d processors free at quiescence", m.Name, m.Free, m.Processors)
		}
	}
	return nil
}

// fingerprint summarises a round's simulated outputs. Every round and
// every run of one seed must produce the same fingerprint.
type fingerprint struct {
	Ops    uint64 // hash of every op's outcome and virtual completion
	Timers int64
	Msgs   int64
	Bytes  int64
}

func fingerprintOf(r roundResult) fingerprint {
	h := fnv.New64a()
	var buf [17]byte
	for _, op := range r.ops {
		buf[0] = 0
		if op.OK {
			buf[0] = 1
		}
		binary.LittleEndian.PutUint64(buf[1:], uint64(op.Done))
		binary.LittleEndian.PutUint64(buf[9:], uint64(op.Latency))
		h.Write(buf[:])
	}
	return fingerprint{Ops: h.Sum64(), Timers: r.timers, Msgs: r.msgs, Bytes: r.bytes}
}

func (f fingerprint) String() string {
	return fmt.Sprintf("ops=%016x timers=%d msgs=%d bytes=%d", f.Ops, f.Timers, f.Msgs, f.Bytes)
}

// compare reports the first field in which got differs from want.
func (f fingerprint) compare(want fingerprint) error {
	switch {
	case f.Ops != want.Ops:
		return fmt.Errorf("per-op outcomes differ: %016x, want %016x", f.Ops, want.Ops)
	case f.Timers != want.Timers:
		return fmt.Errorf("timers fired differ: %d, want %d", f.Timers, want.Timers)
	case f.Msgs != want.Msgs:
		return fmt.Errorf("network messages differ: %d, want %d", f.Msgs, want.Msgs)
	case f.Bytes != want.Bytes:
		return fmt.Errorf("network bytes differ: %d, want %d", f.Bytes, want.Bytes)
	}
	return nil
}
