package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"strings"
)

// layers are the buckets of the ledger: every cogrid/internal package a
// workload reaches, then the harness and the runtime.
var layers = []string{
	"vtime", "transport", "wire", "rpc", "gsi", "nis", "gram", "lrm",
	"mds", "rsl", "core", "agent", "broker", "trace", "metrics",
	"flightrec", "slo", "grid", "failure", "predict",
	"bench", "runtime.gc", "runtime.other",
}

// gcFrames mark a stack as garbage-collector work: mark workers, assists,
// sweeping and scavenging, wherever they were triggered from.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.markroot", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.bgsweep", "runtime.sweepone",
	"runtime.deductSweepCredit", "runtime.(*sweepLocked).sweep",
	"runtime.bgscavenge", "runtime.(*scavengerState)", "runtime.(*pageAlloc).scavenge",
}

// layerOf attributes a stack (function names, innermost first) to one
// ledger bucket: runtime.gc if any frame is collector work, else the
// innermost cogrid/internal/<pkg> frame's package, else bench for the
// harness's own frames, else runtime.other.
func layerOf(frames []string) string {
	for _, f := range frames {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "runtime.gc"
			}
		}
	}
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "cogrid/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
	}
	return "runtime.other"
}

// share is one bucket's totals in a ledger.
type share struct {
	CPU    int64 // profile samples
	Allocs int64 // heap objects
	Bytes  int64
}

// ledger maps bucket to totals.
type ledger map[string]*share

func (l ledger) at(layer string) *share {
	s := l[layer]
	if s == nil {
		s = &share{}
		l[layer] = s
	}
	return s
}

// cpuLedger attributes every sample of a gzipped pprof CPU profile.
func cpuLedger(l ledger, profile []byte) error {
	stacks, err := parseProfile(profile)
	if err != nil {
		return err
	}
	for _, s := range stacks {
		l.at(layerOf(s.frames)).CPU += s.count
	}
	return nil
}

// memSnapshot returns per-bucket cumulative allocation totals from
// runtime.MemProfile, and the cumulative count of tiny allocations the
// runtime packed into an already allocated block. Those are counted in
// MemStats.Mallocs but never profiled, so no layer can be charged with
// them. Two collections first publish every allocation made before the
// call.
func memSnapshot() (ledger, uint64) {
	runtime.GC()
	runtime.GC()
	tiny := []metrics.Sample{{Name: "/gc/heap/tiny/allocs:objects"}}
	metrics.Read(tiny)
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		n, ok = runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
	}
	l := ledger{}
	var names []string
	for i := range recs {
		names = names[:0]
		frames := runtime.CallersFrames(recs[i].Stack())
		for {
			f, more := frames.Next()
			names = append(names, f.Function)
			if !more {
				break
			}
		}
		s := l.at(layerOf(names))
		s.Allocs += recs[i].AllocObjects
		s.Bytes += recs[i].AllocBytes
	}
	return l, tiny[0].Value.Uint64()
}

// allocDelta returns after minus before, per bucket.
func allocDelta(before, after ledger) ledger {
	out := ledger{}
	for name, a := range after {
		d := out.at(name)
		d.Allocs = a.Allocs
		d.Bytes = a.Bytes
		if b := before[name]; b != nil {
			d.Allocs -= b.Allocs
			d.Bytes -= b.Bytes
		}
	}
	return out
}

// stack is one CPU profile sample.
type stack struct {
	frames []string // innermost first, inlined frames expanded
	count  int64
}

// parseProfile decodes the subset of the gzipped profile.proto message
// that attribution needs: samples, locations, functions and strings.
func parseProfile(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]int64{}    // function id -> name string index
		strs    []string
	)
	err = forEachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			var vals []uint64
			err := forEachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					vals = appendPacked(vals, v, b)
				}
				return nil
			})
			if err != nil || len(vals) == 0 {
				return errors.New("profile: bad sample")
			}
			s.count = int64(vals[0])
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := forEachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return forEachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := forEachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcs[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locs[loc] {
				if idx := funcs[fn]; idx >= 0 && int(idx) < len(strs) {
					st.frames = append(st.frames, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// forEachField walks one protobuf message, calling fn with each field's
// number and its varint value (wire type 0) or bytes (wire type 2).
func forEachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked (v)
// or packed (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
