package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"reflect"
	"testing"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		name   string
		frames []string // innermost first
		want   string
	}{
		{"innermost cogrid frame wins", []string{
			"runtime.mallocgc", "encoding/json.(*decodeState).object",
			"cogrid/internal/rpc.(*Client).CallCtx", "cogrid/internal/core.(*Runtime).Barrier",
			"cogrid/internal/vtime.(*Sim).spawn.func1",
		}, "rpc"},
		{"generic method", []string{
			"runtime.chansend1", "cogrid/internal/vtime.(*Chan[...]).Send", "cogrid/internal/broker.(*Broker).worker",
		}, "vtime"},
		{"inlined helper", []string{
			"runtime.concatstrings", "cogrid/internal/trace.Key", "cogrid/internal/broker.(*Broker).count",
		}, "trace"},
		{"GC assist inside a layer", []string{
			"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc1", "runtime.gcAssistAlloc",
			"runtime.mallocgc", "cogrid/internal/wire.Encode", "cogrid/internal/rpc.(*Client).send",
		}, "runtime.gc"},
		{"GC mark worker", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack",
		}, "runtime.gc"},
		{"sweep during allocation", []string{
			"runtime.sweepone", "runtime.deductSweepCredit", "runtime.mallocgc", "cogrid/internal/lrm.(*Machine).Submit",
		}, "runtime.gc"},
		{"scavenger", []string{"runtime.(*pageAlloc).scavenge", "runtime.bgscavenge"}, "runtime.gc"},
		{"no cogrid frame", []string{
			"runtime.futex", "runtime.notesleep", "runtime.findRunnable", "runtime.schedule", "runtime.park_m",
		}, "runtime.other"},
		{"harness frame inside a layer callback", []string{
			"runtime.growslice", "main.(*spans).begin", "main.(*coTestbed).app",
			"cogrid/internal/lrm.(*Machine).launch.func2",
		}, "bench"},
		{"runtime.main is not the harness", []string{"runtime.main"}, "runtime.other"},
		{"empty stack", nil, "runtime.other"},
	}
	for _, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

// pb appends protobuf fields: varints for uint64 values, length-delimited
// fields for byte slices.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num int, v []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func TestParseProfile(t *testing.T) {
	// Two samples: one through a location with an inlined frame, with
	// packed location ids, and one with unpacked fields.
	packed := binary.AppendUvarint(binary.AppendUvarint(nil, 2), 1)
	s1 := pb(nil).bytes(1, packed).bytes(2, binary.AppendUvarint(binary.AppendUvarint(nil, 7), 70000000))
	s2 := pb(nil).varint(1, 1).varint(2, 3).varint(2, 30000000)
	loc1 := pb(nil).varint(1, 1).bytes(4, pb(nil).varint(1, 3))
	loc2 := pb(nil).varint(1, 2).bytes(4, pb(nil).varint(1, 1).varint(2, 10)).bytes(4, pb(nil).varint(1, 2))
	var msg pb
	msg = msg.bytes(2, s1).bytes(2, s2).bytes(4, loc1).bytes(4, loc2)
	for id, name := range []uint64{1, 2, 3} {
		msg = msg.bytes(5, pb(nil).varint(1, uint64(id+1)).varint(2, name))
	}
	for _, s := range []string{"", "cogrid/internal/trace.Key", "cogrid/internal/broker.count", "runtime.main"} {
		msg = msg.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(msg)
	zw.Close()

	stacks, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []stack{
		{frames: []string{"cogrid/internal/trace.Key", "cogrid/internal/broker.count", "runtime.main"}, count: 7},
		{frames: []string{"runtime.main"}, count: 3},
	}
	if !reflect.DeepEqual(stacks, want) {
		t.Fatalf("parseProfile = %+v, want %+v", stacks, want)
	}
	l := ledger{}
	if err := cpuLedger(l, gz.Bytes()); err != nil {
		t.Fatal(err)
	}
	if l["trace"].CPU != 7 || l["runtime.other"].CPU != 3 {
		t.Fatalf("cpuLedger: trace=%d runtime.other=%d, want 7 and 3", l["trace"].CPU, l["runtime.other"].CPU)
	}
}

func TestParseProfileRejectsTruncatedInput(t *testing.T) {
	msg := pb(nil).bytes(2, pb(nil).varint(2, 1))
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(msg[:len(msg)-1])
	zw.Close()
	if _, err := parseProfile(gz.Bytes()); err == nil {
		t.Fatal("truncated profile parsed without error")
	}
}

func TestAllocDelta(t *testing.T) {
	before := ledger{"rpc": {Allocs: 10, Bytes: 100}}
	after := ledger{"rpc": {Allocs: 15, Bytes: 160}, "wire": {Allocs: 2, Bytes: 8}}
	d := allocDelta(before, after)
	if *d["rpc"] != (share{Allocs: 5, Bytes: 60}) || *d["wire"] != (share{Allocs: 2, Bytes: 8}) {
		t.Fatalf("allocDelta = rpc %+v wire %+v", *d["rpc"], *d["wire"])
	}
}
