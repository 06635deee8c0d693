package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer, with both clocks.
type span struct {
	Name      string `json:"name"`
	Req       string `json:"req"`
	Job       string `json:"job,omitempty"`
	ID        int32  `json:"id"`
	Parent    int32  `json:"parent"`
	HostStart int64  `json:"host_start_ns"` // since the round began
	HostEnd   int64  `json:"host_end_ns"`
	VirtStart int64  `json:"virt_start_ns"`
	VirtEnd   int64  `json:"virt_end_ns"`

	op int32 // index of the operation that issued it, or -1
}

// spans records the traced round's spans in memory. A nil *spans
// records nothing, so untraced rounds pay one nil check per call site.
type spans struct {
	mu   sync.Mutex
	t0   time.Time
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now(), list: make([]span, 0, 1<<16)} }

// begin opens a span and returns its id. op names the operation that
// issued the call; req is the request id when the call site knows it.
func (s *spans) begin(name string, op int32, req, job string, parent int32, virt time.Duration) int32 {
	if s == nil {
		return -1
	}
	h := time.Since(s.t0).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	id := int32(len(s.list))
	s.list = append(s.list, span{
		Name: name, Req: req, Job: job, ID: id, Parent: parent,
		HostStart: h, VirtStart: int64(virt), op: op,
	})
	return id
}

func (s *spans) end(id int32, virt time.Duration) {
	if s == nil {
		return
	}
	h := time.Since(s.t0).Nanoseconds()
	s.mu.Lock()
	s.list[id].HostEnd = h
	s.list[id].VirtEnd = int64(virt)
	s.mu.Unlock()
}

func (s *spans) setJob(id int32, job string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.list[id].Job = job
	s.mu.Unlock()
}

// link fills in what call sites could not know when they recorded: the
// request id of spans identified only by their op, and the parent of
// application ranks, which is the root span of their request.
func (s *spans) link() {
	root := make(map[string]int32)
	for i := range s.list {
		sp := &s.list[i]
		if sp.Req == "" && sp.op >= 0 {
			sp.Req = requestKey(int(sp.op))
		}
		if sp.Parent < 0 && sp.op >= 0 {
			root[sp.Req] = sp.ID
		}
	}
	for i := range s.list {
		sp := &s.list[i]
		if sp.Parent < 0 && sp.op < 0 {
			if p, ok := root[sp.Req]; ok {
				sp.Parent = p
			}
		}
	}
}

// write stores the spans as gzipped JSON lines.
func (s *spans) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for i := range s.list {
		if err := enc.Encode(&s.list[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
