package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call recorded by the benchmark: a client request,
// or a call into one layer's public functions on behalf of it.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a request span
	Req    int32  `json:"req"`    // the id of the request span
	Q      int    `json:"q"`      // query index, -1 for writes and layer passes
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span; parent -1 opens a request span.
func (t *tracer) begin(name string, parent int32, q int) int32 {
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	req := id
	if parent >= 0 {
		req = t.spans[parent].Req
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Q: q, Name: name, Start: now})
	return id
}

func (t *tracer) end(id int32) {
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs f inside a span.
func (t *tracer) timed(name string, parent int32, q int, f func() error) error {
	id := t.begin(name, parent, q)
	err := f()
	t.end(id)
	return err
}

// selfTimes returns each span's self time: its duration minus the part
// of it that its child spans cover.
func (t *tracer) selfTimes() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		out[i] = time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	curLo, curHi = -1, -1
	for _, x := range iv {
		if x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}
