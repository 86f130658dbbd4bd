package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"cachepirate/internal/trace"
)

// span is one timed call from the harness into a layer. Start and End are
// nanoseconds since the tracer's epoch; Parent is the index of the span that
// caused this one (-1 for an op's root span); Op groups the spans of one
// operation; N counts the work done inside (records decoded, bytes read).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	N      int64  `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. Spans are recorded only
// by files of this package, around calls into a layer's exported functions.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanCtx is where a new span hangs: under which parent, in which op. The
// zero value (nil tracer) records nothing, which is how untraced ops run the
// same code with no spans and no wrapped sources.
type spanCtx struct {
	tr     *tracer
	parent int
	op     int
}

func (c spanCtx) on() bool { return c.tr != nil }

// root opens the root span of operation op.
func (t *tracer) root(name string, op int) (spanCtx, func()) {
	return spanCtx{tr: t, parent: -1, op: op}.start(name)
}

// start opens a child span and returns the context for its own children plus
// the function that closes it.
func (c spanCtx) start(name string) (spanCtx, func()) {
	child, end := c.startN(name)
	return child, func() { end(0) }
}

// startN is start for spans that learn their work count only at the end.
func (c spanCtx) startN(name string) (spanCtx, func(n int64)) {
	if c.tr == nil {
		return c, func(int64) {}
	}
	t := c.tr
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: c.parent, Op: c.op})
	t.mu.Unlock()
	start := time.Since(t.epoch)
	return spanCtx{tr: t, parent: id, op: c.op}, func(n int64) {
		end := time.Since(t.epoch)
		t.mu.Lock()
		t.spans[id].Start, t.spans[id].End, t.spans[id].N = int64(start), int64(end), n
		t.mu.Unlock()
	}
}

// spanTotals aggregates spans by name.
type spanTotals struct {
	Spans int           `json:"spans"`
	Total time.Duration `json:"total_ns"`
	Self  time.Duration `json:"self_ns"`
	N     int64         `json:"n,omitempty"`
}

// totals sums duration, self time and work counts per span name. A span's
// self time is its duration minus the part of it that its children cover;
// overlapping children (concurrent callees) are counted once.
func totals(spans []span) map[string]spanTotals {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]spanTotals)
	for id, s := range spans {
		t := out[s.Name]
		t.Spans++
		t.Total += s.dur()
		t.Self += s.dur() - covered(s, children[id])
		t.N += s.N
		out[s.Name] = t
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum, edge int64
	edge = parent.Start
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < edge {
			lo = edge
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			sum += hi - lo
			edge = hi
		}
	}
	return time.Duration(sum)
}

// write stores the spans and their per-name totals as JSON.
func (t *tracer) write(path, workload string, seed uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Workload string                `json:"workload"`
		Seed     uint64                `json:"seed"`
		Totals   map[string]spanTotals `json:"totals"`
		Spans    []span                `json:"spans"`
	}{workload, seed, totals(t.spans), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timedSource wraps a trace.BlockSource so that every NextBlock is a span:
// decode time measured in situ, inside the engine call that consumes it. It
// forwards Close because the engines close sources that implement io.Closer.
type timedSource struct {
	src trace.BlockSource
	c   spanCtx
}

func (t *timedSource) NextBlock() ([]trace.Record, error) {
	_, end := t.c.startN("trace.NextBlock")
	blk, err := t.src.NextBlock()
	end(int64(len(blk)))
	return blk, err
}

func (t *timedSource) Rewind() error          { return t.src.Rewind() }
func (t *timedSource) NumRecords() int64      { return t.src.NumRecords() }
func (t *timedSource) NumInstructions() int64 { return t.src.NumInstructions() }

func (t *timedSource) Close() error {
	if c, ok := t.src.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// opener returns the factory the streaming engines take: it opens path with
// the synchronous v2 reader and, under a live span context, times its blocks.
func opener(path string, c spanCtx) func() (trace.BlockSource, error) {
	return func() (trace.BlockSource, error) {
		rd, err := trace.OpenFile(path, trace.ReaderOptions{})
		if err != nil {
			return nil, err
		}
		if !c.on() {
			return rd, nil
		}
		return &timedSource{src: rd, c: c}, nil
	}
}
