package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// noSpan is the parent of a root span and the period of a span that
// belongs to no single sampling period.
const noSpan = -1

// span is one timed call into a layer, recorded from outside it. Times are
// nanoseconds since the tracer's epoch (monotonic clock).
type span struct {
	name       string
	parent     int32 // index of the enclosing span, or noSpan
	k          int32 // sampling period index, or noSpan
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps every span of a traced run in memory; a nil *tracer records
// nothing, so untraced runs pay one nil check per call site. Spans may be
// recorded from any goroutine.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now returns the tracer clock; 0 on a nil tracer.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent, k int) int32 {
	if t == nil {
		return noSpan
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: int32(parent), k: int32(k), start: start})
	return int32(len(t.spans) - 1)
}

// end closes the span opened by begin.
func (t *tracer) end(id int32) {
	if t == nil || id == noSpan {
		return
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = end
}

// record adds a span whose start and end the caller already measured
// with now.
func (t *tracer) record(name string, parent, k int, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: int32(parent), k: int32(k), start: start, end: end})
}

// snapshot returns the recorded spans. Call it only after every recording
// goroutine has finished.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// spanSet indexes a finished trace for layer accounting.
type spanSet struct {
	spans    []span
	children [][]int32
}

func newSpanSet(spans []span) *spanSet {
	ss := &spanSet{spans: spans, children: make([][]int32, len(spans))}
	for i, s := range spans {
		if s.parent != noSpan {
			ss.children[s.parent] = append(ss.children[s.parent], int32(i))
		}
	}
	return ss
}

// self returns span i's duration minus the part of it that its child
// spans cover; overlapping children count once.
func (ss *spanSet) self(i int32) int64 {
	s := ss.spans[i]
	kids := ss.children[i]
	ivs := make([]interval, len(kids))
	for j, c := range kids {
		ivs[j] = interval{ss.spans[c].start, ss.spans[c].end}
	}
	return s.dur() - covered(s.start, s.end, ivs)
}

// named returns the indices of the spans called name, in record order.
func (ss *spanSet) named(name string) []int32 {
	var out []int32
	for i, s := range ss.spans {
		if s.name == name {
			out = append(out, int32(i))
		}
	}
	return out
}

// durations returns the durations of the given spans in microseconds.
func (ss *spanSet) durationsUS(ids []int32) []float64 {
	out := make([]float64, len(ids))
	for j, i := range ids {
		out[j] = float64(ss.spans[i].dur()) / 1e3
	}
	return out
}

// totalDur sums the durations of the given spans in nanoseconds.
func (ss *spanSet) totalDur(ids []int32) int64 {
	var t int64
	for _, i := range ids {
		t += ss.spans[i].dur()
	}
	return t
}

// writeSpans writes the trace as tab-separated values, one span per line:
// index, parent, period, name, start and end in nanoseconds.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tk\tname\tstart_ns\tend_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.k, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
