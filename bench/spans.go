package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"imapreduce/internal/trace"
)

// benchSpan is one span recorded from the benchmark's side of a layer
// boundary: around a call into the program, never inside it.
type benchSpan struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Job    string `json:"job"`    // spans of one job share this
	Name   string `json:"name"`
	// StartUS/EndUS are microseconds since the log was created.
	StartUS int64 `json:"start_us"`
	EndUS   int64 `json:"end_us"`
}

// spanLog holds the traced run's benchmark-side spans in memory until
// the run ends. A nil *spanLog records nothing, so untraced runs pay one
// nil check per site.
type spanLog struct {
	t0 time.Time

	mu    sync.Mutex
	spans []benchSpan
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil log).
func (l *spanLog) begin(name, job string, parent int) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0).Microseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, benchSpan{ID: id, Parent: parent, Job: job, Name: name, StartUS: now, EndUS: -1})
	return id
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.t0).Microseconds()
	l.mu.Lock()
	l.spans[id-1].EndUS = now
	l.mu.Unlock()
}

// mark records a zero-length span (an instant), e.g. an iteration
// boundary seen through OnIteration.
func (l *spanLog) mark(name, job string, parent int) {
	l.end(l.begin(name, job, parent))
}

// closed returns a copy of the finished spans.
func (l *spanLog) closed() []benchSpan {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]benchSpan, 0, len(l.spans))
	for _, s := range l.spans {
		if s.EndUS >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes sums, per span name, duration minus the part of it covered
// by direct children: the time the benchmark spent at that boundary
// that no deeper boundary explains.
func selfTimes(spans []benchSpan) map[string]time.Duration {
	covered := make(map[int]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.EndUS - s.StartUS
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		self := (s.EndUS - s.StartUS) - covered[s.ID]
		if self < 0 {
			self = 0
		}
		out[s.Name] += time.Duration(self) * time.Microsecond
	}
	return out
}

// writeSelfTable prints the per-boundary self times, largest first.
func writeSelfTable(w io.Writer, spans []benchSpan) {
	self := selfTimes(spans)
	counts := make(map[string]int)
	for _, s := range spans {
		counts[s.Name]++
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "%-24s %8s %14s\n", "benchmark span", "count", "self ms")
	for _, n := range names {
		fmt.Fprintf(w, "%-24s %8d %14.3f\n", n, counts[n], float64(self[n])/float64(time.Millisecond))
	}
}

// asTraceEvents converts the spans to complete trace events on the
// recorder's clock, so one Chrome trace shows the program's spans under
// the benchmark's. Iteration marks are skipped: the engine's own
// iter.done events already draw those boundaries.
func (l *spanLog) asTraceEvents(rec *trace.Recorder) []trace.Event {
	if l == nil {
		return nil
	}
	offset := l.t0.Sub(rec.Start())
	var out []trace.Event
	for _, s := range l.closed() {
		if s.EndUS == s.StartUS {
			continue
		}
		out = append(out, trace.Event{
			Time:   offset + time.Duration(s.StartUS)*time.Microsecond,
			Dur:    time.Duration(s.EndUS-s.StartUS) * time.Microsecond,
			Worker: "bench", Task: -1, Kind: trace.Kind("bench." + s.Name), Ph: 'X',
			Attrs: []trace.Attr{
				{Key: "job", Value: s.Job},
				{Key: "parent", Value: fmt.Sprint(s.Parent)},
			},
		})
	}
	return out
}
