// Package metrics provides the lightweight instrumentation both engines
// report through: named atomic counters, duration accumulators, and
// per-iteration time series. A metrics.Set is created per run and is safe
// for concurrent use by worker goroutines.
package metrics

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Well-known counter names shared by the engines, so the experiment
// harness can read them uniformly.
const (
	ShuffleBytes      = "shuffle.bytes"        // map→reduce data volume
	ShuffleRemote     = "shuffle.remote"       // portion crossing worker boundaries
	StateBytes        = "state.bytes"          // reduce→map iterated state volume
	StateRemote       = "state.remote"         // portion crossing worker boundaries
	DFSReadBytes      = "dfs.read.bytes"       // total DFS reads
	DFSReadRemote     = "dfs.read.remote"      // DFS reads served by a remote replica
	DFSWriteBytes     = "dfs.write.bytes"      // DFS writes (x replication)
	TasksLaunched     = "tasks.launched"       // map+reduce task launches
	JobsLaunched      = "jobs.launched"        // MapReduce jobs submitted
	TaskMigrations    = "tasks.migrations"     // iMapReduce load-balancing moves
	Checkpoints       = "checkpoints.written"  // state checkpoints dumped to DFS
	TaskRetries       = "tasks.retries"        // failed task re-executions
	SendRetries       = "send.retries"         // transport sends that needed retrying
	SendFailures      = "send.failures"        // sends abandoned after all retries
	HeartbeatsSent    = "heartbeats.sent"      // worker→master liveness beats
	Iterations        = "iterations.completed" // committed iteration boundaries
	FailuresDetected  = "failures.detected"    // workers declared dead by missed heartbeats
	CheckpointsGCed   = "checkpoints.gced"     // superseded checkpoint/manifest files deleted
	CheckpointsStale  = "checkpoints.stale"    // checkpoint writes abandoned by a generation change
	CheckpointRetries = "checkpoints.retries"  // checkpoint DFS writes that needed retrying
	CheckpointsLost   = "checkpoints.lost"     // checkpoint writes abandoned after all retries
	ManifestCommits   = "manifests.committed"  // durable checkpoint manifests committed
	RunsResumed       = "runs.resumed"         // cold restarts from a durable manifest
	ChunkBufsReused   = "chunkbufs.reused"     // chunk buffers a task took back from its free list
	ChunkBufsAlloc    = "chunkbufs.allocated"  // chunk buffers a task allocated (its free list was empty)
)

// Counter names reported by the multi-tenant job service
// (internal/serve). ServeQueueWait is a duration accumulator (AddSpan).
const (
	ServeSubmitted     = "serve.jobs.submitted"          // jobs admitted into a queue
	ServeRejectedQueue = "serve.jobs.rejected.queuefull" // submissions bounced by the bounded queue
	ServeRejectedQuota = "serve.jobs.rejected.quota"     // submissions bounced by a tenant quota
	ServeDispatched    = "serve.jobs.dispatched"         // jobs handed a slot by the scheduler
	ServeCompleted     = "serve.jobs.completed"          // jobs finished successfully
	ServeFailed        = "serve.jobs.failed"             // jobs finished with a non-cancel error
	ServeCanceled      = "serve.jobs.canceled"           // jobs canceled while queued or running
	ServeQueueWait     = "serve.queue.wait"              // cumulative submit→dispatch wait
)

// Set is a registry of counters and timers for one engine run.
type Set struct {
	counters named
	spans    named // accumulated nanoseconds
}

// named maps names to accumulators. An accumulator, once made, is never
// replaced, and the map holding them is replaced, never written, when a
// name is added: so looking up a name that exists — what every Add on a
// task's message path does — takes no lock.
type named struct {
	mu sync.Mutex // serializes additions
	m  atomic.Pointer[map[string]*int64]
}

// load returns the current map; nil before the first name.
func (n *named) load() map[string]*int64 {
	if m := n.m.Load(); m != nil {
		return *m
	}
	return nil
}

// lookup returns name's accumulator, if it has one.
func (n *named) lookup(name string) (*int64, bool) {
	c, ok := n.load()[name]
	return c, ok
}

// get returns name's accumulator, making it if it has none.
func (n *named) get(name string) *int64 {
	if c, ok := n.lookup(name); ok {
		return c
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if c, ok := n.lookup(name); ok {
		return c // added since the first look
	}
	old := n.load()
	m := make(map[string]*int64, len(old)+1)
	maps.Copy(m, old)
	c := new(int64)
	m[name] = c
	n.m.Store(&m)
	return c
}

// each calls fn with every name and its accumulator's current value.
func (n *named) each(fn func(name string, v int64)) {
	for name, c := range n.load() {
		fn(name, atomic.LoadInt64(c))
	}
}

// NewSet returns an empty metrics set.
func NewSet() *Set { return new(Set) }

// Add increments counter name by delta.
func (s *Set) Add(name string, delta int64) {
	if s == nil {
		return
	}
	atomic.AddInt64(s.counters.get(name), delta)
}

// Get returns the current value of counter name (0 if never written).
func (s *Set) Get(name string) int64 {
	if s == nil {
		return 0
	}
	if c, ok := s.counters.lookup(name); ok {
		return atomic.LoadInt64(c)
	}
	return 0
}

// AddSpan accumulates d into the named duration accumulator.
func (s *Set) AddSpan(name string, d time.Duration) {
	if s == nil {
		return
	}
	atomic.AddInt64(s.spans.get(name), int64(d))
}

// Span returns the accumulated duration for name.
func (s *Set) Span(name string) time.Duration {
	if s == nil {
		return 0
	}
	if c, ok := s.spans.lookup(name); ok {
		return time.Duration(atomic.LoadInt64(c))
	}
	return 0
}

// Timed runs fn and accumulates its wall time under name.
func (s *Set) Timed(name string, fn func()) {
	start := time.Now()
	fn()
	s.AddSpan(name, time.Since(start))
}

// Snapshot returns a copy of all counters (durations reported in
// nanoseconds under their span name).
func (s *Set) Snapshot() map[string]int64 {
	if s == nil {
		return nil
	}
	out := make(map[string]int64)
	record := func(name string, v int64) { out[name] = v }
	s.counters.each(record)
	s.spans.each(record)
	return out
}

// String renders the snapshot sorted by name, for logs and debugging.
func (s *Set) String() string {
	snap := s.Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%d ", n, snap[n])
	}
	return strings.TrimSpace(b.String())
}
