// Package metrics provides the lightweight instrumentation both engines
// report through: named atomic counters, duration accumulators, and
// per-iteration time series. A metrics.Set is created per run and is safe
// for concurrent use by worker goroutines.
package metrics

import (
	"fmt"
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
	mu       sync.Mutex
	counters map[string]*int64
	spans    map[string]*int64 // accumulated nanoseconds
}

// NewSet returns an empty metrics set.
func NewSet() *Set {
	return &Set{
		counters: make(map[string]*int64),
		spans:    make(map[string]*int64),
	}
}

func (s *Set) counter(name string) *int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.counters[name]
	if !ok {
		c = new(int64)
		s.counters[name] = c
	}
	return c
}

// Add increments counter name by delta.
func (s *Set) Add(name string, delta int64) {
	if s == nil {
		return
	}
	atomic.AddInt64(s.counter(name), delta)
}

// Get returns the current value of counter name (0 if never written).
func (s *Set) Get(name string) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	c, ok := s.counters[name]
	s.mu.Unlock()
	if !ok {
		return 0
	}
	return atomic.LoadInt64(c)
}

// AddSpan accumulates d into the named duration accumulator.
func (s *Set) AddSpan(name string, d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	c, ok := s.spans[name]
	if !ok {
		c = new(int64)
		s.spans[name] = c
	}
	s.mu.Unlock()
	atomic.AddInt64(c, int64(d))
}

// Span returns the accumulated duration for name.
func (s *Set) Span(name string) time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.spans[name]
	if !ok {
		return 0
	}
	return time.Duration(atomic.LoadInt64(c))
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
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.counters)+len(s.spans))
	for name, c := range s.counters {
		out[name] = atomic.LoadInt64(c)
	}
	for name, c := range s.spans {
		out[name] = atomic.LoadInt64(c)
	}
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
