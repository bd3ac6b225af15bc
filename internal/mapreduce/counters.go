package mapreduce

import (
	"sort"
	"sync"

	"imapreduce/internal/kv"
)

// Counters are Hadoop-style user counters: map and reduce functions
// increment them through the *WithCounters job variants, and the engine
// aggregates them per job with Hadoop's winner-only semantics — a
// counter update only lands if its task attempt is the one whose output
// is used, so retries never double-count.
type Counters struct {
	mu sync.Mutex
	m  map[string]int64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{m: make(map[string]int64)}
}

// Inc adds delta to the named counter.
func (c *Counters) Inc(name string, delta int64) {
	c.mu.Lock()
	c.m[name] += delta
	c.mu.Unlock()
}

// Get returns the counter's value (0 if never written).
func (c *Counters) Get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// Names returns the counter names, sorted.
func (c *Counters) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.m))
	for n := range c.m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// merge folds a winning attempt's counters into the job totals.
func (c *Counters) merge(from *Counters) {
	if c == nil || from == nil {
		return
	}
	from.mu.Lock()
	snapshot := make(map[string]int64, len(from.m))
	for k, v := range from.m {
		snapshot[k] = v
	}
	from.mu.Unlock()
	c.mu.Lock()
	for k, v := range snapshot {
		c.m[k] += v
	}
	c.mu.Unlock()
}

// MapCounterFunc is a map operation with access to attempt-local
// counters.
type MapCounterFunc func(c *Counters, key, value any, emit kv.Emit) error

// ReduceCounterFunc is a reduce operation with access to attempt-local
// counters.
type ReduceCounterFunc func(c *Counters, key any, values []any, emit kv.Emit) error
