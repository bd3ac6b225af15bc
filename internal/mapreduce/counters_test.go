package mapreduce

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"imapreduce/internal/kv"
	"imapreduce/internal/metrics"
)

func TestCountersBasics(t *testing.T) {
	c := NewCounters()
	c.Inc("a", 2)
	c.Inc("a", 3)
	c.Inc("b", 1)
	if c.Get("a") != 5 || c.Get("b") != 1 || c.Get("missing") != 0 {
		t.Fatalf("counter values wrong: a=%d b=%d", c.Get("a"), c.Get("b"))
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names: %v", names)
	}
	d := NewCounters()
	d.Inc("a", 10)
	c.merge(d)
	if c.Get("a") != 15 {
		t.Fatalf("merge: a=%d", c.Get("a"))
	}
	c.merge(nil) // no-op
}

// counterWordCount counts mapped words and reduced groups via counters.
func counterWordCount(input, output string) *Job {
	return &Job{
		Name:   "wc-counters",
		Input:  []string{input},
		Output: output,
		MapCnt: func(c *Counters, key, value any, emit kv.Emit) error {
			for _, w := range strings.Fields(value.(string)) {
				c.Inc("words.mapped", 1)
				emit(w, int64(1))
			}
			return nil
		},
		ReduceCnt: func(c *Counters, key any, values []any, emit kv.Emit) error {
			c.Inc("groups.reduced", 1)
			var sum int64
			for _, v := range values {
				sum += v.(int64)
			}
			emit(key, sum)
			return nil
		},
		NumReduce: 3,
		Ops:       kv.OpsFor[string, int64](nil),
	}
}

func TestJobCounters(t *testing.T) {
	e, fs, _ := testEnv(t, 2, Options{})
	writeWords(t, fs, "/in", []string{"a b c", "a b", "a"})
	res, err := e.Submit(counterWordCount("/in", "/out"))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Counters.Get("words.mapped"); got != 6 {
		t.Fatalf("words.mapped = %d, want 6", got)
	}
	if got := res.Counters.Get("groups.reduced"); got != 3 {
		t.Fatalf("groups.reduced = %d, want 3", got)
	}
}

// TestCountersWinnerOnlyUnderRetry: a failed attempt's counter
// increments must not leak into the job totals. The first map attempt to
// run and the first reduce attempt to run each count their records and
// then fail, so their retries redo the work the totals must count once.
func TestCountersWinnerOnlyUnderRetry(t *testing.T) {
	e, fs, m := testEnv(t, 2, Options{})
	writeWords(t, fs, "/in", []string{"x y", "y z"})
	job := counterWordCount("/in", "/out")
	var mapFailed, reduceFailed atomic.Bool
	baseMap, baseReduce := job.MapCnt, job.ReduceCnt
	job.MapCnt = func(c *Counters, key, value any, emit kv.Emit) error {
		if err := baseMap(c, key, value, emit); err != nil {
			return err
		}
		if mapFailed.CompareAndSwap(false, true) {
			return fmt.Errorf("map attempt fails after counting")
		}
		return nil
	}
	job.ReduceCnt = func(c *Counters, key any, values []any, emit kv.Emit) error {
		if err := baseReduce(c, key, values, emit); err != nil {
			return err
		}
		if reduceFailed.CompareAndSwap(false, true) {
			return fmt.Errorf("reduce attempt fails after counting")
		}
		return nil
	}
	res, err := e.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Get(metrics.TaskRetries); got != 2 {
		t.Fatalf("retries = %d, want 2 (one map, one reduce)", got)
	}
	if got := res.Counters.Get("words.mapped"); got != 4 {
		t.Fatalf("words.mapped = %d after retries, want 4", got)
	}
	if got := res.Counters.Get("groups.reduced"); got != 3 {
		t.Fatalf("groups.reduced = %d after retries, want 3", got)
	}
}

func TestJobValidationCounterVariants(t *testing.T) {
	e, fs, _ := testEnv(t, 1, Options{})
	writeWords(t, fs, "/in", []string{"a"})
	good := counterWordCount("/in", "/out")
	// Both a plain and a counter map set: rejected.
	bad := counterWordCount("/in", "/out2")
	bad.Map = func(key, value any, emit kv.Emit) error { return nil }
	if _, err := e.Submit(bad); err == nil {
		t.Fatal("two map variants accepted")
	}
	// Both reduce variants set: rejected.
	bad2 := counterWordCount("/in", "/out3")
	bad2.Reduce = func(key any, values []any, emit kv.Emit) error { return nil }
	if _, err := e.Submit(bad2); err == nil {
		t.Fatal("two reduce variants accepted")
	}
	if _, err := e.Submit(good); err != nil {
		t.Fatal(err)
	}
}
