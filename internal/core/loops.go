package core

import (
	"errors"
	"fmt"

	"imapreduce/internal/kv"
)

// The record loops (DESIGN §5, "Typed records over an untyped core").
// Everything a task does once per shuffle record sits behind mapLoops and
// reduceLoops: the user map's emit and partition, the chunk's payload and
// its byte charge, adding a chunk to the reduce's accumulator, grouping,
// and the user reduce. The pair loops below move kv.Pair and serve every
// job; the column loops (colloops.go) move kv.Cols and serve the jobs
// columnLoops picks. Everything around them is the tasks' own and shared
// by both: generations, Seq and End counts, accumulators, buffer leases
// and free lists, gating, reports, checkpoints, rollback, and intra-task
// sharding.

// mapLoops is a map task's record loops.
type mapLoops interface {
	// mapState runs the user map over one iteration's state records,
	// filing what it emits into the task's chunk buffers (fill,
	// sendShuffle).
	mapState(iter int, pairs []kv.Pair) error
	// pack returns c with b's records — none when b is nil — as its
	// payload, and the bytes they are charged. It may pack a fresh payload
	// instead, clearing c's lease.
	pack(c shuffleChunk, b *chunkBuf) (shuffleChunk, int64, error)
}

// reduceLoops is a reduce task's record loops.
type reduceLoops interface {
	// accumulate adds chunk c's records to a. A chunk of the other
	// loops' records is an error: its sender built the job differently.
	accumulate(a *accum, c shuffleChunk) error
	// group groups a's records by key for reduce and returns the number
	// of groups.
	group(a *accum) int
	// reduce runs the user reduce over the groups in key order, merges
	// each new state into the previous-state run on a termination phase,
	// and hands it to the task's newState. It returns the iteration's
	// distance sum and releases the grouping scratch.
	reduce(iter int) (float64, error)
}

// shardRows are a sharded map loop's emit rows, one per (shard, reduce):
// see runSharded.
type shardRows interface {
	// size makes sure there is a row for every (shard, reduce) of a
	// shards-wide window.
	size(shards int)
	// drain moves reduce r's rows, shard by shard, into r's chunk
	// buffers (fill).
	drain(t *mapTask, iter, r int)
	// recycle empties every row.
	recycle()
}

// reduceSharded runs reduce(i) for every group i in [0, len(vals)) on the
// pool, each shard a contiguous range, into vals[i]. The user reduce must
// be safe to call concurrently (Options.Parallelism).
func reduceSharded[V any](t *reduceTask, vals []V, reduce func(i int) (V, error)) error {
	shards := t.run.pool.shardsFor(len(vals))
	errs := make([]error, shards)
	t.run.pool.runShards(shards, func(sh int) {
		lo, hi := shardRange(len(vals), shards, sh)
		for i := lo; i < hi; i++ {
			v, err := reduce(i)
			if err != nil {
				errs[sh] = err
				return
			}
			vals[i] = v
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// pairMapLoops are the pair loops of a map task.
type pairMapLoops struct {
	t *mapTask
	// Task-lifetime scratch: the serial loop's emit, the sharded loops'
	// emit rows, and the combiner's grouping kernel. Only the task
	// goroutine touches grouper; emits rows are written by the pool's
	// shards inside runSharded.
	emit    kv.Emit
	emits   shardedEmits
	grouper kv.Grouper
}

func newPairMapLoops(t *mapTask) *pairMapLoops {
	return &pairMapLoops{t: t, emits: shardedEmits{nred: t.numReduce}}
}

func (l *pairMapLoops) mapState(iter int, pairs []kv.Pair) error {
	t := l.t
	if t.run.pool.shardsFor(len(pairs)) > 1 {
		return l.sharded(iter, len(pairs), func(lo, hi int, em kv.Emit) error {
			return t.mapRange(pairs[lo:hi], em)
		})
	}
	return t.mapRange(pairs, l.emitter())
}

// sharded is runSharded over the pair rows: body maps records [lo, hi)
// into em.
func (l *pairMapLoops) sharded(iter, n int, body func(lo, hi int, em kv.Emit) error) error {
	t := l.t
	part := func(k any) int { return t.job.Ops.Partition(k, t.numReduce) }
	return t.runSharded(iter, n, &l.emits, func(sh, lo, hi int) error {
		return body(lo, hi, l.emits.emit(sh, part))
	})
}

// emitter returns the serial map loops' emit callback: pairs are
// partitioned by the phase's Ops and flushed to the reduce tasks in
// BufferThreshold-sized chunks. It is made once per task — a closure per
// map pass would cost an allocation per pass — so it files its output
// under t.iter: a task only ever maps the iteration it is on.
func (l *pairMapLoops) emitter() kv.Emit {
	if l.emit == nil {
		t := l.t
		l.emit = func(k, v any) {
			r := t.job.Ops.Partition(k, t.numReduce)
			b := t.out(r)
			b.pairs = append(b.pairs, kv.Pair{Key: k, Value: v})
			if len(b.pairs) >= t.bufThresh {
				t.sendShuffle(t.iter, r, false)
			}
		}
	}
	return l.emit
}

// pack runs the combiner over the chunk first when one is configured.
// When it shrinks the chunk the fresh combined slice is sent instead, and
// the buffer stays for the next batch.
func (l *pairMapLoops) pack(c shuffleChunk, b *chunkBuf) (shuffleChunk, int64, error) {
	if b == nil {
		return c, 0, nil
	}
	t := l.t
	pairs := b.pairs
	if t.job.Combine != nil && len(pairs) > 1 {
		groups := l.grouper.Group(pairs, t.job.Ops)
		defer l.grouper.Reset()
		if len(groups) < len(pairs) {
			combined := make([]kv.Pair, 0, len(groups))
			for _, g := range groups {
				v, err := t.job.Combine(g.Key, g.Values)
				if err != nil {
					return c, 0, fmt.Errorf("map %d/%d combine key %v: %w", t.phase, t.idx, g.Key, err)
				}
				combined = append(combined, kv.Pair{Key: g.Key, Value: v})
			}
			b.empty()
			pairs, c.lease = combined, bufLease{}
		}
		// Every key unique: combining cannot shrink the chunk, and reduce
		// functions accept uncombined values (the Hadoop combiner
		// contract), so skip the pass and ship the buffer itself.
	}
	c.Pairs = pairs
	var size int64
	for _, p := range pairs {
		size += int64(t.job.Ops.PairSize(p))
	}
	return c, size, nil
}

// pairReduceLoops are the pair loops of a reduce task.
type pairReduceLoops struct {
	t *reduceTask
	// Task-lifetime scratch, sized by one iteration's input and holding
	// no record references between iterations: the grouping kernel with
	// its key index, values array and group headers, the groups of the
	// iteration being reduced, and the parallel reduce's result slots.
	grouper kv.Grouper
	groups  []kv.Group
	nvals   []any
}

func (l *pairReduceLoops) accumulate(a *accum, c shuffleChunk) error {
	if c.Cols != nil {
		return errMixedLoops
	}
	a.addPairs(c.Pairs, l.t.lastIn)
	return nil
}

// errMixedLoops fails a reduce that receives the other loops' records:
// the sending map's job was built differently (see columnLoops).
var errMixedLoops = errors.New("core: shuffle chunk from a map on the other record loops; every process must build the job alike")

func (l *pairReduceLoops) group(a *accum) int {
	l.groups = l.grouper.Group(a.pairs, l.t.job.Ops)
	return len(l.groups)
}

// release empties the grouping scratch, so it pins none of this
// iteration's records.
func (l *pairReduceLoops) release() {
	l.grouper.Reset()
	l.groups = nil
}

func (l *pairReduceLoops) reduce(iter int) (float64, error) {
	defer l.release()
	t, groups := l.t, l.groups
	// Large group sets run the user reduce across the pool first;
	// distance, prev-state, and output streaming then apply serially in
	// group order, so results and chunk boundaries are identical to the
	// all-serial path.
	var nvals []any
	if t.run.pool.shardsFor(len(groups)) > 1 {
		l.nvals = grown(l.nvals, len(groups))
		nvals = l.nvals
		defer clear(nvals)
		err := reduceSharded(t, nvals, func(i int) (any, error) {
			ns, err := t.job.Reduce(groups[i].Key, groups[i].Values)
			if err != nil {
				return nil, t.reduceErr(groups[i].Key, err)
			}
			return ns, nil
		})
		if err != nil {
			return 0, err
		}
	}
	var dist float64
	cmp := t.job.Ops.KeyOrder()
	for gi, g := range groups {
		var ns any
		if nvals != nil {
			ns = nvals[gi]
		} else {
			var err error
			if ns, err = t.job.Reduce(g.Key, g.Values); err != nil {
				return 0, t.reduceErr(g.Key, err)
			}
		}
		if t.isTermination {
			// Groups are key-ascending: one merge pass over the run.
			if pv, ok := t.prev.put(cmp, g.Key, ns); ok && t.job.Distance != nil {
				dist += t.job.Distance(g.Key, pv, ns)
			}
		}
		t.newState(iter, kv.Pair{Key: g.Key, Value: ns})
	}
	return dist, nil
}

// grown returns s at length n, reallocating only when its capacity is
// too small. The contents are unspecified.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
