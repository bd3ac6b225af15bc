package core

import (
	"errors"
	"fmt"

	"imapreduce/internal/kv"
)

// The record loops (DESIGN §5, "Typed records over an untyped core").
// Everything a task does once per record sits behind mapLoops and
// reduceLoops: the static partition and the join against it, the user
// map's emit and partition, the chunk's payload and its byte charge,
// adding a chunk to an accumulator, grouping, the user reduce, the
// previous-state run and the new state's way back to the map, and the
// form records take where they meet the DFS. The pair loops below move
// kv.Pair and serve every job; the column loops (colloops.go) move
// kv.Cols and serve the jobs columnLoops picks. Everything around them is
// the tasks' own and shared by both: generations, Seq and End counts,
// accumulators, buffer leases and free lists, gating, reports,
// checkpoints and rollback. A task runs its loops on its own goroutine,
// one call of a user function at a time.

// mapLoops is a map task's record loops.
type mapLoops interface {
	// setStatic installs the task's static partition: a keyedRun, or a
	// broadcast task's records in file order.
	setStatic(static []kv.Pair) error
	// unbox returns state records read from the DFS in the loops' form.
	unbox(pairs []kv.Pair) (records, error)
	// accumulate adds state records to a, making room for presize records
	// first when it has none. Records of the other loops are an error:
	// their sender built the job differently.
	accumulate(a *accum, in records, presize int) error
	// mapState runs the user map over state records of the iteration the
	// task is on, filing what it emits into the task's chunk buffers and
	// sending each that fills (sendShuffle).
	mapState(in records) error
	// pack returns c, bound for reduce r, with b's records — none when b
	// is nil — as its payload, and the bytes they are charged. It may pack
	// a fresh payload instead, clearing c's lease, and the column loops
	// mark a chunk whose keys r already holds (SameKeys).
	pack(r int, c shuffleChunk, b *chunkBuf) (shuffleChunk, int64, error)
	// forget drops what the loops remember of the chunks they sent — the
	// column loops' key columns — when the generation changes.
	forget()
}

// reduceLoops is a reduce task's record loops.
type reduceLoops interface {
	// accumulate takes a shuffle chunk's records into a; records of the
	// other loops are an error, as in mapLoops. The pair loops append
	// them in arrival order, the column loops place them by the slot map
	// of the last grouping (colReduceLoops.accumulate).
	accumulate(a *accum, c shuffleChunk) error
	// group groups a's records by key for reduce — keys ascending, each
	// key's values in arrival order on the pair loops and in canonical
	// (map, slot, position) order on the column loops — and returns the
	// number of groups.
	group(a *accum) (int, error)
	// reduce runs the user reduce over the groups in key order, merges
	// each new state into the previous-state run on a termination phase,
	// and hands it to the task's output (the loop-back chunks, and the
	// whole state when one is kept). It returns the iteration's distance
	// sum and releases the grouping scratch.
	reduce(iter int) (float64, error)
	// bytes is what the task's new-state records r are charged.
	bytes(r records) int64
	// loadPrev replaces the previous-state run with a checkpoint part's
	// records, in file order.
	loadPrev(pairs []kv.Pair) error
	// final returns the previous-state run as key-ordered pairs: the
	// task's part of the output.
	final() []kv.Pair
	// forget drops what the loops learned from the chunks they took — the
	// column loops' layout — when the generation changes.
	forget()
}

// pairMapLoops are the pair loops of a map task.
type pairMapLoops struct {
	t *mapTask
	// Task-lifetime scratch: the map's emit and the combiner's grouping
	// kernel.
	emit    kv.Emit
	grouper kv.Grouper
}

// newPairMapLoops returns t's pair loops. Their emit partitions a pair by
// the phase's Ops and sends its reduce's chunk buffer when it reaches
// BufferThreshold. It is made once per task — a closure per map pass
// would cost an allocation per pass — so it files its output under
// t.iter: a task only ever maps the iteration it is on.
func newPairMapLoops(t *mapTask) *pairMapLoops {
	return &pairMapLoops{t: t, emit: func(k, v any) {
		r := t.job.Ops.Partition(k, t.numReduce)
		b := t.out(r)
		b.pairs = append(b.pairs, kv.Pair{Key: k, Value: v})
		if len(b.pairs) >= t.bufThresh {
			t.sendShuffle(t.iter, r, false)
		}
	}}
}

func (l *pairMapLoops) setStatic(static []kv.Pair) error {
	l.t.static = static
	return nil
}

func (l *pairMapLoops) unbox(pairs []kv.Pair) (records, error) {
	return records{pairs: pairs}, nil
}

func (l *pairMapLoops) accumulate(a *accum, in records, presize int) error {
	return addPairs(a, in, presize)
}

// addPairs is the pair loops' accumulate. It makes room for presize
// records when a has none yet: iterative jobs move nearly the same record
// count every round.
func addPairs(a *accum, in records, presize int) error {
	if in.cols != nil {
		return errMixedLoops
	}
	if a.pairs == nil {
		a.pairs = make([]kv.Pair, 0, max(presize, len(in.pairs)))
	}
	a.pairs = append(a.pairs, in.pairs...)
	return nil
}

func (l *pairMapLoops) mapState(in records) error {
	if in.cols != nil {
		return errMixedLoops
	}
	return l.t.mapRange(in.pairs, l.emit)
}

// pack runs the combiner over the chunk first when one is configured.
// When it shrinks the chunk the fresh combined slice is sent instead, and
// the buffer stays for the next batch.
func (l *pairMapLoops) pack(_ int, c shuffleChunk, b *chunkBuf) (shuffleChunk, int64, error) {
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
	// its key index, values array and group headers, and the groups of
	// the iteration being reduced.
	grouper kv.Grouper
	groups  []kv.Group
	// prev is a termination phase's previous-state run.
	prev stateRun
	// lastIn is the last iteration's input record count, which presizes
	// the next accumulator.
	lastIn int
}

func (l *pairMapLoops) forget() {}

func (l *pairReduceLoops) accumulate(a *accum, c shuffleChunk) error {
	return addPairs(a, c.records(), l.lastIn)
}

func (l *pairReduceLoops) forget() {}

// errMixedLoops fails a task that receives the other loops' records: the
// sending task's job was built differently (see columnLoops).
var errMixedLoops = errors.New("core: chunk from a task on the other record loops; every process must build the job alike")

func (l *pairReduceLoops) bytes(r records) int64 {
	var size int64
	for _, p := range r.pairs {
		size += int64(l.t.job.Ops.PairSize(p))
	}
	return size
}

func (l *pairReduceLoops) loadPrev(pairs []kv.Pair) error {
	l.prev.load(pairs, l.t.job.Ops)
	return nil
}

func (l *pairReduceLoops) final() []kv.Pair { return l.prev.run }

func (l *pairReduceLoops) group(a *accum) (int, error) {
	l.lastIn = len(a.pairs)
	l.groups = l.grouper.Group(a.pairs, l.t.job.Ops)
	return len(l.groups), nil
}

// release empties the grouping scratch, so it pins none of this
// iteration's records.
func (l *pairReduceLoops) release() {
	l.grouper.Reset()
	l.groups = nil
}

func (l *pairReduceLoops) reduce(iter int) (float64, error) {
	defer l.release()
	t := l.t
	var dist float64
	cmp := t.job.Ops.KeyOrder()
	for _, g := range l.groups {
		ns, err := t.job.Reduce(g.Key, g.Values)
		if err != nil {
			return 0, t.reduceErr(g.Key, err)
		}
		if t.isTermination {
			// Groups are key-ascending: one merge pass over the run.
			if pv, ok := l.prev.put(cmp, g.Key, ns); ok && t.job.Distance != nil {
				dist += t.job.Distance(g.Key, pv, ns)
			}
		}
		l.newState(iter, kv.Pair{Key: g.Key, Value: ns})
	}
	if t.isTermination {
		l.prev.end()
	}
	return dist, nil
}

// newState adds one key's new state to the iteration's output: to the
// whole-state copy when one is kept, and to the loop-back chunk buffer
// unless the output is gated.
func (l *pairReduceLoops) newState(iter int, p kv.Pair) {
	t := l.t
	if t.whole != nil {
		t.whole.pairs = append(t.whole.pairs, p)
	}
	if t.gated {
		return
	}
	if t.outBuf == nil {
		t.outBuf = t.bufs.get()
	}
	t.outBuf.pairs = append(t.outBuf.pairs, p)
	if len(t.outBuf.pairs) >= t.bufThresh {
		t.flushStreaming(iter, false)
	}
}
