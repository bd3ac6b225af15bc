package core

import (
	"errors"
	"fmt"

	"imapreduce/internal/kv"
)

// The record loops (DESIGN §5, "One loop source"). Everything a task does
// once per record sits behind mapLoops and reduceLoops: the static
// partition and the join against it, the user map's emit and partition,
// the chunk's payload and its byte charge, adding a chunk to an
// accumulator, grouping, the user reduce, the previous-state run and the
// new state's way back to the map, and the form records take where they
// meet the DFS. There is one loop source, the column loops
// (colloops.go), in two instantiations: the typed one of a job
// typedLoops picks, over its ScalarJob's functions, and the boxed one
// (V = any) of every other job, over the Job's own. Everything around
// them is the tasks' own: generations, Seq and End counts, accumulators,
// buffer leases and free lists, gating, reports, checkpoints and
// rollback. A task runs its loops on its own goroutine, one call of a
// user function at a time.

// mapLoops is a map task's record loops.
type mapLoops interface {
	// setStatic installs the task's static partition: a keyedRun, or a
	// broadcast task's records in file order.
	setStatic(static []kv.Pair) error
	// unbox returns state records read from the DFS in the loops' form.
	unbox(pairs []kv.Pair) (records, error)
	// accumulate adds state records to a, making room for presize records
	// first when it has none. Records of the other instantiation are an
	// error: their sender built the job differently.
	accumulate(a *accum, in records, presize int) error
	// mapState runs the user map over state records of the iteration the
	// task is on, filing what it emits into the task's chunk buffers and
	// sending each that fills (sendShuffle).
	mapState(in records) error
	// pack returns c, bound for reduce r, with b's records — none when b
	// is nil — as its payload, and the bytes they are charged. It may pack
	// a fresh payload instead (the combiner's), clearing c's lease, and
	// marks a chunk whose keys r already holds (SameKeys).
	pack(r int, c shuffleChunk, b *chunkBuf) (shuffleChunk, int64, error)
	// forget drops what the loops remember of the chunks they sent — their
	// key columns — when the generation changes.
	forget()
}

// reduceLoops is a reduce task's record loops.
type reduceLoops interface {
	// accumulate places a shuffle chunk's records into a by the slot map
	// of the last grouping (colReduceLoops.accumulate); records of the
	// other instantiation are an error, as in mapLoops.
	accumulate(a *accum, c shuffleChunk) error
	// group groups a's records by key for reduce — keys ascending, each
	// key's values in canonical (map, slot, position) order — and returns
	// the number of groups.
	group(a *accum) (int, error)
	// reduce runs the user reduce over the groups in key order, merges
	// each new state into the previous-state run on a termination phase,
	// and hands it to the task's output (the loop-back chunks, and the
	// whole state when one is kept). It returns the iteration's distance
	// sum.
	reduce(iter int) (float64, error)
	// bytes is what the task's new-state records r are charged.
	bytes(r records) int64
	// loadPrev replaces the previous-state run with a checkpoint part's
	// records, in file order.
	loadPrev(pairs []kv.Pair) error
	// final returns the previous-state run as key-ordered pairs — the
	// task's part of the output — and drops it: a replay's rollback
	// reloads it (loadPrev).
	final() []kv.Pair
	// forget drops what the loops learned from the chunks they took — the
	// layout — when the generation changes.
	forget()
}

// loopsDef makes the record loops of a phase's tasks and the batches
// their chunk buffers hold.
type loopsDef interface {
	mapLoops(t *mapTask) mapLoops
	reduceLoops(t *reduceTask) reduceLoops
	newCols(n int) records
}

// loopsOf returns the loops of phase of a run of job: the typed
// instantiation for a job typedLoops picks (it has one phase), the boxed
// one for every phase of any other job, its auxiliary phase included.
func loopsOf(job *Job, phase int) loopsDef {
	if phase == 0 && typedLoops(job) {
		return job.scalar
	}
	return boxedDef{}
}

// errMixedLoops fails a task that receives records of the other
// instantiation: the sending task's job was built differently (see
// typedLoops).
var errMixedLoops = errors.New("core: chunk from a task on the other record loops; every process must build the job alike")

// boxedDef is the boxed instantiation: V = any, S the static record, over
// the functions of the task's own job.
type boxedDef struct{}

func (boxedDef) newCols(n int) records { return kv.NewCols[any](n) }

// boxedSize charges boxed records what ops charges their pairs; every
// key is an int64, whose size does not depend on its value.
func boxedSize(ops *kv.Ops) func([]any) int64 {
	return func(vals []any) int64 {
		var n int64
		for _, v := range vals {
			n += int64(ops.PairSize(kv.Pair{Key: int64(0), Value: v}))
		}
		return n
	}
}

func (boxedDef) reduceLoops(t *reduceTask) reduceLoops {
	job := t.job
	l := &colReduceLoops[any]{t: t, size: boxedSize(&job.Ops)}
	l.boxKeys, l.prev.boxed = true, true
	l.reduceFn = func(_ int64, box any, vals []any) (any, error) { return job.Reduce(box, vals) }
	if job.Distance != nil {
		l.distFn = func(_ int64, box, prev, cur any) float64 { return job.Distance(box, prev, cur) }
	}
	return l
}

// boxedMapLoops are the boxed instantiation's map loops. Their static
// value S is the static record itself, whose key box a map call is
// handed: the engine boxes no key it holds a box of. Beside the column
// loops' join they serve what only an untyped job has: OneToAll
// broadcast and the combiner.
type boxedMapLoops struct {
	*colMapLoops[any, kv.Pair]
	// static is a broadcast task's static partition in file order: its map
	// runs once per record, with the whole state.
	static []kv.Pair
	// emitAny is the user map's emit, made once; err is the first key it
	// was handed that is not an int64, reported when the map returns.
	emitAny kv.Emit
	err     error
	grouper kv.ColGrouper[any] // the combiner's
}

func (boxedDef) mapLoops(t *mapTask) mapLoops {
	l := &boxedMapLoops{colMapLoops: newColMapLoops[any, kv.Pair](t)}
	l.size = boxedSize(&t.job.Ops)
	l.staticOf = func(p kv.Pair) (kv.Pair, bool) { return p, true }
	l.emitAny = func(k, v any) {
		if ik, ok := k.(int64); ok {
			l.emit(ik, v)
		} else if l.err == nil {
			l.err = fmt.Errorf("emitted a %T key: %w", k, ErrKeyType)
		}
	}
	l.mapFn = func(k int64, v any, s kv.Pair, _ func(int64, any)) error {
		if s.Key == nil {
			s.Key = k // no static record
		}
		return l.call(s.Key, v, s.Value)
	}
	return l
}

// call runs the job's map on one record.
func (l *boxedMapLoops) call(key, state, static any) error {
	err := l.t.job.Map(key, state, static, l.emitAny)
	if bad := l.err; bad != nil {
		l.err = nil
		if err == nil {
			err = bad
		}
	}
	return err
}

func (l *boxedMapLoops) setStatic(static []kv.Pair) error {
	if l.t.broadcast {
		l.static = static
		return nil
	}
	return l.colMapLoops.setStatic(static)
}

// mapState runs a broadcast task's map once per static record, in file
// order, with the whole state as key-sorted pairs (§5.1.2); any other
// task's as the column loops do.
func (l *boxedMapLoops) mapState(in records) error {
	if !l.t.broadcast {
		return l.colMapLoops.mapState(in)
	}
	src, err := colsIn[any](in)
	if err != nil {
		return err
	}
	var state []kv.Pair
	if src != nil {
		state = src.Box(nil)
	}
	l.t.job.Ops.SortPairs(state) // deterministic state order across runs
	for _, sp := range l.static {
		if err := l.call(sp.Key, state, sp.Value); err != nil {
			return fmt.Errorf("map %d/%d key %v: %w", l.t.phase, l.t.idx, sp.Key, err)
		}
	}
	return nil
}

// pack runs the combiner over the chunk first when one is configured.
// When it shrinks the chunk the combined batch, keys ascending, is sent
// instead, and the buffer stays for the next batch.
func (l *boxedMapLoops) pack(r int, c shuffleChunk, b *chunkBuf) (shuffleChunk, int64, error) {
	t := l.t
	if b == nil || t.job.Combine == nil || b.Len() < 2 {
		return l.colMapLoops.pack(r, c, b)
	}
	g := l.grouper.Group(b.records.(*kv.Cols[any]))
	defer clear(g.Vals)
	if len(g.Keys) == b.Len() {
		// Every key unique: combining cannot shrink the chunk, and reduce
		// functions accept uncombined values (the Hadoop combiner
		// contract), so skip the pass and ship the buffer itself.
		return l.colMapLoops.pack(r, c, b)
	}
	combined := kv.NewCols[any](len(g.Keys))
	for i, k := range g.Keys {
		v, err := t.job.Combine(k, g.Values(i))
		if err != nil {
			return c, 0, fmt.Errorf("map %d/%d combine key %v: %w", t.phase, t.idx, k, err)
		}
		combined.Append(k, v)
	}
	b.Reset()
	c.lease = bufLease{}
	c, size := l.packCols(r, c, combined)
	return c, size, nil
}
