package core

import (
	"errors"
	"fmt"
	"time"

	"imapreduce/internal/kv"
	"imapreduce/internal/metrics"
	"imapreduce/internal/trace"
	"imapreduce/internal/transport"
)

// mapTask is one persistent map task (§3.1.1). It lives for the whole
// run as a single goroutine draining its endpoint: state chunks from its
// feeding reduce task(s), and control commands from the master. All
// fields are owned by that goroutine.
type mapTask struct {
	e      *Engine
	run    *runState
	master string // the run's master address
	job    *Job
	phase  int // global phase index (for error reports)
	idx    int
	isAux  bool
	// selfLoads marks the main chain's first phase: its input for
	// iteration c+1 after a (rollback to c) comes from the checkpoint
	// files in DFS rather than from a feeding reduce.
	selfLoads bool
	// broadcast marks OneToAll input: state chunks arrive from every
	// reduce task and Map runs once per static record with the full
	// state list (§5.1.2).
	broadcast bool
	// stream marks asynchronous execution (§3.3): chunks of the current
	// iteration are joined and mapped the moment they arrive.
	stream  bool
	feeders int // reduce tasks feeding this map per iteration

	worker string
	gen    int
	iter   int // iteration currently awaiting/accumulating input

	ep        transport.Endpoint
	redAddrs  []string
	numReduce int
	bufThresh int
	// outBuf holds, per reduce, the chunk being filled (nil until its
	// first record); bufs is where its buffers come from and go back to,
	// holding up to one per reduce; serializes says ep encodes a payload
	// inside Send, so a sent buffer comes home at once, not from the
	// reduce.
	outBuf     []*chunkBuf
	bufs       *freeList
	serializes bool
	// sent counts, per reduce, the shuffle chunks of the iteration being
	// mapped, for the End chunk to announce.
	sent []chunkCount
	// static is this task's static partition, loaded once (§3.1): a
	// keyedRun that mapRange joins state against — or, for a broadcast
	// task, the records in file order, each mapped once per iteration.
	static []kv.Pair
	pend   map[int]*accum
	spare  *accum
	// lastIn is the previous iteration's state-input size, used to
	// presize the next accumulator.
	lastIn int
	// seq numbers outgoing shuffle chunks so receivers can discard
	// network duplicates; loadedGen records the generation whose go
	// command was already obeyed, making duplicated cmdGo a no-op.
	seq       int64
	loadedGen int
	// loops are the task's record loops (loops.go): the pair loops, or
	// the column loops of a job columnLoops picks.
	loops mapLoops
	// idleAt marks when the task last went idle; set only when tracing,
	// it anchors the per-iteration wait span. Compute spans emitted for
	// streamed chunks inside the window are carved out of the wait by
	// the decomposition's factor priority, so the wait never double-
	// counts asynchronous work.
	idleAt time.Time
}

// tid is the task's pair lane in the trace: auxiliary pairs are offset
// past the main pairs so the two never share a lane.
func (t *mapTask) tid() int {
	if t.isAux {
		return t.run.mainTasks + t.idx
	}
	return t.idx
}

// chunkKey identifies one data chunk within an iteration accumulator:
// the sending task plus its per-sender sequence number. Receivers use
// it to drop duplicated deliveries.
type chunkKey struct {
	from int
	seq  int64
}

// loop is the task body; it returns when the master terminates the run.
// With heartbeats enabled the task also beats the master every interval
// — from this goroutine, so a hung task (stalled worker) stops beating
// and becomes detectable (§3.4.1 extended).
func (t *mapTask) loop() {
	defer t.bufs.report(t.e.m)
	var beat <-chan time.Time
	if hb := t.e.opts.HeartbeatInterval; hb > 0 {
		tick := time.NewTicker(hb)
		defer tick.Stop()
		beat = tick.C
	}
	for {
		select {
		case msg, ok := <-t.ep.Recv():
			if !ok {
				return
			}
			t.e.stallPoint(t.worker)
			switch pl := msg.Payload.(type) {
			case stateChunk:
				t.handleState(pl)
			case cmdMsg:
				switch pl.Kind {
				case cmdTerminate, cmdAbort:
					return
				case cmdRollback:
					t.rollback(pl)
				case cmdGo:
					t.selfLoad(pl)
				}
			}
		case <-beat:
			t.e.stallPoint(t.worker)
			t.e.m.Add(metrics.HeartbeatsSent, 1)
			t.send(t.master, kindBeat, heartbeatMsg{Worker: t.worker, Phase: t.phase, Task: t.idx}, 0)
		}
	}
}

func (t *mapTask) fatal(err error) {
	t.send(t.master, kindFail, taskErrMsg{Phase: t.phase, Task: t.idx, Err: err.Error()}, 0)
}

func (t *mapTask) send(to, kind string, payload any, size int64) {
	// Retried; a frame still failing after that is counted and dropped —
	// send errors during shutdown are expected (peers already gone). A
	// record with no codec can never be sent: that fails the run.
	err := t.e.sendReliable(t.ep, to, transport.Message{Kind: kind, Payload: payload, Size: size})
	if errors.Is(err, transport.ErrUnencodable) {
		t.fatal(refusedRecord(payload, err))
	}
}

// loadStatic reads this task's static partition from the DFS.
func (t *mapTask) loadStatic() error {
	t.static = nil
	if t.job.StaticPath == "" {
		return nil
	}
	pairs, err := t.e.fs.ReadFile(t.run.staticPartPath(t.phase, t.idx), t.worker)
	if err != nil {
		return fmt.Errorf("map %d/%d: load static: %w", t.phase, t.idx, err)
	}
	if !t.broadcast {
		pairs = keyedRun(pairs, t.job.Ops)
	}
	t.static = pairs
	return nil
}

// rollback resets the task to restart from checkpoint iteration
// cmd.ToIter (§3.4.1): buffered state is discarded and in-flight traffic
// of the old generation will be dropped by the Gen check. The task acks
// so the master knows when the whole cluster is quiesced. A duplicated
// or reordered rollback for a generation already adopted is ignored —
// re-resetting mid-iteration would desync the task from the master.
func (t *mapTask) rollback(cmd cmdMsg) {
	if cmd.Gen <= t.gen {
		return
	}
	t.gen = cmd.Gen
	t.iter = cmd.ToIter + 1
	t.pend = make(map[int]*accum)
	clear(t.outBuf) // the old generation's half-filled buffers go to the GC
	clear(t.sent)
	if t.e.opts.Trace != nil {
		t.idleAt = time.Now()
	}
	t.send(t.master, kindCmd, rbAckMsg{Gen: t.gen, Phase: t.phase, Task: t.idx}, 0)
}

// selfLoad starts iteration toIter+1 on a first-phase map by reading the
// checkpointed state from DFS — the initial state at startup, or the
// last durable checkpoint after a failure or migration. One load per
// generation: a duplicated go command must not inject the state twice.
func (t *mapTask) selfLoad(cmd cmdMsg) {
	toIter := cmd.ToIter
	if !t.selfLoads || cmd.Gen != t.gen || t.loadedGen >= t.gen {
		return
	}
	t.loadedGen = t.gen
	parts := []int{t.idx}
	if t.broadcast {
		// Broadcast input: the whole state set, i.e. every checkpoint
		// part.
		parts = make([]int, t.run.mainTasks)
		for i := range parts {
			parts[i] = i
		}
	}
	var pairs []kv.Pair
	var lstart time.Time
	if tr := t.e.opts.Trace; tr != nil {
		lstart = time.Now()
	}
	for _, p := range parts {
		recs, err := t.e.fs.ReadFile(t.run.ckptPath(toIter, p), t.worker)
		if err != nil {
			t.fatal(fmt.Errorf("map %d/%d: load checkpoint %d: %w", t.phase, t.idx, toIter, err))
			return
		}
		pairs = append(pairs, recs...)
	}
	if tr := t.e.opts.Trace; tr != nil {
		tr.RecordSpan(trace.SpanLoad, t.worker, t.tid(), t.iter, lstart, time.Since(lstart))
	}
	t.seq++
	t.handleState(stateChunk{Gen: t.gen, Iter: t.iter, From: -1, Seq: t.seq, Pairs: pairs, End: 1})
	if t.broadcast {
		// The self-load stands in for all feeders at once.
		if a := t.pend[t.iter]; a != nil {
			a.ends = t.feeders
			t.tryComplete()
		}
	}
}

// handleState ingests one chunk of iterated state.
func (t *mapTask) handleState(c stateChunk) {
	// This handler owns the chunk's decode arena: c.Pairs is only read
	// within this call (streamed straight into process, or copied into
	// the accumulator), so the arena goes back to the pool on return.
	defer c.release()
	if c.Gen != t.gen || c.Iter < t.iter {
		return // stale: pre-rollback traffic
	}
	a := t.pend[c.Iter]
	if a == nil {
		a = takeAccum(&t.spare)
		t.pend[c.Iter] = a
	}
	if !a.take(c.From, c.Seq, c.End) {
		return // network-duplicated delivery
	}
	if len(c.Pairs) > 0 {
		if t.stream && c.Iter == t.iter {
			// Asynchronous execution: join + map immediately (§3.3).
			t.process(c.Iter, c.Pairs)
		} else {
			presize := t.lastIn
			if t.stream {
				presize = 0 // streamed input is mapped on arrival, not kept
			}
			a.addPairs(c.Pairs, presize)
		}
	}
	t.tryComplete()
}

// tryComplete finishes every iteration whose input is fully here.
func (t *mapTask) tryComplete() {
	for {
		a := t.pend[t.iter]
		if a == nil || a.ends < t.feeders {
			return
		}
		// The idle window closes here: everything since the task last
		// went idle that wasn't covered by a compute/shuffle span
		// (streamed chunks) was spent waiting for this iteration's
		// input.
		if tr := t.e.opts.Trace; tr != nil && !t.idleAt.IsZero() {
			tr.RecordSpan(trace.SpanWait, t.worker, t.tid(), t.iter,
				t.idleAt, time.Since(t.idleAt))
		}
		t.lastIn = len(a.pairs)
		if t.broadcast {
			t.processBroadcast(t.iter, a.pairs)
		} else if len(a.pairs) > 0 {
			t.process(t.iter, a.pairs)
		}
		t.flushEnds(t.iter)
		delete(t.pend, t.iter)
		if t.broadcast {
			// The user map was handed this list as its state (OneToAll):
			// it is not the task's to refill.
			a.pairs = make([]kv.Pair, 0, t.lastIn)
		}
		a.reset()
		t.spare = a
		t.iter++
		if t.e.opts.Trace != nil {
			t.idleAt = time.Now()
		}
	}
}

// process joins state records with this task's static records and runs
// the user map, partitioning emitted records toward the phase's reduces.
// Large inputs shard across the run's worker pool; the merged output is
// identical to the serial loop's (contiguous shards, merged in order).
func (t *mapTask) process(iter int, pairs []kv.Pair) {
	start := time.Now()
	if err := t.loops.mapState(iter, pairs); err != nil {
		t.fatal(err)
		return
	}
	t.e.stretch(t.worker, time.Since(start))
	t.e.opts.Trace.RecordSpan(trace.SpanMap, t.worker, t.tid(), iter, start, time.Since(start))
}

// mapRange runs the user map over one range of state pairs, each joined
// with the static record of its key.
func (t *mapTask) mapRange(pairs []kv.Pair, em kv.Emit) error {
	return t.joinStatic(pairs, func(p kv.Pair, static any) error {
		return t.job.Map(p.Key, p.Value, static, em)
	})
}

// joinStatic calls fn on every state pair of a range, in order, with the
// static value of its key (nil when the key has none). The cursor is the
// range's own: shards of one input run side by side.
func (t *mapTask) joinStatic(pairs []kv.Pair, fn func(p kv.Pair, static any) error) error {
	run, cmp, cur := t.static, t.job.Ops.KeyOrder(), 0
	for _, p := range pairs {
		var static any
		if len(run) > 0 {
			static, cur = seek(run, cmp, cur, p.Key)
		}
		if err := fn(p, static); err != nil {
			return fmt.Errorf("map %d/%d key %v: %w", t.phase, t.idx, p.Key, err)
		}
	}
	return nil
}

// processBroadcast runs the user map once per static record with the
// complete state list (OneToAll); large static sets shard like process.
// A broadcast job runs the pair loops (see columnLoops).
func (t *mapTask) processBroadcast(iter int, statePairs []kv.Pair) {
	start := time.Now()
	t.job.Ops.SortPairs(statePairs) // deterministic state order across runs
	l := t.loops.(*pairMapLoops)
	if t.run.pool.shardsFor(len(t.static)) > 1 {
		err := l.sharded(iter, len(t.static), func(lo, hi int, em kv.Emit) error {
			return t.broadcastRange(t.static[lo:hi], statePairs, em)
		})
		if err != nil {
			t.fatal(err)
			return
		}
	} else if err := t.broadcastRange(t.static, statePairs, l.emitter()); err != nil {
		t.fatal(err)
		return
	}
	t.e.stretch(t.worker, time.Since(start))
	t.e.opts.Trace.RecordSpan(trace.SpanMap, t.worker, t.tid(), iter, start, time.Since(start))
}

// broadcastRange runs the user map over one range of static pairs with
// the full state list.
func (t *mapTask) broadcastRange(static, statePairs []kv.Pair, em kv.Emit) error {
	for _, sp := range static {
		if err := t.job.Map(sp.Key, statePairs, sp.Value, em); err != nil {
			return fmt.Errorf("map %d/%d key %v: %w", t.phase, t.idx, sp.Key, err)
		}
	}
	return nil
}

// runSharded runs an n-record map loop in windows of shardWindowPairs
// records. Each window splits into contiguous shards run on the pool:
// body(sh, lo, hi) maps records [lo, hi) into shard sh's rows, and the
// rows are then drained partition by partition, in shard order, into the
// chunk buffers before the next window starts. Every partition therefore
// sees its records in exactly the serial loop's order, and chunk contents
// and boundaries are the serial loop's whatever the window and shard
// counts. The user map must be safe to call concurrently
// (Options.Parallelism).
func (t *mapTask) runSharded(iter, n int, rows shardRows, body func(sh, lo, hi int) error) error {
	errs := make([]error, t.run.pool.shardsFor(min(n, shardWindowPairs)))
	for base := 0; base < n; base += shardWindowPairs {
		w := min(shardWindowPairs, n-base)
		shards := t.run.pool.shardsFor(w) // the last window may be narrower
		rows.size(shards)
		t.run.pool.runShards(shards, func(sh int) {
			lo, hi := shardRange(w, shards, sh)
			errs[sh] = body(sh, base+lo, base+hi)
		})
		for _, err := range errs[:shards] {
			if err != nil {
				rows.recycle()
				return err
			}
		}
		for r := 0; r < t.numReduce; r++ {
			rows.drain(t, iter, r)
		}
		rows.recycle()
	}
	return nil
}

// fill moves n records into reduce r's chunk buffers, sending each one
// that reaches BufferThreshold: move(b, lo, hi) appends records [lo, hi)
// of the caller's source to b.
func (t *mapTask) fill(iter, r, n int, move func(b *chunkBuf, lo, hi int)) {
	for lo := 0; lo < n; {
		b := t.out(r)
		hi := min(n, lo+t.bufThresh-b.len())
		move(b, lo, hi)
		lo = hi
		if b.len() >= t.bufThresh {
			t.sendShuffle(iter, r, false)
		}
	}
}

// out returns the chunk buffer being filled for reduce r, taking one
// from the free list when r has none.
func (t *mapTask) out(r int) *chunkBuf {
	if t.outBuf[r] == nil {
		t.outBuf[r] = t.bufs.get()
	}
	return t.outBuf[r]
}

// sendShuffle flushes the buffer for reduce r, its records packed by the
// task's loops (a combiner runs there).
//
// Ownership (DESIGN §7): the buffer travels with the chunk and comes
// home to t.bufs — from the reduce once it has copied the records out,
// or from here right after Send when the endpoint serializes. Until then
// it is never written. A chunk packed into a fresh payload carries no
// lease, and the buffer stays for the next batch.
func (t *mapTask) sendShuffle(iter, r int, end bool) {
	var sstart time.Time
	if tr := t.e.opts.Trace; tr != nil {
		sstart = time.Now()
		defer func() {
			tr.RecordSpan(trace.SpanShuffle, t.worker, t.tid(), iter, sstart, time.Since(sstart))
		}()
	}
	b := t.outBuf[r]
	c := shuffleChunk{Gen: t.gen, Iter: iter, FromMap: t.idx, lease: leaseOf(b)}
	c, size, err := t.loops.pack(c, b)
	if err != nil {
		t.fatal(err)
		return
	}
	if c.lease.buf != nil {
		t.outBuf[r] = nil
	}
	t.e.m.Add(metrics.ShuffleBytes, size)
	if t.run.workerOfPhasePair(t.phase, r) != t.worker {
		t.e.m.Add(metrics.ShuffleRemote, size)
	}
	t.seq++
	c.Seq, c.End = t.seq, t.sent[r].next(end)
	t.send(t.redAddrs[r], kindShuffle, c, size)
	if t.serializes {
		c.lease.giveBack()
	}
}

// flushEnds sends every reduce its remaining pairs with the
// end-of-iteration marker (the maps→reduce barrier signal).
func (t *mapTask) flushEnds(iter int) {
	for r := 0; r < t.numReduce; r++ {
		t.sendShuffle(iter, r, true)
	}
}
