package core

import (
	"errors"
	"fmt"
	"slices"
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
	sent   []chunkCount
	pend   map[int]*accum
	spares []*accum
	// lastIn is the previous iteration's state-input size, used to
	// presize the next accumulator.
	lastIn int
	// seq numbers outgoing shuffle chunks so receivers can discard
	// network duplicates; loadedGen records the generation whose go
	// command was already obeyed, making duplicated cmdGo a no-op.
	seq       int64
	loadedGen int
	// loops are the task's record loops (loops.go), which hold its static
	// partition, loaded once (§3.1).
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

// loop is the task body; it returns when the master aborts the run or
// the task's endpoint closes. A terminated run's maps have nothing left
// to do, but stay for a recovery that replays the run's last iterations
// (see masterLoop's failWorker).
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
				case cmdAbort:
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

// loadStatic reads this task's static partition from the DFS and hands
// it to the task's loops.
func (t *mapTask) loadStatic() error {
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
	if err := t.loops.setStatic(pairs); err != nil {
		return fmt.Errorf("map %d/%d: load static: %w", t.phase, t.idx, err)
	}
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
	t.loops.forget()
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
	in, err := t.loops.unbox(pairs)
	if err != nil {
		t.fatal(fmt.Errorf("map %d/%d: load checkpoint %d: %w", t.phase, t.idx, toIter, err))
		return
	}
	if tr := t.e.opts.Trace; tr != nil {
		tr.RecordSpan(trace.SpanLoad, t.worker, t.tid(), t.iter, lstart, time.Since(lstart))
	}
	t.seq++
	t.handleState(stateChunk{Gen: t.gen, Iter: t.iter, From: -1, Seq: t.seq, Cols: in, End: 1})
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
	// This handler owns the chunk's decode batch: its records are only
	// read within this call (streamed straight into process, or copied
	// into the accumulator), so they go back to the pool on return.
	defer c.release()
	if c.Gen != t.gen || c.Iter < t.iter {
		return // stale: pre-rollback traffic
	}
	a := t.pend[c.Iter]
	if a == nil {
		a = takeAccum(&t.spares)
		t.pend[c.Iter] = a
	}
	if !a.take(c.From, c.Seq, c.End) {
		return // network-duplicated delivery
	}
	if t.broadcast {
		// A broadcast task sorts its whole input before mapping it, so the
		// order its feeders' chunks arrive in does not matter.
		t.consume(a, c.Iter, c.Cols)
	} else if !t.takeInOrder(a, c) {
		return
	}
	t.tryComplete()
}

// takeInOrder consumes a chunk from the task's one feeder in slot order:
// a chunk that arrives before its turn is copied aside until the chunks
// before it are here. The map so sees its input, and emits its output, in
// the order the feeder sent it whatever the network did, and a column
// reduce downstream sees the same chunks every run (DESIGN §5). It
// reports false when the task failed.
func (t *mapTask) takeInOrder(a *accum, c stateChunk) bool {
	if c.Slot != a.next {
		var early accum
		if err := t.loops.accumulate(&early, c.Cols, 0); err != nil {
			t.fatal(fmt.Errorf("map %d/%d: %w", t.phase, t.idx, err))
			return false
		}
		a.held = append(a.held, heldState{slot: c.Slot, in: early.records})
		return true
	}
	in := c.Cols
	for {
		if !t.consume(a, c.Iter, in) {
			return false
		}
		a.next++
		i := -1
		for j, h := range a.held {
			if h.slot == a.next {
				i = j
			}
		}
		if i < 0 {
			return true
		}
		in = a.held[i].in
		a.held = slices.Delete(a.held, i, i+1)
	}
}

// consume maps records of iteration iter at once when the task streams
// (§3.3) and is on that iteration, and adds them to a otherwise. It
// reports false when the task failed.
func (t *mapTask) consume(a *accum, iter int, in records) bool {
	if recLen(in) == 0 {
		return true
	}
	if t.stream && iter == t.iter {
		// Asynchronous execution: join + map immediately (§3.3).
		t.process(iter, in)
		return true
	}
	presize := t.lastIn
	if t.stream {
		presize = 0 // streamed input is mapped on arrival, not kept
	}
	if err := t.loops.accumulate(a, in, presize); err != nil {
		t.fatal(fmt.Errorf("map %d/%d: %w", t.phase, t.idx, err))
		return false
	}
	return true
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
		t.lastIn = recLen(a.records)
		if t.broadcast || t.lastIn > 0 {
			// A broadcast map runs once per static record, whatever state
			// there is.
			t.process(t.iter, a.records)
		}
		t.flushEnds(t.iter)
		delete(t.pend, t.iter)
		a.retire(&t.spares)
		t.iter++
		if t.e.opts.Trace != nil {
			t.idleAt = time.Now()
		}
	}
}

// process joins state records with this task's static records and runs
// the user map, partitioning emitted records toward the phase's reduces.
func (t *mapTask) process(iter int, in records) {
	start := time.Now()
	if err := t.loops.mapState(in); err != nil {
		t.fatal(err)
		return
	}
	t.e.stretch(t.worker, time.Since(start))
	t.e.opts.Trace.RecordSpan(trace.SpanMap, t.worker, t.tid(), iter, start, time.Since(start))
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
	t.seq++
	slot := int(t.sent[r])
	c := shuffleChunk{Gen: t.gen, Iter: iter, FromMap: t.idx, Seq: t.seq, End: t.sent[r].next(end),
		Slot: slot, KeyEpoch: iter, lease: leaseOf(b)}
	c, size, err := t.loops.pack(r, c, b)
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
