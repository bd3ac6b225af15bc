package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"imapreduce/internal/kv"
	"imapreduce/internal/metrics"
	"imapreduce/internal/trace"
	"imapreduce/internal/transport"
)

// reduceTask is one persistent reduce task. It collects shuffle chunks
// from every map task of its phase, reactivates when all of them have
// finished the iteration (the maps→reduce barrier the paper keeps), runs
// the user reduce, and streams the new state over the persistent
// connection to its paired map task — plus broadcast/auxiliary copies
// when configured.
type reduceTask struct {
	e      *Engine
	run    *runState
	master string // the run's master address
	job    *Job
	phase  int
	idx    int
	isAux  bool
	// isTermination marks the main chain's final phase: it keeps the
	// previous iteration's state for the Distance test, reports
	// iteration completions to the master, writes checkpoints, and
	// produces the final output.
	isTermination bool

	worker string
	gen    int
	iter   int
	// genAtomic mirrors gen for the checkpoint writer goroutines: a
	// writer that finds the generation moved on while it wrote must not
	// commit its file or its ack under the new generation.
	genAtomic atomic.Int64
	// ckptWG joins the checkpoint writers at loop exit, so no checkpoint
	// goroutine outlives the run.
	ckptWG sync.WaitGroup

	ep      transport.Endpoint
	numMaps int

	// Routing of the new state: targetAddrs are the next phase's maps
	// (one for OneToOne, all for broadcast); targetIterDelta is 1 when
	// this reduce closes the iteration loop (last phase → first phase)
	// and 0 between consecutive phases of one iteration.
	targetAddrs     []string
	targetPhase     int
	targetIterDelta int
	// toMaster replaces targets for an auxiliary phase's reduce: output
	// goes to the master for the AuxDecide test.
	toMaster bool
	// auxAddrs receive an extra copy of the state (termination phase of
	// a job with an auxiliary phase).
	auxAddrs []string
	auxPhase int

	bufThresh int
	// outBuf is the state chunk being filled (nil until its first record);
	// bufs is where its buffers come from and go back to (see
	// flushStreaming); serializes says ep encodes a payload inside Send.
	outBuf     *chunkBuf
	bufs       *freeList
	serializes bool
	pend       map[int]*accum
	// spares are finished iterations' (emptied) accumulators, which the
	// next iterations take instead of allocating one.
	spares []*accum
	// loops are the task's record loops (loops.go). A termination phase's
	// previous-state run is theirs.
	loops reduceLoops
	// whole collects the iteration's whole new state while it is reduced,
	// when something consumes it as a whole (see finishIteration); nil
	// otherwise.
	whole records
	// feedMain gates loop-back delivery: once the iteration bound is
	// reached the termination reduce stops feeding the next iteration,
	// so the final state is exactly iteration MaxIter.
	feedMain bool
	// gated marks a termination reduce whose job can stop at any
	// iteration boundary (distance threshold or auxiliary decision):
	// loop-back output is held until the master's proceed command so
	// the computation never runs past the decided stop.
	gated bool
	held  map[int]records
	// finalGen is the generation whose final output the task wrote, 0
	// before it wrote any: a termination reduce writes its final once per
	// generation, and keeps serving after it (see loop).
	finalGen int
	// seq numbers outgoing state chunks for receiver-side duplicate
	// suppression; mainSent and auxSent count the chunks of the iteration
	// being sent to the next phase's maps and to the auxiliary maps, for
	// the End chunk to announce.
	seq               int64
	mainSent, auxSent chunkCount
	// ownDone records, per pending iteration, when this pair's own map
	// finished (its End chunk arrived). Tracing only: the interval from
	// there to the last map's End is the barrier wait — the §3.3 cost
	// the asynchronous engine tries to hide.
	ownDone map[int]time.Time
	// idleSince is when this reduce last went idle (finished delivering
	// an iteration). Tracing only: from the second iteration on, the
	// barrier span starts here, so inter-iteration idle is classified as
	// sync wait — mirroring the map side's SpanWait window.
	idleSince time.Time
}

// tid mirrors mapTask.tid: auxiliary pairs get their own trace lanes.
func (t *reduceTask) tid() int {
	if t.isAux {
		return t.run.mainTasks + t.idx
	}
	return t.idx
}

func (t *reduceTask) loop() {
	defer t.bufs.report(t.e.m)
	var beat <-chan time.Time
	if hb := t.e.opts.HeartbeatInterval; hb > 0 {
		tick := time.NewTicker(hb)
		defer tick.Stop()
		beat = tick.C
	}
	// However the loop exits, in-flight checkpoint writers are joined
	// first: a checkpoint goroutine must never touch the DFS after the
	// run has returned.
	defer t.ckptWG.Wait()
	for {
		select {
		case msg, ok := <-t.ep.Recv():
			if !ok {
				return
			}
			t.e.stallPoint(t.worker)
			switch pl := msg.Payload.(type) {
			case shuffleChunk:
				t.handleShuffle(pl)
			case cmdMsg:
				switch pl.Kind {
				case cmdTerminate:
					// The task stays: a worker lost before every final is in
					// rolls the run back, and this task replays its last
					// iterations and writes its final again.
					t.writeFinal()
				case cmdAbort:
					return
				case cmdRollback:
					t.rollback(pl)
				case cmdProceed:
					if out, ok := t.held[pl.ToIter]; ok {
						delete(t.held, pl.ToIter)
						t.deliverChunk(t.targetAddrs, t.targetPhase, pl.ToIter, pl.ToIter+t.targetIterDelta, out, &t.mainSent, true, bufLease{})
					}
				}
			}
		case <-beat:
			t.e.stallPoint(t.worker)
			t.e.m.Add(metrics.HeartbeatsSent, 1)
			t.send(t.master, kindBeat, heartbeatMsg{Worker: t.worker, Phase: t.phase, Task: t.idx}, 0)
		}
	}
}

func (t *reduceTask) fatal(err error) {
	t.send(t.master, kindFail, taskErrMsg{Phase: t.phase, Task: t.idx, Err: err.Error()}, 0)
}

func (t *reduceTask) send(to, kind string, payload any, size int64) {
	err := t.e.sendReliable(t.ep, to, transport.Message{Kind: kind, Payload: payload, Size: size})
	if errors.Is(err, transport.ErrUnencodable) {
		t.fatal(refusedRecord(payload, err)) // see mapTask.send
	}
}

// rollback resets to checkpoint iteration cmd.ToIter; the termination
// phase reloads its previous-state run from the checkpoint so the
// next distance measurement is taken against the right baseline.
func (t *reduceTask) rollback(cmd cmdMsg) {
	if cmd.Gen <= t.gen {
		return // duplicated or reordered rollback: already adopted
	}
	t.gen = cmd.Gen
	t.genAtomic.Store(int64(cmd.Gen))
	t.iter = cmd.ToIter + 1
	t.pend = make(map[int]*accum)
	t.outBuf = nil
	t.mainSent, t.auxSent = 0, 0
	t.held = make(map[int]records)
	t.ownDone = nil
	t.loops.forget()
	if t.e.opts.Trace != nil {
		t.idleSince = time.Now()
	}
	defer t.send(t.master, kindCmd, rbAckMsg{Gen: t.gen, Phase: t.phase, Task: t.idx}, 0)
	if !t.isTermination {
		return
	}
	pairs, err := t.e.fs.ReadFile(t.run.ckptPath(cmd.ToIter, t.idx), t.worker)
	if err == nil {
		err = t.loops.loadPrev(pairs)
	}
	if err != nil {
		t.fatal(fmt.Errorf("reduce %d/%d: load checkpoint %d: %w", t.phase, t.idx, cmd.ToIter, err))
	}
}

func (t *reduceTask) handleShuffle(c shuffleChunk) {
	// The chunk's records are placed into the accumulator's key layout;
	// the decode batch is recycled on return (boxed values stay valid —
	// see stateChunk.release).
	defer c.release()
	if c.Gen != t.gen || c.Iter < t.iter {
		return
	}
	a := t.pend[c.Iter]
	if a == nil {
		a = takeAccum(&t.spares)
		t.pend[c.Iter] = a
	}
	if !a.take(c.FromMap, c.Seq, c.End) {
		return // network-duplicated delivery
	}
	if err := t.loops.accumulate(a, c); err != nil {
		t.fatal(fmt.Errorf("reduce %d/%d: %w", t.phase, t.idx, err))
		return
	}
	if c.End > 0 {
		if t.e.opts.Trace != nil && c.FromMap == t.idx {
			if t.ownDone == nil {
				t.ownDone = make(map[int]time.Time)
			}
			t.ownDone[c.Iter] = time.Now()
		}
	}
	for {
		a := t.pend[t.iter]
		if a == nil || a.ends < t.numMaps {
			return
		}
		if tr := t.e.opts.Trace; tr != nil {
			// The barrier window opens when this reduce went idle (or,
			// in the first iteration, when its own map finished) and
			// closes now that the slowest map's End has arrived. The
			// window may overlap the pair's own map spans — the
			// decomposition sweep resolves that by factor priority, so
			// only genuine idle time lands in sync wait.
			start := t.idleSince
			if own, ok := t.ownDone[t.iter]; ok && start.IsZero() {
				start = own
			}
			delete(t.ownDone, t.iter)
			if !start.IsZero() {
				tr.RecordSpan(trace.SpanBarrier, t.worker, t.tid(), t.iter,
					start, time.Since(start))
			}
		}
		t.finishIteration(t.iter, a)
		// Nothing reads the input past the reduce: the accumulator is a
		// later iteration's.
		a.retire(&t.spares)
		delete(t.pend, t.iter)
		t.iter++
		if t.e.opts.Trace != nil {
			t.idleSince = time.Now()
		}
	}
}

// finishIteration groups, reduces, measures distance, streams the new
// state out, checkpoints, and reports.
func (t *reduceTask) finishIteration(iter int, a *accum) {
	start := time.Now()
	t.feedMain = !(t.isTermination && t.job.MaxIter > 0 && iter >= t.job.MaxIter)
	groups, err := t.loops.group(a)
	if err != nil {
		t.fatal(fmt.Errorf("reduce %d/%d: %w", t.phase, t.idx, err))
		return
	}
	t.e.opts.Trace.RecordSpan(trace.SpanSortGroup, t.worker, t.tid(), iter, start, time.Since(start))
	// The whole new state is kept only when something consumes it as a
	// whole — a held loop-back or auxiliary copy, the master's auxiliary
	// decision, a checkpoint due this iteration; otherwise it leaves in
	// outBuf chunks alone.
	ckptDue := t.isTermination && t.job.CheckpointEvery > 0 && iter%t.job.CheckpointEvery == 0
	if t.gated || t.toMaster || ckptDue {
		t.whole = t.bufs.newCols(groups)
	}
	dist, err := t.loops.reduce(iter)
	out := t.whole
	t.whole = nil
	if err != nil {
		t.fatal(err)
		return
	}
	compute := time.Since(start)
	t.e.stretch(t.worker, compute)
	elapsed := t.e.spec.StretchFor(t.worker, compute)
	t.e.opts.Trace.RecordSpan(trace.SpanReduce, t.worker, t.tid(), iter, start, time.Since(start))

	if t.gated {
		// Auxiliary copies flow immediately (the aux phase must see the
		// data to decide); the loop-back is held for the master's
		// termination verdict.
		if len(t.auxAddrs) > 0 {
			t.deliverChunk(t.auxAddrs, t.auxPhase, iter, iter, out, &t.auxSent, true, bufLease{})
		}
		if t.feedMain && !t.toMaster {
			t.held[iter] = out
		}
	} else {
		t.flushStreaming(iter, true)
	}

	if t.toMaster {
		t.send(t.master, kindAuxOut,
			auxOutMsg{Gen: t.gen, Iter: iter, Task: t.idx, Pairs: out.Box(nil)}, 0)
		return
	}
	if !t.isTermination {
		return
	}
	if ckptDue {
		t.checkpoint(iter, out)
	}
	t.send(t.master, kindReport, reportMsg{
		Gen: t.gen, Iter: iter, Task: t.idx, Dist: dist,
		ElapsedNanos: int64(elapsed), Worker: t.worker,
	}, 0)
}

// reduceErr wraps a user reduce's error with the task and the key.
func (t *reduceTask) reduceErr(key any, err error) error {
	return fmt.Errorf("reduce %d/%d key %v: %w", t.phase, t.idx, key, err)
}

// flushStreaming sends buffered new-state records to the next phase's
// map(s) — and an auxiliary copy — in BufferThreshold-sized chunks
// (§3.3's buffered eager triggering).
//
// Ownership (DESIGN §7): when one task receives the chunk its buffer
// travels with it and comes home to t.bufs — from that map once it has
// consumed the records, or from here right after Send when the endpoint
// serializes. A buffer nobody receives (an auxiliary reduce's output,
// which goes to the master whole; the state past the iteration bound) is
// kept at once; one that two tasks would read (OneToAll broadcast, an
// auxiliary copy beside the loop-back) is left to the GC.
func (t *reduceTask) flushStreaming(iter int, end bool) {
	b := t.outBuf
	t.outBuf = nil
	if b == nil && !end {
		return
	}
	main := !t.toMaster && t.feedMain
	receivers := len(t.auxAddrs)
	if main {
		receivers += len(t.targetAddrs)
	}
	var out records
	var lease bufLease
	if b != nil {
		out = b.records
		switch receivers {
		case 0:
			t.bufs.recycle(b)
		case 1:
			lease = leaseOf(b)
		}
	}
	if main {
		t.deliverChunk(t.targetAddrs, t.targetPhase, iter, iter+t.targetIterDelta, out, &t.mainSent, end, lease)
	}
	if len(t.auxAddrs) > 0 {
		t.deliverChunk(t.auxAddrs, t.auxPhase, iter, iter, out, &t.auxSent, end, lease)
	}
}

// deliverChunk sends one state chunk to each address, accounting local
// vs cross-worker traffic. srcIter is the iteration that produced the
// chunk (its trace attribution); tagIter is the iteration the receiver
// files it under (srcIter+1 across the loop-back). sent counts the
// chunks this iteration has sent addrs; end closes the count. lease, when
// set, is the claim on the buffer out lives in, and addrs names its one
// receiver.
func (t *reduceTask) deliverChunk(addrs []string, phase, srcIter, tagIter int, out records, sent *chunkCount, end bool, lease bufLease) {
	var sstart time.Time
	if tr := t.e.opts.Trace; tr != nil {
		sstart = time.Now()
		defer func() {
			tr.RecordSpan(trace.SpanStateSend, t.worker, t.tid(), srcIter, sstart, time.Since(sstart))
		}()
	}
	size := t.loops.bytes(out)
	t.seq++
	slot := int(*sent)
	endCount := sent.next(end)
	for i, addr := range addrs {
		tgt := i
		if len(addrs) == 1 {
			tgt = t.idx // one-to-one: the paired map has our index
		}
		t.e.m.Add(metrics.StateBytes, size)
		if t.run.workerOfPhasePair(phase, tgt) != t.worker {
			t.e.m.Add(metrics.StateRemote, size)
		}
		t.send(addr, kindState, stateChunk{
			Gen: t.gen, Iter: tagIter, From: t.idx, Seq: t.seq, Cols: out, End: endCount, Slot: slot, lease: lease,
		}, size)
	}
	if t.serializes {
		lease.giveBack()
	}
}

// checkpoint dumps this partition's state to DFS in parallel with the
// iterative computation (§3.4.1) and tells the master when it is
// durable. The write goes temp-then-rename so readers only ever see a
// complete file; a failed write is retried with backoff and node
// re-placement, and an abandoned checkpoint degrades the rollback
// target instead of killing the run. The state is boxed by the writer:
// it is the iteration's own, and whoever else holds it only reads it.
func (t *reduceTask) checkpoint(iter int, out records) {
	path := t.run.ckptPath(iter, t.idx)
	gen := t.gen
	worker := t.worker
	tid := t.tid()
	t.ckptWG.Add(1)
	go func() {
		defer t.ckptWG.Done()
		snapshot := out.Box(nil)
		// The temp name carries the generation so writers racing across a
		// rollback never collide on the same uncommitted file.
		tmp := fmt.Sprintf("%s.tmp-g%d", path, gen)
		at := worker
		backoff := checkpointRetryBackoff
		var err error
		for attempt := 0; attempt <= checkpointRetries; attempt++ {
			if attempt > 0 {
				time.Sleep(backoff)
				backoff *= 2
				// Re-place: drop the node pin so the namenode picks any
				// live datanode — the pinned worker may be the failure.
				at = ""
				t.e.m.Add(metrics.CheckpointRetries, 1)
			}
			if err = t.e.fs.WriteFile(tmp, at, snapshot, t.job.Ops); err == nil {
				break
			}
			if errors.Is(err, kv.ErrNoCodec) {
				t.fatal(fmt.Errorf("reduce %d/%d: checkpoint %d: %w", t.phase, t.idx, iter, err))
				return
			}
		}
		if err != nil {
			// Abandoned: the run continues, rollbacks keep targeting the
			// last durable manifest.
			t.e.m.Add(metrics.CheckpointsLost, 1)
			return
		}
		if t.genAtomic.Load() != int64(gen) {
			// A rollback or migration landed while we wrote: the new
			// generation owns this iteration now. Committing the file or
			// the ack under the old generation could hand the master a
			// checkpoint the new generation is still recomputing.
			t.e.fs.Delete(tmp)
			t.e.m.Add(metrics.CheckpointsStale, 1)
			return
		}
		if err := t.e.fs.Rename(tmp, path); err != nil {
			t.e.m.Add(metrics.CheckpointsLost, 1)
			return
		}
		t.e.m.Add(metrics.Checkpoints, 1)
		t.e.opts.Trace.Emit(trace.KindCheckpoint, worker, tid, iter)
		t.send(t.master, kindCkpt, ckptMsg{Gen: gen, Iter: iter, Task: t.idx}, 0)
	}()
}

// writeFinal writes this partition of the converged state to the output
// path (the single DFS write of the whole run, §3.1, unless a recovery
// replays its end) and acknowledges the master, once per generation.
func (t *reduceTask) writeFinal() {
	if !t.isTermination || t.finalGen == t.gen {
		return
	}
	t.finalGen = t.gen
	var fstart time.Time
	if tr := t.e.opts.Trace; tr != nil {
		fstart = time.Now()
		defer func() {
			tr.RecordSpan(trace.SpanFinal, t.worker, t.tid(), t.iter, fstart, time.Since(fstart))
			tr.Emit(trace.KindTaskFinish, t.worker, t.tid(), t.iter)
		}()
	}
	out := t.loops.final() // key-ordered already; WriteFile copies the records
	path := fmt.Sprintf("%s/part-%d", t.run.outputPath, t.idx)
	if err := t.e.fs.WriteFile(path, t.worker, out, t.job.Ops); err != nil {
		t.send(t.master, kindFinal, finalMsg{Gen: t.gen, Task: t.idx, Err: err.Error()}, 0)
		return
	}
	// The final is this task's last word: its checkpoint writers finish
	// first, so their acknowledgements travel the same connection ahead of
	// it and the master still commits — and collects behind — the
	// checkpoints they complete. The host closes this endpoint right after
	// the last final, and a closed endpoint sends nothing.
	t.ckptWG.Wait()
	t.send(t.master, kindFinal, finalMsg{Gen: t.gen, Task: t.idx, Records: len(out)}, 0)
	// The task stays for a replay, whose rollback rebuilds these and the
	// previous-state run final dropped: until then they would only hold
	// memory while the other finals are written.
	t.pend, t.spares = make(map[int]*accum), nil
	t.loops.forget()
}
