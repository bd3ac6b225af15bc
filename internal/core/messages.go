package core

import (
	"fmt"
	"math"

	"imapreduce/internal/kv"
	"imapreduce/internal/transport"
)

// Endpoint naming: every persistent task and the master own one
// transport endpoint for the lifetime of the run.
func mapAddr(job string, phase, idx int) string { return fmt.Sprintf("%s/map/%d/%d", job, phase, idx) }
func redAddr(job string, phase, idx int) string { return fmt.Sprintf("%s/red/%d/%d", job, phase, idx) }
func masterAddr(job string) string              { return job + "/master" }

// Message kinds on the wire.
const (
	kindState   = "state"   // reduce → map (or self-load) iterated state
	kindShuffle = "shuffle" // map → reduce intermediate data
	kindReport  = "report"  // reduce → master iteration completion report
	kindAuxOut  = "auxout"  // aux reduce → master auxiliary output
	kindCkpt    = "ckpt"    // reduce → master checkpoint completion
	kindFinal   = "final"   // reduce → master final output written
	kindCmd     = "cmd"     // master → task control
	kindFail    = "fail"    // external → master worker failure injection
	kindBeat    = "beat"    // task → master periodic liveness heartbeat
)

// stateChunk carries iterated state records from a reduce task to a map
// task over the pair's persistent connection (or a broadcast copy of
// them). Gen guards against messages from before a rollback; Iter is the
// iteration the receiving map will process. From identifies the feeding
// reduce task. End is 0 on a data chunk; on the sender's last chunk for
// this iteration it is the number of chunks the sender sent this receiver
// in the iteration, the End itself included, so a receiver whose network
// reordered the End ahead of a data chunk waits for the rest (see
// accum.take). Seq is a per-sender monotone counter: together with From
// it lets the receiver discard network-duplicated chunks, so data flows
// stay correct over at-least-once transports.
type stateChunk struct {
	Gen   int
	Iter  int
	From  int
	Seq   int64
	Pairs []kv.Pair
	End   int

	// slab is the decode arena Pairs was carved from when the chunk came
	// off the wire (nil for a chunk passed by reference). lease is the
	// claim on the sender's chunk buffer Pairs lives in, when the chunk
	// travels by reference to a single receiver (see buffers.go). The
	// wire encoding carries neither: a decoded chunk has a slab and no
	// lease. The receiving handler owns the chunk and must release() it.
	slab  *kv.Slab
	lease bufLease
}

// release recycles the chunk's decode arena, if any, and sends its chunk
// buffer home, if it holds one. Pairs (and any slices of it) must not be
// used afterwards; boxed keys and values that escaped into accumulators
// stay valid (a slab release keeps them, and a buffer is only cleared). Handlers
// call this exactly once, via defer, when they are done with Pairs.
func (c stateChunk) release() {
	c.lease.giveBack()
	if c.slab != nil {
		c.slab.Release()
	}
}

// shuffleChunk carries map output to a reduce task of the same phase.
// (FromMap, Seq) deduplicates and End counts, as for stateChunk. Its
// records are Pairs, or Cols from a map on the column loops; an End chunk
// with no records carries neither.
type shuffleChunk struct {
	Gen     int
	Iter    int
	FromMap int
	Seq     int64
	Pairs   []kv.Pair
	Cols    colRecords
	End     int

	// slab, lease: see stateChunk. pooled marks Cols as a decode batch
	// from the kv pool, which release returns there.
	slab   *kv.Slab
	lease  bufLease
	pooled bool
}

// release: see stateChunk.release.
func (c shuffleChunk) release() {
	c.lease.giveBack()
	if c.slab != nil {
		c.slab.Release()
	}
	if c.pooled {
		c.Cols.Release()
	}
}

// reportMsg is the per-iteration completion report each termination-
// phase reduce task sends the master (§3.4.2): task id, iteration
// number, processing time — plus the local distance sum the master
// merges for the convergence test (§3.1.2).
type reportMsg struct {
	Gen          int
	Iter         int
	Task         int
	Dist         float64
	ElapsedNanos int64
	Worker       string
}

// auxOutMsg delivers an auxiliary phase's reduce output to the master.
type auxOutMsg struct {
	Gen   int
	Iter  int
	Task  int
	Pairs []kv.Pair
}

// ckptMsg acknowledges that a reduce task's checkpoint for Iter reached
// the DFS.
type ckptMsg struct {
	Gen  int
	Iter int
	Task int
}

// finalMsg acknowledges that a reduce task wrote its final output part.
type finalMsg struct {
	Task    int
	Records int
	Err     string
}

// cmdMsg is a master → task control command.
type cmdMsg struct {
	Kind string // cmdRollback | cmdGo | cmdProceed | cmdTerminate | cmdAbort
	// Gen is the new generation (rollback).
	Gen int
	// ToIter is the checkpoint iteration to restart from (rollback).
	ToIter int
}

const (
	cmdRollback  = "rollback"
	cmdTerminate = "terminate"
	// cmdAbort tears a task down *without* writing final output — the
	// shutdown path for canceled, failed and killed runs. Their output
	// directory must stay untouched so a later Resume restarts from the
	// durable checkpoints, not from a half-written final state.
	cmdAbort = "abort"
	// cmdGo is the second half of the rollback protocol: once every
	// task has acknowledged the reset (so no old-generation traffic can
	// be mistaken for new), the master tells the first phase's maps to
	// load the checkpointed state and start iterating.
	cmdGo = "go"
	// cmdProceed releases a gated termination reduce's held output for
	// iteration ToIter: when the job can stop at any boundary (distance
	// threshold or auxiliary decision), the loop-back waits for the
	// master's termination check so the final state is exactly the
	// decided iteration.
	cmdProceed = "proceed"
)

// rbAckMsg acknowledges a rollback reset.
type rbAckMsg struct {
	Gen   int
	Phase int
	Task  int
}

// failMsg asks the master to treat a worker as crashed.
type failMsg struct {
	Worker string
}

// heartbeatMsg is a task's periodic liveness beat (§3.4.1 extended):
// the master refreshes the deadline of the worker the task is bound to.
// A worker that stops beating for HeartbeatMisses intervals is declared
// failed through the same rollback machinery injected failures use.
type heartbeatMsg struct {
	Worker string
	Phase  int
	Task   int
}

// taskErrMsg reports a fatal user-function or I/O error from a task; the
// master aborts the run.
type taskErrMsg struct {
	Phase int
	Task  int
	Err   string
}

// Wire marshaling: every message that carries records — the two
// data-plane chunk types and the auxiliary output — implements
// transport.WireMarshaler, so the TCP backend carries it as a binary
// frame (header varints + kv codec pair bytes). A record whose type has
// no kv codec makes AppendWire refuse, the send fails with
// transport.ErrUnencodable, and the task fails the run (see
// refusedRecord).
//
// A shuffle chunk of column records is its own frame, one tag per value
// type: the chunk header, then kv.AppendCols — a count, the keys as
// varints, the values as 8-byte words (float64) or varints (int64).
const (
	wireTagState   = "imr.state"
	wireTagShuffle = "imr.shuffle"
	wireTagColsF64 = "imr.shuffle.f64"
	wireTagColsI64 = "imr.shuffle.i64"
	wireTagAuxOut  = "imr.auxout"
)

// appendChunkHeader encodes the common chunk header: Gen, Iter, sender
// task id, Seq, and the End count (uvarint, 0 on a data chunk).
func appendChunkHeader(buf []byte, gen, iter, from int, seq int64, end int) []byte {
	buf = kv.AppendVarint(buf, int64(gen))
	buf = kv.AppendVarint(buf, int64(iter))
	buf = kv.AppendVarint(buf, int64(from))
	buf = kv.AppendVarint(buf, seq)
	return kv.AppendUvarint(buf, uint64(end))
}

func decodeChunkHeader(data []byte) (gen, iter, from int, seq int64, end int, n int, err error) {
	var v int64
	var m int
	for _, dst := range []*int{&gen, &iter, &from} {
		if v, m, err = kv.Varint(data[n:]); err != nil {
			return
		}
		*dst, n = int(v), n+m
	}
	if seq, m, err = kv.Varint(data[n:]); err != nil {
		return
	}
	n += m
	var e uint64
	if e, m, err = kv.Uvarint(data[n:]); err != nil {
		return
	}
	if e > math.MaxInt32 {
		err = fmt.Errorf("core: chunk header end count %d out of range", e)
		return
	}
	end, n = int(e), n+m
	return
}

func (c stateChunk) WireTag() string { return wireTagState }

func (c stateChunk) AppendWire(buf []byte) ([]byte, bool) {
	return kv.AppendPairs(appendChunkHeader(buf, c.Gen, c.Iter, c.From, c.Seq, c.End), c.Pairs)
}

func (c shuffleChunk) WireTag() string {
	switch c.Cols.(type) {
	case *kv.Cols[float64]:
		return wireTagColsF64
	case *kv.Cols[int64]:
		return wireTagColsI64
	}
	return wireTagShuffle
}

func (c shuffleChunk) AppendWire(buf []byte) ([]byte, bool) {
	buf = appendChunkHeader(buf, c.Gen, c.Iter, c.FromMap, c.Seq, c.End)
	switch cs := c.Cols.(type) {
	case *kv.Cols[float64]:
		return kv.AppendCols(buf, cs), true
	case *kv.Cols[int64]:
		return kv.AppendCols(buf, cs), true
	}
	return kv.AppendPairs(buf, c.Pairs)
}

func (m auxOutMsg) WireTag() string { return wireTagAuxOut }

// AppendWire reuses the chunk header; an auxiliary output has no Seq and
// no End.
func (m auxOutMsg) AppendWire(buf []byte) ([]byte, bool) {
	return kv.AppendPairs(appendChunkHeader(buf, m.Gen, m.Iter, m.Task, 0, 0), m.Pairs)
}

func decodeStateChunk(data []byte) (any, error) {
	gen, iter, from, seq, end, n, err := decodeChunkHeader(data)
	if err != nil {
		return nil, err
	}
	s := kv.AcquireSlab()
	pairs, _, err := kv.DecodePairsSlab(data[n:], s)
	if err != nil {
		s.Release()
		return nil, err
	}
	return stateChunk{Gen: gen, Iter: iter, From: from, Seq: seq, Pairs: pairs, End: end, slab: s}, nil
}

func decodeShuffleChunk(data []byte) (any, error) {
	gen, iter, from, seq, end, n, err := decodeChunkHeader(data)
	if err != nil {
		return nil, err
	}
	s := kv.AcquireSlab()
	pairs, _, err := kv.DecodePairsSlab(data[n:], s)
	if err != nil {
		s.Release()
		return nil, err
	}
	return shuffleChunk{Gen: gen, Iter: iter, FromMap: from, Seq: seq, Pairs: pairs, End: end, slab: s}, nil
}

// decodeColShuffle decodes a column shuffle frame into a pooled batch,
// which the receiving reduce returns when it releases the chunk.
func decodeColShuffle[V kv.Scalar](data []byte) (any, error) {
	gen, iter, from, seq, end, n, err := decodeChunkHeader(data)
	if err != nil {
		return nil, err
	}
	cols := kv.AcquireCols[V]()
	if _, err := kv.DecodeCols(data[n:], cols); err != nil {
		cols.Release()
		return nil, err
	}
	return shuffleChunk{Gen: gen, Iter: iter, FromMap: from, Seq: seq, Cols: cols, End: end, pooled: true}, nil
}

// decodeAuxOut decodes onto the heap, not a slab: the master keeps the
// pairs until the auxiliary phase's decision.
func decodeAuxOut(data []byte) (any, error) {
	gen, iter, task, _, _, n, err := decodeChunkHeader(data)
	if err != nil {
		return nil, err
	}
	pairs, _, err := kv.DecodePairs(data[n:])
	if err != nil {
		return nil, err
	}
	return auxOutMsg{Gen: gen, Iter: iter, Task: task, Pairs: pairs}, nil
}

// refusedRecord explains a send that failed with
// transport.ErrUnencodable by naming the type of the record its payload
// could not encode.
func refusedRecord(payload any, err error) error {
	var pairs []kv.Pair
	switch p := payload.(type) {
	case stateChunk:
		pairs = p.Pairs
	case shuffleChunk:
		pairs = p.Pairs
	case auxOutMsg:
		pairs = p.Pairs
	}
	if rerr := kv.Unencodable(pairs); rerr != nil {
		return fmt.Errorf("%w: %w", err, rerr)
	}
	return err
}

func init() {
	transport.RegisterWireUnmarshaler(wireTagState, decodeStateChunk)
	transport.RegisterWireUnmarshaler(wireTagShuffle, decodeShuffleChunk)
	transport.RegisterWireUnmarshaler(wireTagColsF64, decodeColShuffle[float64])
	transport.RegisterWireUnmarshaler(wireTagColsI64, decodeColShuffle[int64])
	transport.RegisterWireUnmarshaler(wireTagAuxOut, decodeAuxOut)
	transport.RegisterMessage(reportMsg{})
	transport.RegisterMessage(ckptMsg{})
	transport.RegisterMessage(finalMsg{})
	transport.RegisterMessage(cmdMsg{})
	transport.RegisterMessage(failMsg{})
	transport.RegisterMessage(taskErrMsg{})
	transport.RegisterMessage(rbAckMsg{})
	transport.RegisterMessage(heartbeatMsg{})
}
