package core

import (
	"errors"
	"fmt"

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
	kindFail    = "fail"    // task → master task error (taskErrMsg)
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
// accum.take). Slot is the chunk's index among those: a map takes a
// sender's chunks in slot order, whatever order the network delivered
// them in. Seq is a per-sender monotone counter: together with From it
// lets the receiver discard network-duplicated chunks, so data flows stay
// correct over at-least-once transports. Its records are Cols, a column
// batch of the sender's loops; an End chunk with no records may carry
// none.
type stateChunk struct {
	Gen  int
	Iter int
	From int
	Seq  int64
	Cols records
	End  int
	Slot int

	// lease is the claim on the sender's chunk buffer the records live in,
	// when the chunk travels by reference to a single receiver (see
	// buffers.go); the wire encoding does not carry it. pooled marks Cols
	// as a decode batch from the kv pool. The receiving handler owns the
	// chunk and must release() it.
	lease  bufLease
	pooled bool
}

// release returns the chunk's decode batch, if any, to its pool and sends
// its chunk buffer home, if it holds one. The records must not be used
// afterwards; boxed values that escaped into accumulators stay valid (a
// batch is only cleared). Handlers call this exactly once, via defer,
// when they are done with the records.
func (c stateChunk) release() { releaseRecords(c.lease, c.Cols, c.pooled) }

func releaseRecords(lease bufLease, r records, pooled bool) {
	lease.giveBack()
	if pooled {
		r.Release()
	}
}

// shuffleChunk carries map output to a reduce task of the same phase.
// (FromMap, Seq) deduplicates and End and Slot count, as for stateChunk.
// Its records are Cols; an End chunk with no records may carry none.
//
// KeyEpoch and SameKeys are the column loops' key elision (DESIGN §5).
// KeyEpoch is the iteration whose chunk from FromMap at Slot last carried
// these keys — Iter itself when they are new there — and SameKeys says
// they are that chunk's keys again. Such a chunk crosses a socket
// values-only, its Cols decoded without keys; over channels it keeps them,
// and the flag spares the reduce comparing them.
type shuffleChunk struct {
	Gen      int
	Iter     int
	FromMap  int
	Seq      int64
	Cols     records
	End      int
	Slot     int
	KeyEpoch int
	SameKeys bool

	// lease, pooled: see stateChunk.
	lease  bufLease
	pooled bool
}

// release: see stateChunk.release.
func (c shuffleChunk) release() { releaseRecords(c.lease, c.Cols, c.pooled) }

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

// finalMsg acknowledges that a reduce task wrote its final output part
// in generation Gen.
type finalMsg struct {
	Gen     int
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
// frame. A record whose type has no kv codec makes AppendWire refuse, the
// send fails with transport.ErrUnencodable, and the task fails the run
// (see refusedRecord).
//
// A state or shuffle chunk is its own frame, one tag per chunk kind and
// value type: the chunk header, then the column batch — a count, the keys
// as a base and fixed-width offsets, and the values as 8-byte words
// (float64), like the keys (int64), or each in its kv.AppendValue
// encoding (boxed: kv.AppendBoxedCols). A shuffle frame puts a form byte
// between the two: colKeyed, or colValuesOnly followed by the key epoch
// (a varint) and the count and the values alone. A chunk with no records
// travels as a boxed frame of none. The auxiliary output is the chunk
// header and kv.AppendPairs.
const (
	wireTagStateColsF64 = "imr.state.f64"
	wireTagStateColsI64 = "imr.state.i64"
	wireTagStateColsAny = "imr.state.any"
	wireTagColsF64      = "imr.shuffle.f64"
	wireTagColsI64      = "imr.shuffle.i64"
	wireTagColsAny      = "imr.shuffle.any"
	wireTagAuxOut       = "imr.auxout"
)

// The forms of a column shuffle frame.
const (
	colKeyed      byte = 0
	colValuesOnly byte = 1
)

// chunkHeader walks the header every chunk frame starts with: Gen, Iter,
// the sender's task id, Seq, the End count (0 on a data chunk) and the
// slot, the last two counts no sender makes past MaxInt32.
func chunkHeader(f *kv.Fields, gen, iter, from *int, seq *int64, end, slot *int) {
	f.Int(gen, iter, from)
	f.Varint(seq)
	f.Count(end)
	f.Count(slot)
}

// colsTag picks a chunk's tag by its value type: f64, i64, or boxed —
// which a chunk with no records takes too.
func colsTag(r records, f64, i64, boxed string) string {
	switch r.(type) {
	case *kv.Cols[float64]:
		return f64
	case *kv.Cols[int64]:
		return i64
	}
	return boxed
}

// appendCols encodes a chunk's records after its header, keys and values.
func appendCols(buf []byte, r records) ([]byte, bool) {
	switch cs := r.(type) {
	case *kv.Cols[float64]:
		return kv.AppendCols(buf, cs), true
	case *kv.Cols[int64]:
		return kv.AppendCols(buf, cs), true
	case *kv.Cols[any]:
		return kv.AppendBoxedCols(buf, cs)
	}
	return kv.AppendUvarint(buf, 0), true
}

// appendVals encodes a values-only chunk's records: the values alone.
func appendVals(buf []byte, r records) ([]byte, bool) {
	switch cs := r.(type) {
	case *kv.Cols[float64]:
		return kv.AppendVals(buf, cs.Vals), true
	case *kv.Cols[int64]:
		return kv.AppendVals(buf, cs.Vals), true
	}
	return kv.AppendBoxedVals(buf, r.(*kv.Cols[any]).Vals)
}

func (c stateChunk) WireTag() string {
	return colsTag(c.Cols, wireTagStateColsF64, wireTagStateColsI64, wireTagStateColsAny)
}

func (c stateChunk) AppendWire(buf []byte) ([]byte, bool) {
	f := kv.EncodeFields(buf)
	chunkHeader(&f, &c.Gen, &c.Iter, &c.From, &c.Seq, &c.End, &c.Slot)
	return appendCols(f.Bytes(), c.Cols)
}

func (c shuffleChunk) WireTag() string {
	return colsTag(c.Cols, wireTagColsF64, wireTagColsI64, wireTagColsAny)
}

// AppendWire encodes the chunk's form and records: values-only when they
// repeat keys the reduce holds.
func (c shuffleChunk) AppendWire(buf []byte) ([]byte, bool) {
	f := kv.EncodeFields(buf)
	chunkHeader(&f, &c.Gen, &c.Iter, &c.FromMap, &c.Seq, &c.End, &c.Slot)
	if c.SameKeys && recLen(c.Cols) > 0 {
		form := colValuesOnly
		f.Byte(&form)
		f.Int(&c.KeyEpoch)
		return appendVals(f.Bytes(), c.Cols)
	}
	return appendCols(append(f.Bytes(), colKeyed), c.Cols)
}

func (m auxOutMsg) WireTag() string { return wireTagAuxOut }

func (m auxOutMsg) AppendWire(buf []byte) ([]byte, bool) {
	f := kv.EncodeFields(buf)
	walkAuxOut(&f, &m)
	return f.Bytes(), f.Err() == nil
}

// walkAuxOut reuses the chunk header; an auxiliary output has no Seq, no
// End and no slot.
func walkAuxOut(f *kv.Fields, m *auxOutMsg) {
	var seq int64
	var end, slot int
	chunkHeader(f, &m.Gen, &m.Iter, &m.Task, &seq, &end, &slot)
	f.Pairs(&m.Pairs)
}

// colDecoder is a value type's column decoders: keys and values, and
// values alone.
type colDecoder[V any] struct {
	cols, vals func(data []byte, dst *kv.Cols[V]) (int, error)
}

var (
	f64Decoder   = colDecoder[float64]{kv.DecodeCols[float64], kv.DecodeVals[float64]}
	i64Decoder   = colDecoder[int64]{kv.DecodeCols[int64], kv.DecodeVals[int64]}
	boxedDecoder = colDecoder[any]{kv.DecodeBoxedCols, kv.DecodeBoxedVals}
)

// shuffle decodes a column shuffle frame, keyed or values-only, into a
// pooled batch, which the receiving reduce returns when it releases the
// chunk. A values-only frame with no values is refused: no sender elides
// the keys of an empty chunk.
func (d colDecoder[V]) shuffle(data []byte) (any, error) {
	c := shuffleChunk{pooled: true}
	var form byte
	f := kv.DecodeFields(data)
	chunkHeader(&f, &c.Gen, &c.Iter, &c.FromMap, &c.Seq, &c.End, &c.Slot)
	c.KeyEpoch = c.Iter
	if f.Byte(&form); form == colValuesOnly {
		c.SameKeys = true
		f.Int(&c.KeyEpoch)
	}
	if f.Err() != nil {
		return nil, f.Err()
	}
	cols := kv.AcquireCols[V]()
	var err error
	switch form {
	case colKeyed:
		_, err = d.cols(f.Bytes(), cols)
	case colValuesOnly:
		if _, err = d.vals(f.Bytes(), cols); err == nil && cols.Len() == 0 {
			err = errors.New("core: values-only column frame without values")
		}
	default:
		err = fmt.Errorf("core: column shuffle frame of form %d", form)
	}
	if err != nil {
		cols.Release()
		return nil, err
	}
	c.Cols = cols
	return c, nil
}

// state decodes a column state frame into a pooled batch, which the
// receiving map returns when it releases the chunk.
func (d colDecoder[V]) state(data []byte) (any, error) {
	c := stateChunk{pooled: true}
	f := kv.DecodeFields(data)
	if chunkHeader(&f, &c.Gen, &c.Iter, &c.From, &c.Seq, &c.End, &c.Slot); f.Err() != nil {
		return nil, f.Err()
	}
	cols := kv.AcquireCols[V]()
	if _, err := d.cols(f.Bytes(), cols); err != nil {
		cols.Release()
		return nil, err
	}
	c.Cols = cols
	return c, nil
}

// decodeAuxOut decodes onto the heap: the master keeps the pairs until
// the auxiliary phase's decision.
func decodeAuxOut(data []byte) (any, error) {
	var m auxOutMsg
	f := kv.DecodeFields(data)
	walkAuxOut(&f, &m)
	return m, f.Done()
}

// refusedRecord explains a send that failed with
// transport.ErrUnencodable by naming the type of the record its payload
// could not encode.
func refusedRecord(payload any, err error) error {
	var pairs []kv.Pair
	var r records
	switch p := payload.(type) {
	case stateChunk:
		r = p.Cols
	case shuffleChunk:
		r = p.Cols
	case auxOutMsg:
		pairs = p.Pairs
	}
	if r != nil {
		pairs = r.Box(nil)
	}
	if rerr := kv.Unencodable(pairs); rerr != nil {
		return fmt.Errorf("%w: %w", err, rerr)
	}
	return err
}

// wireDecoders are the decoders of every binary frame core sends, by tag.
var wireDecoders = map[string]func(data []byte) (any, error){
	wireTagStateColsF64: f64Decoder.state,
	wireTagStateColsI64: i64Decoder.state,
	wireTagStateColsAny: boxedDecoder.state,
	wireTagColsF64:      f64Decoder.shuffle,
	wireTagColsI64:      i64Decoder.shuffle,
	wireTagColsAny:      boxedDecoder.shuffle,
	wireTagAuxOut:       decodeAuxOut,
}

func init() {
	for tag, decode := range wireDecoders {
		transport.RegisterWireUnmarshaler(tag, decode)
	}
	transport.RegisterMessage("imr.report", func(f *kv.Fields, m *reportMsg) {
		f.Int(&m.Gen, &m.Iter, &m.Task)
		f.F64(&m.Dist)
		f.Varint(&m.ElapsedNanos)
		f.String(&m.Worker)
	})
	transport.RegisterMessage("imr.ckpt", func(f *kv.Fields, m *ckptMsg) { f.Int(&m.Gen, &m.Iter, &m.Task) })
	transport.RegisterMessage("imr.final", func(f *kv.Fields, m *finalMsg) { f.Int(&m.Gen, &m.Task, &m.Records); f.String(&m.Err) })
	transport.RegisterMessage("imr.cmd", func(f *kv.Fields, m *cmdMsg) { f.String(&m.Kind); f.Int(&m.Gen, &m.ToIter) })
	transport.RegisterMessage("imr.taskerr", func(f *kv.Fields, m *taskErrMsg) { f.Int(&m.Phase, &m.Task); f.String(&m.Err) })
	transport.RegisterMessage("imr.rback", func(f *kv.Fields, m *rbAckMsg) { f.Int(&m.Gen, &m.Phase, &m.Task) })
	transport.RegisterMessage("imr.beat", func(f *kv.Fields, m *heartbeatMsg) { f.String(&m.Worker); f.Int(&m.Phase, &m.Task) })
}
