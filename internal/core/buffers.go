package core

import (
	"sync"
	"sync/atomic"

	"imapreduce/internal/kv"
	"imapreduce/internal/metrics"
)

// Chunk buffers and their way home (DESIGN §7, "Buffer ownership").
// A sending task fills a chunk buffer with up to BufferThreshold records,
// hands it to the network inside a chunk, and takes another for the next
// batch. Every buffer belongs to a free list its task owns, and the chunk
// carries a lease on it; whoever is done with the chunk's records last
// gives the buffer back. That is the sender itself right after Send on a
// transport that serializes the payload inside Send (transport.Serializer),
// and the receiving handler's deferred release everywhere else. A chunk
// that two tasks receive carries no lease, and its buffer is the GC's.

// records are a batch of records: a *kv.Cols[V] of the value type V of
// the task's loops.
type records interface {
	Len() int
	Cap() int
	Reset()
	Release()
	Box(dst []kv.Pair) []kv.Pair
}

// recLen is the number of records in r, which may be nil.
func recLen(r records) int {
	if r == nil {
		return 0
	}
	return r.Len()
}

// chunkBuf is one chunk buffer and the free list it belongs to.
type chunkBuf struct {
	records
	home *freeList
	// lease numbers the buffer's trips. A chunk carries the number it was
	// sent under, and the one return whose CompareAndSwap moves it on is
	// the only one that takes effect.
	lease atomic.Uint64
}

// bufLease is a chunk's claim on the buffer its records were sent in. The
// zero value claims nothing.
type bufLease struct {
	buf *chunkBuf
	n   uint64
}

// leaseOf claims b for the trip it is about to make; a nil b claims
// nothing.
func leaseOf(b *chunkBuf) bufLease {
	if b == nil {
		return bufLease{}
	}
	return bufLease{buf: b, n: b.lease.Load()}
}

// giveBack sends the claimed buffer home, once per trip: a second return
// under the same claim — a network duplicate, or a stale delivery that
// arrives after the buffer came home and left again — loses the
// CompareAndSwap and touches nothing.
func (l bufLease) giveBack() {
	if l.buf != nil && l.buf.lease.CompareAndSwap(l.n, l.n+1) {
		l.buf.home.recycle(l.buf)
	}
}

// freeList is a sending task's stock of empty chunk buffers, bounded by
// the task's number of destinations. Only the owning task takes from it;
// buffers come back from whichever goroutine finished with them. A miss
// allocates, and a buffer that comes back to a full list is dropped.
//
// Buffers are sized by what the task sends, not by BufferThreshold alone:
// a chunk closed by an iteration's end can be far smaller, and retained
// capacity is live heap the collector doubles. Until a buffer has come
// home a miss allocates firstBufRecords (a short job's task may never fill
// more); after that, room for the most records a buffer has carried, and
// a buffer more than twice that is replaced when taken. A chunk that
// outgrows its buffer grows it, up to BufferThreshold, where it is sent.
type freeList struct {
	size int // BufferThreshold: no chunk carries more
	// newCols makes the batches of the list's buffers, of the task's
	// loops.
	newCols func(n int) records
	mu      sync.Mutex
	free    []*chunkBuf
	want    int // under mu: the most records a buffer has carried home
	// The owner's takes, folded into the run's metrics when it exits.
	reused, allocated int64
}

// firstBufRecords sizes a buffer taken before any has come home.
const firstBufRecords = 64

func newFreeList(size, capacity int, newCols func(n int) records) *freeList {
	return &freeList{size: size, newCols: newCols, free: make([]*chunkBuf, 0, capacity)}
}

// get takes an empty buffer. Owner only.
func (l *freeList) get() *chunkBuf {
	l.mu.Lock()
	want := l.want
	var b *chunkBuf
	if n := len(l.free); n > 0 {
		b = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
	}
	l.mu.Unlock()
	if b != nil && (want == 0 || b.Cap() <= 2*want) {
		l.reused++
		return b
	}
	l.allocated++
	size := min(l.size, firstBufRecords)
	if want > 0 {
		size = want
	}
	return &chunkBuf{records: l.newCols(size), home: l}
}

// recycle empties b and keeps it if the list has room.
func (l *freeList) recycle(b *chunkBuf) {
	used := b.Len()
	b.Reset()
	l.mu.Lock()
	l.want = max(l.want, used)
	if len(l.free) < cap(l.free) {
		l.free = append(l.free, b)
	}
	l.mu.Unlock()
}

// report folds the owner's takes into m. Owner only, as it exits.
func (l *freeList) report(m *metrics.Set) {
	m.Add(metrics.ChunkBufsReused, l.reused)
	m.Add(metrics.ChunkBufsAlloc, l.allocated)
}

// accum gathers one iteration's input at a task: the records, the
// senders whose every chunk is here, the chunks taken from each sender
// and the total its End announced, and the chunks already taken, by
// which network duplicates are dropped. A task keeps the accumulators of
// its finished iterations as spares, so the record buffers and the maps'
// buckets are allocated once, not once per iteration.
type accum struct {
	// records are a map's input, nil until the first chunk is added.
	records
	// placed holds a reduce's input instead: each chunk is placed into a
	// key layout as it arrives (colReduceLoops).
	placed interface{ Reset() }
	ends   int
	seen   map[chunkKey]bool
	tally  map[int]chunkTally
	// A map takes its feeder's chunks in slot order (mapTask.takeInOrder):
	// next is the slot it takes next, and held the copies of chunks that
	// came before their turn.
	next int
	held []heldState
}

// heldState is a copy of a state chunk that arrived before its turn.
type heldState struct {
	slot int
	in   records
}

// chunkTally is one sender's account in an iteration: chunks taken, and
// the total its End chunk announced (0 until the End is here).
type chunkTally struct{ got, want int }

// maxSpares is how many finished accumulators a task keeps: one per
// iteration that can be in flight at once. A reduce can take the next
// iteration's first chunks before the slowest map's End of this one, and
// the iteration after that cannot start until this one is done.
const maxSpares = 2

// takeAccum takes a spare for a new iteration, or — when there is none —
// makes an accumulator. Its records are made on the first append.
func takeAccum(spares *[]*accum) *accum {
	if n := len(*spares); n > 0 {
		a := (*spares)[n-1]
		(*spares)[n-1] = nil
		*spares = (*spares)[:n-1]
		return a
	}
	return &accum{seen: make(map[chunkKey]bool), tally: make(map[int]chunkTally)}
}

// retire empties a finished accumulator and keeps it as a spare, if the
// task has room for one more.
func (a *accum) retire(spares *[]*accum) {
	a.reset()
	if len(*spares) < maxSpares {
		*spares = append(*spares, a)
	}
}

// take accounts a chunk from sender from with sequence number seq and
// End value end. It reports false for a network duplicate, which the
// caller drops. A sender is done — ends counts it — when its End has
// arrived and so have as many chunks as the End announced: a network that
// reorders can deliver the End ahead of the sender's last data chunk.
func (a *accum) take(from int, seq int64, end int) bool {
	k := chunkKey{from: from, seq: seq}
	if a.seen[k] {
		return false
	}
	a.seen[k] = true
	t := a.tally[from]
	t.got++
	if end > 0 {
		t.want = end
	}
	a.tally[from] = t
	if t.got == t.want {
		a.ends++
	}
	return true
}

// reset empties a finished accumulator for reuse. Clearing matters:
// stale boxed values would stay reachable until overwritten.
func (a *accum) reset() {
	if a.records != nil {
		a.Reset()
	}
	if a.placed != nil {
		a.placed.Reset()
	}
	clear(a.seen)
	clear(a.tally)
	a.ends, a.next, a.held = 0, 0, nil
}

// chunkCount numbers the chunks a sender sends one receiver (or one set
// of receivers that all get every chunk) in one iteration.
type chunkCount int

// next counts one more chunk and returns its End value: 0 for a data
// chunk; for the last chunk, the iteration's total, which also restarts
// the count for the next iteration.
func (c *chunkCount) next(end bool) int {
	*c++
	if !end {
		return 0
	}
	n := int(*c)
	*c = 0
	return n
}
