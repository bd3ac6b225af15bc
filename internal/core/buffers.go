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
// carries a lease on it; whoever is done with the chunk's Pairs last
// gives the buffer back. That is the sender itself right after Send on a
// transport that serializes the payload inside Send (transport.Serializer),
// and the receiving handler's deferred release everywhere else. A chunk
// that two tasks receive carries no lease, and its buffer is the GC's.

// chunkBuf is one chunk buffer and the free list it belongs to. It holds
// pairs, or — a map buffer of a job on the column loops — a column batch.
type chunkBuf struct {
	pairs []kv.Pair
	cols  colRecords
	home  *freeList
	// lease numbers the buffer's trips. A chunk carries the number it was
	// sent under, and the one return whose CompareAndSwap moves it on is
	// the only one that takes effect.
	lease atomic.Uint64
}

// empty clears the used records — a stale one would pin its box, and
// with it a decode arena (§12.1) — and truncates.
func (b *chunkBuf) empty() {
	clear(b.pairs)
	b.pairs = b.pairs[:0]
	if b.cols != nil {
		b.cols.Reset()
	}
}

// len is the number of records in b.
func (b *chunkBuf) len() int {
	if b.cols != nil {
		return b.cols.Len()
	}
	return len(b.pairs)
}

// capacity is the number of records b holds without growing.
func (b *chunkBuf) capacity() int {
	if b.cols != nil {
		return b.cols.Cap()
	}
	return cap(b.pairs)
}

// bufLease is a chunk's claim on the buffer its Pairs were sent in. The
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
	// newCols, when set, makes the list's buffers column batches.
	newCols func(n int) colRecords
	mu      sync.Mutex
	free    []*chunkBuf
	want    int // under mu: the most records a buffer has carried home
	// The owner's takes, folded into the run's metrics when it exits.
	reused, allocated int64
}

// firstBufRecords sizes a buffer taken before any has come home.
const firstBufRecords = 64

func newFreeList(size, capacity int) *freeList {
	return &freeList{size: size, free: make([]*chunkBuf, 0, capacity)}
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
	if b != nil && (want == 0 || b.capacity() <= 2*want) {
		l.reused++
		return b
	}
	l.allocated++
	size := min(l.size, firstBufRecords)
	if want > 0 {
		size = want
	}
	if l.newCols != nil {
		return &chunkBuf{cols: l.newCols(size), home: l}
	}
	return &chunkBuf{pairs: make([]kv.Pair, 0, size), home: l}
}

// recycle empties b and keeps it if the list has room.
func (l *freeList) recycle(b *chunkBuf) {
	used := b.len()
	b.empty()
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

// accum gathers one iteration's input at a task: the records (pairs, or
// the column batch of a reduce on the column loops), the senders whose
// every chunk is here, the chunks taken from each sender
// and the total its End announced, and the chunks already taken, by
// which network duplicates are dropped. A task keeps the accumulator of
// its last finished iteration as its spare, so the record buffer and the
// maps' buckets are allocated once, not once per iteration.
type accum struct {
	pairs []kv.Pair
	cols  colRecords
	ends  int
	seen  map[chunkKey]bool
	tally map[int]chunkTally
}

// chunkTally is one sender's account in an iteration: chunks taken, and
// the total its End chunk announced (0 until the End is here).
type chunkTally struct{ got, want int }

// takeAccum takes the spare for a new iteration, or — when there is none
// — makes an accumulator. Its records are made on the first append.
func takeAccum(spare **accum) *accum {
	a := *spare
	*spare = nil
	if a == nil {
		a = &accum{seen: make(map[chunkKey]bool), tally: make(map[int]chunkTally)}
	}
	return a
}

// addPairs appends ps to the accumulated pairs, making room for presize
// records first when there are none yet: iterative jobs move nearly the
// same record count every round.
func (a *accum) addPairs(ps []kv.Pair, presize int) {
	if a.pairs == nil {
		a.pairs = make([]kv.Pair, 0, max(presize, len(ps)))
	}
	a.pairs = append(a.pairs, ps...)
}

// len is the number of records accumulated.
func (a *accum) len() int {
	if a.cols != nil {
		return a.cols.Len()
	}
	return len(a.pairs)
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

// reset empties a finished accumulator for reuse as the spare. Clearing
// matters: stale records would pin the iteration's decode arenas until
// overwritten.
func (a *accum) reset() {
	clear(a.pairs)
	a.pairs = a.pairs[:0]
	if a.cols != nil {
		a.cols.Reset()
	}
	clear(a.seen)
	clear(a.tally)
	a.ends = 0
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
