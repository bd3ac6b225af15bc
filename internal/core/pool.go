package core

import (
	"runtime"
	"sync"
	"time"

	"imapreduce/internal/kv"
)

// Intra-task parallelism (perf round 2): a run-scoped pool of worker
// goroutines that map and reduce tasks use to shard their pair loops.
// The task goroutine itself always executes shard 0, so a pool with no
// free workers degrades to the serial path instead of queueing — the
// pool only ever *adds* concurrency, never latency.
//
// Sharding thresholds: tiny chunks are not worth the handoff. A pair
// loop is sharded only when it has at least parallelMinPairs records,
// and each shard gets at least parallelShardPairs of them. A map loop
// longer than shardWindowPairs runs as a sequence of windows of that
// many records, each sharded, merged and flushed before the next starts:
// the shards' emit rows then hold one window's output instead of the
// whole input's (a first-iteration self-load is a full partition), and
// its chunks reach the reduces while later windows are still mapping.
const (
	parallelMinPairs   = 256
	parallelShardPairs = 128
	shardWindowPairs   = 1024
)

// workerPool runs closures on a fixed set of goroutines. Dispatch is
// strictly non-blocking: submit hands the closure to an idle worker or
// reports false so the caller runs it inline. close is idempotent and
// only stops workers; closures already accepted still complete (their
// completion is the caller's WaitGroup, not the pool's).
type workerPool struct {
	fns  chan func()
	done chan struct{}
	once sync.Once
	wg   sync.WaitGroup
	n    int // target shard-count ceiling (Options.Parallelism)
}

// newWorkerPool starts parallelism-1 workers (the task goroutine is the
// remaining lane). parallelism <= 0 means runtime.GOMAXPROCS(0); a pool
// with parallelism 1 starts no goroutines and shards nothing.
func newWorkerPool(parallelism int) *workerPool {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	p := &workerPool{
		fns:  make(chan func()),
		done: make(chan struct{}),
		n:    parallelism,
	}
	for i := 1; i < parallelism; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for {
				select {
				case fn := <-p.fns:
					fn()
				case <-p.done:
					return
				}
			}
		}()
	}
	return p
}

// close stops the workers. Safe to call more than once and while tasks
// still submit: fns is unbuffered and never closed, so a straggler's
// submit simply finds no receiver and runs inline.
func (p *workerPool) close() {
	p.once.Do(func() { close(p.done) })
}

// join waits for the worker goroutines to exit; call after close.
func (p *workerPool) join() { p.wg.Wait() }

// stop closes the pool and waits for its workers to exit. Workers only
// ever run task shards, so once the tasks are joined they are idle and
// the wait is immediate; a worker wedged inside a user function (a
// failed run abandons such tasks too) is given up on after grace.
func (p *workerPool) stop(grace time.Duration) {
	p.close()
	if p.n < 2 {
		return // no workers were started
	}
	exited := make(chan struct{})
	go func() { p.join(); close(exited) }()
	timer := time.NewTimer(grace)
	defer timer.Stop()
	select {
	case <-exited:
	case <-timer.C:
	}
}

// shardsFor returns how many shards an n-pair loop should split into:
// 1 (serial) unless the loop is big enough, then at most p.n and at
// least parallelShardPairs pairs per shard.
func (p *workerPool) shardsFor(n int) int {
	if p == nil || p.n < 2 || n < parallelMinPairs {
		return 1
	}
	shards := n / parallelShardPairs
	if shards > p.n {
		shards = p.n
	}
	if shards < 2 {
		return 1
	}
	return shards
}

// shardRange returns the half-open pair range of shard i out of shards —
// contiguous, in order, covering [0, n) exactly.
func shardRange(n, shards, i int) (lo, hi int) {
	return i * n / shards, (i + 1) * n / shards
}

// runShards executes fn(shard) for every shard in [0, shards). Shards
// 1..shards-1 are offered to idle pool workers (inline when none is
// free); the calling task goroutine runs shard 0 and waits for the
// rest. fn must not touch task state that other shards write — each
// shard accumulates into its own slot and the caller merges.
func (p *workerPool) runShards(shards int, fn func(shard int)) {
	if shards < 2 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(shards - 1)
	for i := 1; i < shards; i++ {
		i := i
		job := func() {
			defer wg.Done()
			fn(i)
		}
		select {
		case p.fns <- job:
		default:
			job() // no idle worker: run in the caller's lane
		}
	}
	fn(0)
	wg.Wait()
}

// shardedEmits are the pair loops' shardRows: one emit buffer per
// (shard, reduce partition). Workers append into their own shard's row,
// the task goroutine drains rows in shard order so the merged stream is
// byte-identical to the serial loop's. It belongs to one map task for the task's lifetime:
// rows are emptied and refilled, not rebuilt, from one sharded loop to
// the next.
type shardedEmits struct {
	bufs [][]kv.Pair // [shard][partition-interleaved] — see emit
	nred int
}

// size makes sure there is a row for every (shard, partition) of a
// shards-wide loop.
func (se *shardedEmits) size(shards int) {
	if need := shards * se.nred; len(se.bufs) < need {
		se.bufs = append(se.bufs, make([][]kv.Pair, need-len(se.bufs))...)
	}
}

// emit returns the kv.Emit for one shard; partition fn is the job's.
func (se *shardedEmits) emit(shard int, partition func(k any) int) kv.Emit {
	base := shard * se.nred
	return func(k, v any) {
		r := partition(k)
		se.bufs[base+r] = append(se.bufs[base+r], kv.Pair{Key: k, Value: v})
	}
}

// drain moves reduce r's rows, shard by shard, into r's chunk buffers.
func (se *shardedEmits) drain(t *mapTask, iter, r int) {
	for s := 0; s*se.nred < len(se.bufs); s++ {
		ps := se.bufs[s*se.nred+r]
		t.fill(iter, r, len(ps), func(b *chunkBuf, lo, hi int) {
			b.pairs = append(b.pairs, ps[lo:hi]...)
		})
	}
}

// recycle empties every row after a merge, dropping the references to
// the merged records. A row keeps the capacity of the largest window it
// held, which runSharded's windows bound.
func (se *shardedEmits) recycle() {
	for i, row := range se.bufs {
		clear(row)
		se.bufs[i] = row[:0]
	}
}
