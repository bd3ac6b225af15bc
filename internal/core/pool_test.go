package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"imapreduce/internal/cluster"
	"imapreduce/internal/dfs"
	"imapreduce/internal/kv"
	"imapreduce/internal/leaktest"
	"imapreduce/internal/metrics"
	"imapreduce/internal/transport"
)

var errBoom = errors.New("boom")

func TestShardRangeCoversExactly(t *testing.T) {
	for _, n := range []int{1, 2, 127, 128, 256, 257, 1000, 4096} {
		for shards := 1; shards <= 7; shards++ {
			prev := 0
			for i := 0; i < shards; i++ {
				lo, hi := shardRange(n, shards, i)
				if lo != prev || hi < lo {
					t.Fatalf("n=%d shards=%d shard %d: range [%d,%d) after %d", n, shards, i, lo, hi, prev)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("n=%d shards=%d: ranges cover %d", n, shards, prev)
			}
		}
	}
}

func TestShardsForThresholds(t *testing.T) {
	p := newWorkerPool(4)
	defer func() { p.close(); p.join() }()
	if got := p.shardsFor(parallelMinPairs - 1); got != 1 {
		t.Fatalf("below min: %d shards", got)
	}
	if got := p.shardsFor(parallelMinPairs); got < 2 {
		t.Fatalf("at min: %d shards", got)
	}
	if got := p.shardsFor(1 << 20); got != 4 {
		t.Fatalf("huge input: %d shards, want parallelism cap 4", got)
	}
	var nilPool *workerPool
	if got := nilPool.shardsFor(1 << 20); got != 1 {
		t.Fatalf("nil pool: %d shards", got)
	}
	serial := newWorkerPool(1)
	defer func() { serial.close(); serial.join() }()
	if got := serial.shardsFor(1 << 20); got != 1 {
		t.Fatalf("parallelism 1: %d shards", got)
	}
}

// TestRunShardsAfterClose pins the straggler contract: a task that
// submits shards after run teardown closed the pool still executes every
// shard (inline), rather than deadlocking or panicking.
func TestRunShardsAfterClose(t *testing.T) {
	p := newWorkerPool(4)
	p.close()
	p.join()
	var ran atomic.Int64
	p.runShards(4, func(int) { ran.Add(1) })
	if ran.Load() != 4 {
		t.Fatalf("ran %d shards after close, want 4", ran.Load())
	}
	p.close() // idempotent
}

func TestRunShardsExecutesEveryShardOnce(t *testing.T) {
	p := newWorkerPool(4)
	defer func() { p.close(); p.join() }()
	for trial := 0; trial < 50; trial++ {
		counts := make([]atomic.Int64, 8)
		p.runShards(8, func(sh int) { counts[sh].Add(1) })
		for sh := range counts {
			if counts[sh].Load() != 1 {
				t.Fatalf("trial %d: shard %d ran %d times", trial, sh, counts[sh].Load())
			}
		}
	}
}

// TestParallelismMatchesSerial runs the same job serially and with
// intra-task parallelism forced on, over inputs big enough to shard both
// the map and the reduce loops, and requires identical results — the
// ordering guarantee sharded execution promises.
func TestParallelismMatchesSerial(t *testing.T) {
	const n = 2000 // >> parallelMinPairs with NumTasks 1
	run := func(parallelism int) (map[int64]any, int) {
		v := newEnv(t, 2, Options{parallelism: parallelism})
		v.writeState(t, "/state", n)
		job := halvingJob("par-eq", 4, 0)
		job.NumTasks = 1
		res, err := v.e.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		return v.readOutput(t, res.OutputPath), res.Iterations
	}
	serialOut, serialIters := run(1)
	parOut, parIters := run(4)
	if serialIters != parIters {
		t.Fatalf("iterations: serial %d, parallel %d", serialIters, parIters)
	}
	if len(serialOut) != n || !reflect.DeepEqual(serialOut, parOut) {
		t.Fatalf("parallel output diverges from serial (%d vs %d records)", len(parOut), len(serialOut))
	}
	for k, val := range parOut {
		if got := val.(float64); math.Abs(got-1.0/16) > 1e-12 {
			t.Fatalf("key %d = %v, want 1/16", k, got)
		}
	}
}

// TestParallelReduceErrorSurfaces checks that a user reduce error from a
// pool shard still aborts the run with the key in the message.
func TestParallelReduceErrorSurfaces(t *testing.T) {
	v := newEnv(t, 2, Options{parallelism: 4})
	v.writeState(t, "/state", 1000)
	job := halvingJob("par-err", 4, 0)
	job.NumTasks = 1
	orig := job.Reduce
	job.Reduce = func(key any, states []any) (any, error) {
		if key.(int64) == 617 {
			return nil, errBoom
		}
		return orig(key, states)
	}
	if _, err := v.e.Run(job); err == nil {
		t.Fatal("run succeeded despite reduce error")
	}
}

// TestEarlyErrorReleasesPool pins the pool's ownership rule: a run that
// fails before any task is spawned — no manifest to resume from, no
// state file to partition — still stops the pool it created. Parallelism
// is explicit so the pool has workers to strand even on a one-core box.
func TestEarlyErrorReleasesPool(t *testing.T) {
	defer leaktest.Check(t)()
	v := newEnv(t, 2, Options{parallelism: 4})
	if _, err := v.e.Resume(halvingJob("pool-own", 4, 0)); err == nil {
		t.Fatal("Resume with no manifest succeeded")
	}
	if _, err := v.e.Run(halvingJob("pool-own", 4, 0)); err == nil {
		t.Fatal("Run with no state file succeeded")
	}
}

// chunkLog is a transport.Network that records every shuffle chunk sent
// through it, per (sender, receiver) stream, contents and boundaries.
type chunkLog struct {
	transport.Network
	mu      sync.Mutex
	streams map[string][]string
}

type chunkLogEndpoint struct {
	transport.Endpoint
	log *chunkLog
}

func (n *chunkLog) Endpoint(addr string) (transport.Endpoint, error) {
	ep, err := n.Network.Endpoint(addr)
	if err != nil {
		return nil, err
	}
	return chunkLogEndpoint{ep, n}, nil
}

func (e chunkLogEndpoint) Send(to string, msg transport.Message) error {
	if c, ok := msg.Payload.(shuffleChunk); ok {
		stream := e.Addr() + ">" + to
		e.log.mu.Lock()
		e.log.streams[stream] = append(e.log.streams[stream], fmt.Sprintf("iter %d end %v %v", c.Iter, c.End, c.Pairs))
		e.log.mu.Unlock()
	}
	return e.Endpoint.Send(to, msg)
}

// TestWindowedShardingMatchesSerial runs a fan-out job whose map loops
// span several sharding windows (the first iteration's self-load always,
// every iteration under SyncMap) serially and on a four-wide pool, at a
// small and a large BufferThreshold. For one threshold the two runs must
// send every reduce the same chunks — same records, same order, same
// boundaries; across all of them the output must be identical.
func TestWindowedShardingMatchesSerial(t *testing.T) {
	const n = 3*shardWindowPairs + 100
	run := func(parallelism, bufThresh int, syncMap bool) (map[string][]string, map[int64]any) {
		spec := cluster.Uniform(2)
		m := metrics.NewSet()
		fs := dfs.New(dfs.Config{BlockSize: 1 << 14, Replication: 2}, spec.IDs(), m)
		net := &chunkLog{Network: transport.NewChanNetwork(), streams: map[string][]string{}}
		e, err := NewEngine(fs, net, spec, m, Options{parallelism: parallelism, Timeout: 20 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		v := &env{e: e, fs: fs, m: m, spec: spec}
		v.writeState(t, "/state", n)
		job := &Job{
			Name:      "windows",
			StatePath: "/state",
			// Integer-valued floats: the sums are exact, so the result does
			// not depend on the order two maps' chunks reach a reduce.
			Map: func(key, state, static any, emit kv.Emit) error {
				k, s := key.(int64), state.(float64)
				emit(k, 1.0)
				emit((k+1)%n, s)
				emit((7*k)%n, 2.0)
				return nil
			},
			Reduce: func(key any, states []any) (any, error) {
				var sum float64
				for _, s := range states {
					sum += s.(float64)
				}
				return sum, nil
			},
			MaxIter:         3,
			NumTasks:        2,
			SyncMap:         syncMap,
			BufferThreshold: bufThresh,
			Ops:             f64Ops(),
		}
		res, err := e.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		return net.streams, v.readOutput(t, res.OutputPath)
	}
	var refOut map[int64]any
	for _, syncMap := range []bool{false, true} {
		for _, bufThresh := range []int{64, 4096} {
			serial, serialOut := run(1, bufThresh, syncMap)
			sharded, shardedOut := run(4, bufThresh, syncMap)
			label := fmt.Sprintf("SyncMap %v BufferThreshold %d", syncMap, bufThresh)
			if len(serial) != 4 || !reflect.DeepEqual(serial, sharded) {
				t.Fatalf("%s: sharded run's shuffle chunks differ from the serial run's", label)
			}
			if refOut == nil {
				refOut = serialOut
			}
			if len(refOut) != n || !reflect.DeepEqual(refOut, serialOut) || !reflect.DeepEqual(refOut, shardedOut) {
				t.Fatalf("%s: output differs", label)
			}
		}
	}
}
