package pagerank

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"imapreduce/internal/cluster"
	"imapreduce/internal/core"
	"imapreduce/internal/enginetest"
	"imapreduce/internal/metrics"
	"imapreduce/internal/transport"
)

// TestChaosPageRankDropsAndHang is the end-to-end robustness check:
// PageRank over a network that drops, duplicates, and reorders frames
// from a fixed seed, while one worker silently hangs mid-run — no
// FailWorker announcement. Bounded send retries absorb the drops, the
// sequence/generation guards absorb the duplicates and reorders, and
// the heartbeat detector must notice the hang and recover through the
// checkpoint rollback. The converged ranks must equal the sequential
// power-iteration reference.
func TestChaosPageRankDropsAndHang(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	g := testGraph(400, 11)
	const iters = 10

	// Undetected hang: once iteration 2 is committed, worker-1's tasks
	// freeze and its beats stop.
	var env *enginetest.Env
	var stall sync.Once
	env, fnet, err := enginetest.NewChaos(cluster.Uniform(3), core.Options{
		Timeout:           30 * time.Second,
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatMisses:   4,
		SendRetries:       6,
		OnIteration: func(it core.IterInfo) {
			if it.Iter == 2 {
				stall.Do(func() { env.Core.StallWorker("worker-1", 900*time.Millisecond) })
			}
		},
	}, &transport.FaultyOptions{
		Seed: 1, DropRate: 0.02, DupRate: 0.01, ReorderRate: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteInputs(env.FS, env.At(), g, "/pr/static", "/pr/state"); err != nil {
		t.Fatal(err)
	}
	job := IMRJob(IMRConfig{
		Name: "pr-chaos", Nodes: g.N,
		StaticPath: "/pr/static", StatePath: "/pr/state",
		MaxIter: iters, Checkpoint: 2,
	})
	// Pace the reduce so the stall window lands mid-computation.
	base := job.Reduce
	var calls atomic.Int64
	job.Reduce = func(key any, states []any) (any, error) {
		if calls.Add(1)%10 == 0 {
			time.Sleep(time.Millisecond)
		}
		return base(key, states)
	}

	res, err := env.Core.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries < 1 {
		t.Fatalf("recoveries = %d, want >= 1 (hang never detected)", res.Recoveries)
	}
	if env.M.Get(metrics.FailuresDetected) < 1 {
		t.Fatal("recovery happened but not via heartbeat detection")
	}
	if fnet.Drops() == 0 {
		t.Fatal("no drops injected — fault profile inert")
	}
	if res.Iterations != iters {
		t.Fatalf("iterations = %d, want %d", res.Iterations, iters)
	}

	want := Reference(g, iters)
	out, err := env.ReadDir(res.OutputPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != g.N {
		t.Fatalf("%d outputs", len(out))
	}
	for i := 0; i < g.N; i++ {
		got := out[int64(i)].(float64)
		if math.Abs(got-want[i]) > 1e-9 {
			t.Fatalf("node %d: chaos run %v, reference %v", i, got, want[i])
		}
	}
	t.Logf("drops=%d dups=%d reorders=%d retries=%d recoveries=%d detected=%d",
		fnet.Drops(), fnet.Dups(), fnet.Reorders(),
		env.M.Get(metrics.SendRetries), res.Recoveries, env.M.Get(metrics.FailuresDetected))
}
