package core

import (
	"math"
	"sync"
	"testing"
	"time"

	"imapreduce/internal/cluster"
	"imapreduce/internal/metrics"
	"imapreduce/internal/transport"
)

// newFaultyEnv builds an engine over a FaultyNetwork wrapping the
// in-process channel transport.
func newFaultyEnv(t *testing.T, spec cluster.Spec, opts Options, fopts transport.FaultyOptions) (*env, *transport.FaultyNetwork) {
	t.Helper()
	fnet := transport.NewFaultyNetwork(transport.NewChanNetwork(), fopts)
	return newEnvNet(t, spec, fnet, opts), fnet
}

// TestChaosRingDropsDupsReorders runs the ring-diffusion job over a
// lossy, duplicating, reordering network. Drops are detectable send
// errors recovered by the engine's bounded retries; duplicates and
// reorders are silent and must be absorbed by the protocol's sequence
// dedup and generation guards. The converged state must match the
// sequential reference exactly.
func TestChaosRingDropsDupsReorders(t *testing.T) {
	guard(t, 2*time.Minute)
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	v, fnet := newFaultyEnv(t, cluster.Uniform(4), Options{SendRetries: 6},
		transport.FaultyOptions{Seed: 7, DropRate: 0.03, DupRate: 0.03, ReorderRate: 0.05})
	job, vals := ringSetup(t, v, 64)
	job.MaxIter = 9
	res, err := v.e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	want := ringReference(vals, 9)
	out := v.readOutput(t, res.OutputPath)
	if len(out) != 64 {
		t.Fatalf("%d outputs", len(out))
	}
	for i := 0; i < 64; i++ {
		if got := out[int64(i)].(float64); math.Abs(got-want[i]) > 1e-9 {
			t.Fatalf("key %d: got %v want %v", i, got, want[i])
		}
	}
	if fnet.Drops() == 0 || fnet.Dups() == 0 || fnet.Reorders() == 0 {
		t.Fatalf("fault injection idle: drops=%d dups=%d reorders=%d",
			fnet.Drops(), fnet.Dups(), fnet.Reorders())
	}
	if v.m.Get(metrics.SendRetries) == 0 {
		t.Fatal("drops happened but nothing was retried")
	}
}

// TestChaosIdempotentControlPlane pushes duplicates and reorders (no
// drops) through a job that exercises every master-bound message kind —
// reports, checkpoint acks, auxiliary outputs, final acks — plus the
// rollback-free command path. The run must terminate with the state
// self-consistent with the iteration count: any double-applied report
// or auxiliary decision would show up as a wrong value or a runaway.
func TestChaosIdempotentControlPlane(t *testing.T) {
	guard(t, 2*time.Minute)
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	v, fnet := newFaultyEnv(t, cluster.Uniform(2), Options{},
		transport.FaultyOptions{Seed: 99, DupRate: 0.2, ReorderRate: 0.2})
	v.writeState(t, "/state", 6)
	main := watchedHalvingJob("halve-chaos-aux")
	main.CheckpointEvery = 2
	res, err := v.e.Run(main)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("aux decision lost under duplication/reordering")
	}
	if res.Iterations < 4 || res.Iterations > 10 {
		t.Fatalf("iterations = %d, want 4..10", res.Iterations)
	}
	out := v.readOutput(t, res.OutputPath)
	if len(out) != 6 {
		t.Fatalf("%d outputs", len(out))
	}
	want := math.Pow(2, -float64(res.Iterations))
	for k, val := range out {
		if math.Abs(val.(float64)-want) > 1e-12 {
			t.Fatalf("key %d = %v, want %v (iterations=%d)", k, val, want, res.Iterations)
		}
	}
	if fnet.Dups() == 0 || fnet.Reorders() == 0 {
		t.Fatalf("fault injection idle: dups=%d reorders=%d", fnet.Dups(), fnet.Reorders())
	}
	if v.m.Get(metrics.Checkpoints) == 0 {
		t.Fatal("no checkpoints written")
	}
}

// TestHeartbeatHealthyRun: with detection on and nothing wrong, beats
// flow and nobody is declared dead.
func TestHeartbeatHealthyRun(t *testing.T) {
	guard(t, 2*time.Minute)
	v := newEnv(t, 3, Options{HeartbeatInterval: 5 * time.Millisecond, HeartbeatMisses: 5})
	v.writeState(t, "/state", 24)
	job := slowHalvingJob("halve-hb", 8, 2)
	res, err := v.e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 0 {
		t.Fatalf("spurious recovery: %d", res.Recoveries)
	}
	if v.m.Get(metrics.HeartbeatsSent) == 0 {
		t.Fatal("no heartbeats sent")
	}
	if v.m.Get(metrics.FailuresDetected) != 0 {
		t.Fatal("healthy worker declared dead")
	}
	out := v.readOutput(t, res.OutputPath)
	for k, val := range out {
		if math.Abs(val.(float64)-math.Pow(2, -8)) > 1e-15 {
			t.Fatalf("key %d = %v", k, val)
		}
	}
}

// TestHeartbeatDetectsStalledWorker injects an *undetected* hang: the
// worker's tasks freeze without announcing anything. The master must
// notice the missed beats, declare the worker failed, and recover
// through the checkpoint rollback — no FailWorker call anywhere.
func TestHeartbeatDetectsStalledWorker(t *testing.T) {
	guard(t, 2*time.Minute)
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	// worker-1 freezes once iteration 2 is committed.
	var v *env
	var stall sync.Once
	v = newEnvSpec(t, cluster.Uniform(3), Options{
		HeartbeatInterval: 15 * time.Millisecond,
		HeartbeatMisses:   3,
		OnIteration: func(it IterInfo) {
			if it.Iter == 2 {
				stall.Do(func() { v.e.StallWorker("worker-1", 700*time.Millisecond) })
			}
		},
	})
	v.writeState(t, "/state", 24)
	job := slowHalvingJob("halve-stall", 40, 2)
	res, err := v.e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries < 1 {
		t.Fatalf("recoveries = %d, want >= 1 (hang undetected)", res.Recoveries)
	}
	if v.m.Get(metrics.FailuresDetected) < 1 {
		t.Fatal("failure not attributed to heartbeat detection")
	}
	if res.Iterations != 40 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
	out := v.readOutput(t, res.OutputPath)
	if len(out) != 24 {
		t.Fatalf("%d outputs survived the hang", len(out))
	}
	for k, val := range out {
		if math.Abs(val.(float64)-math.Pow(2, -40)) > 1e-18 {
			t.Fatalf("key %d = %v after recovery", k, val)
		}
	}
}

// TestTimeoutFiresOnGenuineSilence: a run whose tasks go quiet must be
// aborted by the master's silence backstop.
func TestTimeoutFiresOnGenuineSilence(t *testing.T) {
	guard(t, 2*time.Minute)
	v := newEnv(t, 2, Options{Timeout: 150 * time.Millisecond})
	v.writeState(t, "/state", 4)
	job := halvingJob("halve-silent", 5, 0)
	job.Reduce = func(key any, states []any) (any, error) {
		time.Sleep(3 * time.Second) // well past the master's patience
		return states[0], nil
	}
	start := time.Now()
	_, err := v.e.Run(job)
	if err == nil {
		t.Fatal("silent run not aborted")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v to fire", elapsed)
	}
}

// TestTimeoutNotSpuriousUnderSteadyProgress is the deflake regression:
// the master's deadline must track the last message received, so a run
// many timeouts long survives as long as it keeps making progress. The
// old reset idiom could abort such runs on a stale timer expiry. One
// reduce call an iteration sleeps, so the run lasts at least 5 timeouts
// while every silence stays a tenth of one; a run that ends sooner has
// not tested the property, and fails.
func TestTimeoutNotSpuriousUnderSteadyProgress(t *testing.T) {
	guard(t, 2*time.Minute)
	const timeout, iters, pace = 250 * time.Millisecond, 50, 25 * time.Millisecond
	v := newEnv(t, 2, Options{Timeout: timeout})
	v.writeState(t, "/state", 16)
	job := halvingJob("halve-steady", iters, 0)
	job.CheckpointEvery = 3 // extra master traffic between reports
	base := job.Reduce
	job.Reduce = func(key any, states []any) (any, error) {
		if key == int64(0) {
			time.Sleep(pace) // every iteration waits on this one reduce call
		}
		return base(key, states)
	}
	start := time.Now()
	res, err := v.e.Run(job)
	if err != nil {
		t.Fatalf("steady run aborted after %v: %v", time.Since(start), err)
	}
	if res.Iterations != iters {
		t.Fatalf("iterations = %d", res.Iterations)
	}
	if res.TotalWall < 4*timeout {
		t.Fatalf("run finished in %v, under 4 timeouts of %v; the property was not exercised", res.TotalWall, timeout)
	}
}
