package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"imapreduce/internal/cluster"
	"imapreduce/internal/dfs"
	"imapreduce/internal/kv"
	"imapreduce/internal/metrics"
	"imapreduce/internal/transport"
)

// restartEngine builds a second engine over the same DFS, metrics, and
// spec — the cold-restart scenario: the process died, the DFS survived.
func restartEngine(t *testing.T, v *env, opts Options) *Engine {
	t.Helper()
	if opts.Timeout == 0 {
		opts.Timeout = 20 * time.Second
	}
	e, err := NewEngine(v.fs, transport.NewChanNetwork(), v.spec, v.m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// killAfterManifest returns a run context that it cancels with
// ErrKilled as soon as a manifest for iter (or later) is durable, so
// Resume is guaranteed a checkpoint to restart from, and a channel
// closed once the kill landed (or gave up).
func killAfterManifest(v *env, jobName string, iter int) (context.Context, chan struct{}) {
	ctx, kill := context.WithCancelCause(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		deadline := time.After(10 * time.Second)
		for {
			select {
			case <-deadline:
				return
			default:
			}
			committed := false
			for _, p := range v.fs.List(fmt.Sprintf("/_imr/%s/", jobName)) {
				if it, ok := manifestIter(jobName, p); ok && it >= iter {
					committed = true
					break
				}
			}
			if committed {
				kill(ErrKilled)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	return ctx, done
}

// TestKillAndResumeBitIdentical is the headline recovery contract: the
// whole engine (master and every worker task) dies mid-run after a
// durable checkpoint, a fresh engine over the surviving DFS resumes,
// and the final output is bit-identical to an uninterrupted run.
func TestKillAndResumeBitIdentical(t *testing.T) {
	const (
		maxIter = 16
		ckpt    = 2
		keys    = 24
	)

	// Reference: same job on an untouched cluster.
	ref := newEnv(t, 3, Options{})
	ref.writeState(t, "/state", keys)
	refRes, err := ref.e.Run(slowHalvingJob("halve-kill", maxIter, ckpt))
	if err != nil {
		t.Fatal(err)
	}
	want := ref.readOutput(t, refRes.OutputPath)
	if len(want) != keys {
		t.Fatalf("reference output has %d keys", len(want))
	}

	// Chaos cluster: kill once checkpoint 6 is durable.
	v := newEnv(t, 3, Options{})
	v.writeState(t, "/state", keys)
	ctx, killed := killAfterManifest(v, "halve-kill", 6)
	_, err = v.e.RunCtx(ctx, slowHalvingJob("halve-kill", maxIter, ckpt))
	<-killed
	if !errors.Is(err, ErrKilled) {
		t.Fatalf("killed run error = %v, want ErrKilled", err)
	}
	if parts := v.fs.List(refRes.OutputPath + "/"); len(parts) != 0 {
		t.Fatalf("killed run wrote final output: %v", parts)
	}

	// Cold restart: fresh engine, same DFS, same job definition.
	e2 := restartEngine(t, v, Options{})
	res, err := e2.Resume(slowHalvingJob("halve-kill", maxIter, ckpt))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != maxIter {
		t.Fatalf("resumed iterations = %d, want %d", res.Iterations, maxIter)
	}
	if len(res.PerIter) == 0 || res.PerIter[0].Iter < 7 {
		t.Fatalf("resume replayed from iteration %d, want >= 7 (checkpoint 6 was durable)", res.PerIter[0].Iter)
	}
	if got := v.m.Get(metrics.RunsResumed); got != 1 {
		t.Fatalf("runs.resumed = %d, want 1", got)
	}
	out := v.readOutput(t, res.OutputPath)
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("resumed output differs from uninterrupted run:\n got %v\nwant %v", out, want)
	}
}

// TestResumeAuxiliaryJob: a watched job resumed from checkpoint 2 feeds
// its auxiliary phase from iteration 3 on. The master used to keep
// counting the auxiliary phase as stuck before iteration 1, hold
// iteration 3's proceed for an evaluation of iteration 2 that never
// comes, and stall until its progress timeout.
func TestResumeAuxiliaryJob(t *testing.T) {
	const name = "halve-aux-resume"
	job := func() *Job {
		j := watchedHalvingJob(name)
		j.CheckpointEvery = 2
		return j
	}
	// The first run never gets past iteration 3: iteration 2's auxiliary
	// outputs are lost, so iteration 3's proceed waits for them.
	lose := &tapNet{Network: transport.NewChanNetwork(), tap: func(_ transport.Endpoint, _ string, msg transport.Message) error {
		if pl, ok := msg.Payload.(auxOutMsg); ok && pl.Iter == 2 {
			return errTaken
		}
		return nil
	}}
	v := newEnvNet(t, cluster.Uniform(2), lose, Options{})
	v.writeState(t, "/state", 6)
	ctx, killed := killAfterManifest(v, name, 2)
	_, err := v.e.RunCtx(ctx, job())
	<-killed
	if !errors.Is(err, ErrKilled) {
		t.Fatalf("first run error = %v, want ErrKilled", err)
	}

	// Iteration 3's reports reach the master before its auxiliary
	// outputs, as they usually do.
	net, held := auxHoldNet(t, 2, 3, 3)
	e2, err := NewEngine(v.fs, net, v.spec, v.m, Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e2.Resume(job())
	if err != nil {
		t.Fatal(err)
	}
	if !held() {
		t.Fatal("iteration 3's auxiliary outputs were never held back")
	}
	if len(res.PerIter) == 0 || res.PerIter[0].Iter != 3 {
		t.Fatalf("resume started at %v, want iteration 3", res.PerIter)
	}
	checkWatchedHalving(t, v, res)
}

// TestResumeVerifiesManifest covers the refusal paths: no durable
// manifest at all, and a manifest written by a different job
// definition (configuration fingerprint mismatch).
func TestResumeVerifiesManifest(t *testing.T) {
	v := newEnv(t, 3, Options{})
	v.writeState(t, "/state", 12)

	// Nothing checkpointed yet: resume must refuse, not run from scratch.
	if _, err := v.e.Resume(halvingJob("halve-fp", 6, 0)); err == nil {
		t.Fatal("Resume with no manifest succeeded")
	}

	job := halvingJob("halve-fp", 6, 0)
	job.CheckpointEvery = 2
	if _, err := v.e.Run(job); err != nil {
		t.Fatal(err)
	}

	// The completed run's last manifest is still durable; resuming with
	// a structurally different job must be rejected outright.
	alt := halvingJob("halve-fp", 9, 0)
	alt.CheckpointEvery = 2
	e2 := restartEngine(t, v, Options{})
	_, err := e2.Resume(alt)
	if err == nil || !strings.Contains(err.Error(), "different job definition") {
		t.Fatalf("mismatched resume error = %v, want fingerprint rejection", err)
	}
}

// TestStaleGenCheckpointNotCommitted forces the interleaving where a
// checkpoint write is still in flight when a worker failure rolls the
// job back: the write must be abandoned (no file commit, no ckptMsg
// under the new generation), never reported as the new generation's
// progress.
func TestStaleGenCheckpointNotCommitted(t *testing.T) {
	v := newEnv(t, 3, Options{})
	v.writeState(t, "/state", 24)
	const maxIter = 12
	job := slowHalvingJob("halve-stale", maxIter, 1)

	// The hook freezes part-0's first iteration-1 checkpoint write. It
	// is released only when the *re-issued* write for the same part
	// arrives — which can only happen after the rollback landed on the
	// task and iteration 1 re-ran, so the stale writer is guaranteed to
	// observe the new generation.
	var once sync.Once
	release := make(chan struct{})
	frozen := make(chan struct{})
	var seen atomic.Bool
	v.fs.SetWriteHook(func(path string) error {
		if !strings.Contains(path, "/ckpt-000001/part-0.tmp-g") {
			return nil
		}
		if seen.CompareAndSwap(false, true) {
			close(frozen)
			<-release
			return nil
		}
		once.Do(func() { close(release) })
		return nil
	})

	failed := make(chan struct{})
	go func() {
		defer close(failed)
		<-frozen
		deadline := time.After(5 * time.Second)
		for {
			select {
			case <-deadline:
				return
			default:
			}
			if err := v.e.FailWorker("worker-1"); err == nil {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	// Watchdog: if the failure never lands (run raced to completion),
	// unfreeze the writer so teardown's checkpoint join can't deadlock;
	// the stale-count assertion below then reports the real problem.
	// testDone cancels the watchdog so it doesn't outlive the test.
	testDone := make(chan struct{})
	defer close(testDone)
	go func() {
		<-failed
		select {
		case <-time.After(10 * time.Second):
			once.Do(func() { close(release) })
		case <-testDone:
		}
	}()

	res, err := v.e.Run(job)
	<-failed
	if err != nil {
		t.Fatal(err)
	}
	if got := v.m.Get(metrics.CheckpointsStale); got < 1 {
		t.Fatalf("checkpoints.stale = %d, want >= 1 (stale writer was not abandoned)", got)
	}
	out := v.readOutput(t, res.OutputPath)
	wantVal := math.Pow(2, -maxIter)
	for k, val := range out {
		if val.(float64) != wantVal {
			t.Fatalf("key %d = %v, want %v", k, val, wantVal)
		}
	}
	if len(out) != 24 {
		t.Fatalf("output keys = %d, want 24", len(out))
	}
}

// TestCheckpointWriteFailureRetries injects transient DFS write
// failures into checkpoint commits: the task must retry with
// re-placement rather than abort the whole run.
func TestCheckpointWriteFailureRetries(t *testing.T) {
	v := newEnv(t, 3, Options{})
	v.writeState(t, "/state", 24)
	const maxIter = 6

	var fails atomic.Int32
	v.fs.SetWriteHook(func(path string) error {
		if strings.Contains(path, ".tmp-g") && fails.Add(1) <= 2 {
			return errors.New("injected transient write failure")
		}
		return nil
	})

	res, err := v.e.Run(slowHalvingJob("halve-retry", maxIter, 2))
	if err != nil {
		t.Fatalf("transient checkpoint failure aborted the run: %v", err)
	}
	if got := v.m.Get(metrics.CheckpointRetries); got < 2 {
		t.Fatalf("checkpoints.retries = %d, want >= 2", got)
	}
	if got := v.m.Get(metrics.Checkpoints); got < 1 {
		t.Fatalf("checkpoints.written = %d, want >= 1", got)
	}
	out := v.readOutput(t, res.OutputPath)
	wantVal := math.Pow(2, -maxIter)
	for k, val := range out {
		if val.(float64) != wantVal {
			t.Fatalf("key %d = %v, want %v", k, val, wantVal)
		}
	}
}

// TestCheckpointGC: superseded checkpoints and manifests are deleted as
// newer ones become durable; only the newest generation (and at most
// the final racing one) survive the run.
func TestCheckpointGC(t *testing.T) {
	v := newEnv(t, 3, Options{})
	v.writeState(t, "/state", 12)
	job := halvingJob("halve-gc", 8, 0)
	job.CheckpointEvery = 2
	if _, err := v.e.Run(job); err != nil {
		t.Fatal(err)
	}

	if got := v.m.Get(metrics.CheckpointsGCed); got < 1 {
		t.Fatalf("checkpoints.gced = %d, want >= 1", got)
	}
	iters := map[int]bool{}
	for _, p := range v.fs.List("/_imr/halve-gc/ckpt-") {
		var it, part int
		if _, err := fmt.Sscanf(p, "/_imr/halve-gc/ckpt-%06d/part-%d", &it, &part); err != nil {
			t.Fatalf("unparseable checkpoint path %q", p)
		}
		iters[it] = true
	}
	for _, p := range v.fs.List("/_imr/halve-gc/" + manifestPrefix) {
		if it, ok := manifestIter("halve-gc", p); ok {
			iters[it] = true
		}
	}
	if len(iters) == 0 || len(iters) > 2 {
		t.Fatalf("surviving checkpoint iterations = %v, want 1 or 2 newest", iters)
	}
	for it := range iters {
		if it < 6 {
			t.Fatalf("superseded checkpoint iteration %d not collected (survivors %v)", it, iters)
		}
	}
}

// TestFailNodeDuringCheckpointWrite: a DFS datanode dies while a
// checkpoint write to it is in flight. The write must land on the
// surviving nodes and the run must complete; re-replication heals the
// lost replicas concurrently.
func TestFailNodeDuringCheckpointWrite(t *testing.T) {
	v := newEnv(t, 3, Options{})
	v.writeState(t, "/state", 24)
	const maxIter = 8

	var seen atomic.Bool
	frozen := make(chan struct{})
	release := make(chan struct{})
	v.fs.SetWriteHook(func(path string) error {
		if strings.Contains(path, ".tmp-g") && seen.CompareAndSwap(false, true) {
			close(frozen)
			<-release
		}
		return nil
	})
	go func() {
		<-frozen
		v.fs.FailNode("worker-0")
		time.Sleep(5 * time.Millisecond)
		close(release)
	}()

	res, err := v.e.Run(slowHalvingJob("halve-dfsfail", maxIter, 2))
	if err != nil {
		t.Fatalf("datanode loss during checkpoint write aborted the run: %v", err)
	}
	if got := v.m.Get(metrics.Checkpoints); got < 1 {
		t.Fatalf("checkpoints.written = %d, want >= 1", got)
	}
	out := v.readOutput(t, res.OutputPath)
	wantVal := math.Pow(2, -maxIter)
	for k, val := range out {
		if val.(float64) != wantVal {
			t.Fatalf("key %d = %v, want %v", k, val, wantVal)
		}
	}
}

// TestFreshRunClearsStaleCheckpoints: a non-resume run under a name
// that has old checkpoints must wipe them, so a later Resume can never
// restart from a previous job's state.
func TestFreshRunClearsStaleCheckpoints(t *testing.T) {
	v := newEnv(t, 3, Options{})
	v.writeState(t, "/state", 12)

	// Plant a fake durable-looking manifest from a "previous" run.
	if err := v.fs.WriteFile(manifestPath("halve-fresh", 99), v.spec.IDs()[0],
		[]kv.Pair{{Key: "manifest", Value: "{}"}}, manifestOps); err != nil {
		t.Fatal(err)
	}
	job := halvingJob("halve-fresh", 4, 0)
	if _, err := v.e.Run(job); err != nil {
		t.Fatal(err)
	}
	if v.fs.Exists(manifestPath("halve-fresh", 99)) {
		t.Fatal("stale manifest from a previous run survived a fresh start")
	}
}

// TestChanEndpointReuseAfterRestart: a second engine over the same
// transport addresses must be able to re-open them — endpoint names
// are freed on close (regression guard for the restart path when the
// network, unlike the process, survives).
func TestChanEndpointReuseAfterRestart(t *testing.T) {
	net := transport.NewChanNetwork()
	ep, err := net.Endpoint("worker-0")
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	ep2, err := net.Endpoint("worker-0")
	if err != nil {
		t.Fatalf("re-open after close failed: %v", err)
	}
	ep2.Close()
}

// TestKilledRunStragglerCannotPoisonResume: a task of a killed run that
// outlives the teardown grace (wedged in a user function, or just
// starved of CPU) wakes up beside the run that resumed the job — under
// the same task addresses, and at the same generation number, since a
// new engine counts generations from one again. What it then sends
// must go nowhere: an end-of-iteration marker accepted from it closes a
// reduce barrier before the resumed run's own map has delivered, and
// the keys that map still owed are lost for good (the soak's seed 2
// lost 4-7 of 192 this way on an oversubscribed host). The straggler
// here is forged on the killed run's real endpoint, which the teardown
// closed: a closed endpoint sends nothing.
func TestKilledRunStragglerCannotPoisonResume(t *testing.T) {
	guard(t, 2*time.Minute)
	const name, iters, keys = "halve-straggler", 10, 24
	// onGo runs as the master sends its first go command: every task has
	// acknowledged the rollback and adopted the run's generation, no data
	// has flowed yet.
	var onGo atomic.Pointer[func(cmdMsg)]
	var once sync.Once
	net := &tapNet{Network: transport.NewChanNetwork(), tap: func(_ transport.Endpoint, _ string, msg transport.Message) error {
		if c, ok := msg.Payload.(cmdMsg); ok && c.Kind == cmdGo {
			if fn := onGo.Load(); fn != nil {
				once.Do(func() { (*fn)(c) })
			}
		}
		return nil
	}}
	spec := cluster.Uniform(3)
	m := metrics.NewSet()
	fs := dfs.New(dfs.Config{BlockSize: 1 << 14, Replication: 2}, spec.IDs(), m)
	e1, err := NewEngine(fs, net, spec, m, Options{Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	v := &env{e: e1, fs: fs, m: m, spec: spec}
	v.writeState(t, "/state", keys)

	// In the resumed run, map task 1 blocks until the test lets it go.
	var gated atomic.Bool
	gate := make(chan struct{})
	ops := f64Ops()
	build := func() *Job {
		job := slowHalvingJob(name, iters, 2)
		userMap := job.Map
		job.Map = func(key, state, static any, emit kv.Emit) error {
			if gated.Load() && ops.Partition(key, 3) == 1 {
				<-gate
			}
			return userMap(key, state, static, emit)
		}
		return job
	}

	ctx, killed := killAfterManifest(v, name, 2)
	_, err = e1.RunCtx(ctx, build())
	<-killed
	if !errors.Is(err, ErrKilled) {
		t.Fatalf("first run: %v, want ErrKilled", err)
	}
	net.mu.Lock()
	stale := net.first[mapAddr(name, 0, 1)] // the killed run's map task 1, as its teardown left it
	net.mu.Unlock()

	gated.Store(true)
	var refused atomic.Int64
	inject := func(c cmdMsg) {
		for r := 0; r < 3; r++ {
			err := stale.Send(redAddr(name, 0, r), transport.Message{Kind: kindShuffle,
				Payload: shuffleChunk{Gen: 2, Iter: c.ToIter + 1, FromMap: 1, Seq: 1 << 40, End: 1}})
			if err != nil {
				refused.Add(1)
			}
		}
	}
	onGo.Store(&inject)
	boundary := make(chan int, iters)
	e2, err := NewEngine(fs, net, spec, m, Options{Timeout: 20 * time.Second,
		OnIteration: func(it IterInfo) { boundary <- it.Iter }})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := e2.Resume(build())
		done <- outcome{res, err}
	}()
	select {
	case it := <-boundary:
		t.Errorf("iteration %d completed while its map task 1 was still blocked: a stale end marker closed the barrier", it)
	case <-time.After(300 * time.Millisecond):
	}
	close(gate)
	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	if refused.Load() != 3 {
		t.Errorf("%d of 3 stale sends were refused, want all", refused.Load())
	}
	out := v.readOutput(t, o.res.OutputPath)
	if len(out) != keys {
		t.Fatalf("%d keys survived, want %d", len(out), keys)
	}
	for k, val := range out {
		if val.(float64) != math.Pow(2, -iters) {
			t.Fatalf("key %d = %v, want %v", k, val, math.Pow(2, -iters))
		}
	}
}
