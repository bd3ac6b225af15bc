package imr

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"imapreduce/internal/kv"
	"imapreduce/internal/mapreduce"
	"imapreduce/internal/metrics"
)

func seedHalveState(t *testing.T, c *Cluster) {
	t.Helper()
	var recs []kv.Pair
	for i := 0; i < 12; i++ {
		recs = append(recs, kv.Pair{Key: int64(i), Value: 1.0})
	}
	if err := c.Write("/state", recs, kv.OpsFor[int64, float64](nil)); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitHandle walks the happy path of the handle API: immediate
// return, running status, Wait and Result agreeing, terminal Done.
func TestSubmitHandle(t *testing.T) {
	c, err := NewCluster(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	seedHalveState(t, c)
	h, err := c.Submit(context.Background(), JobSpec{Iterative: halveJob("handle", 5)}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := h.Status(); st != StatusRunning && st != StatusDone {
		t.Fatalf("fresh handle status %v", st)
	}
	if err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := h.Result()
	if err != nil || res == nil || res.Iterative == nil {
		t.Fatalf("result %v %v", res, err)
	}
	if res.Iterative.Iterations != 5 {
		t.Fatalf("iterations = %d", res.Iterative.Iterations)
	}
	if h.Status() != StatusDone {
		t.Fatalf("terminal status %v", h.Status())
	}
	// Cancel after finish is a documented no-op.
	h.Cancel()
	if h.Status() != StatusDone {
		t.Fatalf("cancel flipped terminal status to %v", h.Status())
	}
}

// TestSubmitConcurrentJobs runs several iterative jobs at once on one
// cluster — the engine-pool behavior the serve layer builds on — and
// checks each result is exact.
func TestSubmitConcurrentJobs(t *testing.T) {
	c, err := NewCluster(Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	seedHalveState(t, c)
	const jobsN = 6
	handles := make([]*JobHandle, jobsN)
	sets := make([]*metrics.Set, jobsN)
	for i := range handles {
		iters := 3 + i
		job := halveJob(fmt.Sprintf("conc-%d", i), iters)
		job.OutputPath = fmt.Sprintf("/out/conc-%d", i)
		sets[i] = metrics.NewSet()
		h, err := c.Submit(context.Background(), JobSpec{Iterative: job},
			SubmitOptions{Metrics: sets[i]})
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		res, err := h.Result()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		iters := 3 + i
		if res.Iterative.Iterations != iters {
			t.Fatalf("job %d iterations = %d, want %d", i, res.Iterative.Iterations, iters)
		}
		out, err := ReadAllAs[int64, float64](c, fmt.Sprintf("/out/conc-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		want := math.Pow(2, -float64(iters))
		for k, v := range out {
			if v != want {
				t.Fatalf("job %d key %d = %v, want %v", i, k, v, want)
			}
		}
		// Per-job metric isolation: each private set saw exactly its
		// own run's iterations.
		if n := sets[i].Get(metrics.Iterations); n != int64(iters) {
			t.Fatalf("job %d private iterations = %d, want %d", i, n, iters)
		}
	}
}

// TestSubmitDuplicateNameRejected: two active jobs cannot share a name
// (it namespaces endpoints, checkpoints, manifests).
func TestSubmitDuplicateNameRejected(t *testing.T) {
	c, err := NewCluster(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	seedHalveState(t, c)
	h, err := c.Submit(context.Background(), JobSpec{Iterative: halveJob("dup", 100000)}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(context.Background(), JobSpec{Iterative: halveJob("dup", 3)}, SubmitOptions{}); err == nil {
		t.Fatal("duplicate active name admitted")
	}
	h.Cancel()
	if err := h.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel err = %v", err)
	}
	if h.Status() != StatusCanceled {
		t.Fatalf("status %v", h.Status())
	}
	// The name frees once the first run is gone.
	h2, err := c.Submit(context.Background(), JobSpec{Iterative: halveJob("dup", 3)}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitValidation covers the admission errors of the unified entry
// point.
func TestSubmitValidation(t *testing.T) {
	c, err := NewCluster(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(context.Background(), JobSpec{}, SubmitOptions{}); err == nil {
		t.Fatal("empty spec admitted")
	}
	if _, err := c.Submit(context.Background(),
		JobSpec{Iterative: halveJob("x", 1), Batch: &batchJobForTest}, SubmitOptions{}); err == nil {
		t.Fatal("double spec admitted")
	}
	if _, err := c.Submit(context.Background(), JobSpec{Batch: &batchJobForTest},
		SubmitOptions{Resume: true}); err == nil {
		t.Fatal("Resume on a batch job admitted")
	}
	if _, err := c.Submit(context.Background(), JobSpec{Iterative: halveJob("", 1)}, SubmitOptions{}); err == nil {
		t.Fatal("nameless job admitted")
	}
}

var batchJobForTest = mapreduce.Job{Name: "b"}

// TestCoreEngineRunBesideSubmit: a run on the engine CoreEngine returns
// does not make a concurrent Submit fail, because Submit runs its jobs
// on engines of their own.
func TestCoreEngineRunBesideSubmit(t *testing.T) {
	c, err := NewCluster(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	seedHalveState(t, c)
	slow := halveJob("bare", 40)
	started := make(chan struct{})
	var once sync.Once
	userMap := slow.Map
	slow.Map = func(key, state, static any, emit kv.Emit) error {
		once.Do(func() { close(started) })
		return userMap(key, state, static, emit)
	}
	bare := make(chan error, 1)
	go func() {
		_, err := c.CoreEngine().RunCtx(context.Background(), slow)
		bare <- err
	}()
	<-started
	res, err := run(context.Background(), c, JobSpec{Iterative: halveJob("submitted", 3)}, SubmitOptions{})
	if err != nil {
		t.Fatalf("Submit beside a CoreEngine run: %v", err)
	}
	if res.Iterative.Iterations != 3 {
		t.Fatalf("submitted run: %d iterations, want 3", res.Iterative.Iterations)
	}
	if err := <-bare; err != nil {
		t.Fatalf("CoreEngine run: %v", err)
	}
}

// TestSubmitWaitCtxExpiry: Wait's ctx expiring does not finish the job.
func TestSubmitWaitCtxExpiry(t *testing.T) {
	c, err := NewCluster(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	seedHalveState(t, c)
	h, err := c.Submit(context.Background(), JobSpec{Iterative: halveJob("waitctx", 100000)}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := h.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if st := h.Status(); st != StatusRunning {
		t.Fatalf("job finished with the waiter's ctx: %v", st)
	}
	h.Cancel()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ { // Wait is safe from many goroutines
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := h.Wait(context.Background()); !errors.Is(err, context.Canceled) {
				t.Errorf("wait err = %v", err)
			}
		}()
	}
	wg.Wait()
}
