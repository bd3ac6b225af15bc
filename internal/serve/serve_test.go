package serve

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"imapreduce/internal/core"
	"imapreduce/internal/imr"
	"imapreduce/internal/jobs"
	"imapreduce/internal/kv"
	"imapreduce/internal/metrics"
)

// newTestCluster builds the shared 4-worker in-process cluster the
// service tests run over.
func newTestCluster(t *testing.T) *imr.Cluster {
	t.Helper()
	c, err := imr.NewCluster(imr.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.Cluster == nil {
		cfg.Cluster = newTestCluster(t)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// waitStats polls until the service occupancy satisfies ok.
func waitStats(t *testing.T, s *Service, what string, ok func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if ok(s.Stats()) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s (stats %+v)", what, s.Stats())
}

// slowJob is an iterative job that runs effectively forever (one
// reduce sleep per iteration) until canceled; state must be seeded at
// statePath first.
func slowJob(name, statePath string) *core.Job {
	return &core.Job{
		Name: name, StatePath: statePath, MaxIter: 1 << 20,
		Map: func(key, state, static any, emit kv.Emit) error {
			emit(key, state)
			return nil
		},
		Reduce: func(key any, states []any) (any, error) {
			time.Sleep(2 * time.Millisecond)
			return states[0], nil
		},
		Ops: kv.OpsFor[int64, float64](nil),
	}
}

// quickJob finishes after one cheap iteration.
func quickJob(name, statePath string) *core.Job {
	j := slowJob(name, statePath)
	j.MaxIter = 1
	j.Reduce = func(key any, states []any) (any, error) { return states[0], nil }
	return j
}

func seedState(t *testing.T, c *imr.Cluster, path string) {
	t.Helper()
	recs := []kv.Pair{}
	for i := int64(0); i < 8; i++ {
		recs = append(recs, kv.Pair{Key: i, Value: float64(i)})
	}
	if err := c.Write(path, recs, kv.OpsFor[int64, float64](nil)); err != nil {
		t.Fatal(err)
	}
}

func iterSpec(j *core.Job) imr.JobSpec { return imr.JobSpec{Iterative: j} }

// submitBlocker occupies one slot with a cancelable job and returns it
// once it is running.
func submitBlocker(t *testing.T, s *Service, tenant string) *Job {
	t.Helper()
	seedState(t, s.cluster, "/block/state")
	b, err := s.Submit(context.Background(), iterSpec(slowJob("blocker", "/block/state")),
		imr.SubmitOptions{Tenant: tenant})
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, s, "blocker running", func(st Stats) bool { return st.Running >= 1 && st.Queued == 0 })
	return b
}

// TestServeSmoke is the acceptance scenario: 8 concurrent jobs across 2
// tenants, each job's output bit-identical to a solo run of the same
// definition on a fresh cluster.
func TestServeSmoke(t *testing.T) {
	mkParams := func(variant string) map[string]string {
		seed := "7"
		if variant == "prB" {
			seed = "11"
		}
		return map[string]string{
			"name": variant, "nodes": "48", "maxiter": "3", "ckpt": "0", "seed": seed,
		}
	}

	// Solo reference runs, one per input variant, on their own cluster.
	want := map[string]map[int64]float64{}
	for _, variant := range []string{"prA", "prB"} {
		solo := newTestCluster(t)
		if err := jobs.Seed(solo.FS, solo.Spec.IDs()[0], "pagerank", mkParams(variant)); err != nil {
			t.Fatal(err)
		}
		job, err := jobs.Build("pagerank", mkParams(variant))
		if err != nil {
			t.Fatal(err)
		}
		h, err := solo.Submit(context.Background(), iterSpec(job), imr.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Result(); err != nil {
			t.Fatal(err)
		}
		out, err := imr.ReadAllAs[int64, float64](solo, jobs.OutputPath(variant))
		if err != nil {
			t.Fatal(err)
		}
		want[variant] = out
	}

	// The shared service: tenant a runs variant prA, tenant b variant
	// prB, four submissions each, all concurrent.
	c := newTestCluster(t)
	s := newService(t, Config{Cluster: c, Slots: 8})
	for _, variant := range []string{"prA", "prB"} {
		if err := jobs.Seed(c.FS, c.Spec.IDs()[0], "pagerank", mkParams(variant)); err != nil {
			t.Fatal(err)
		}
	}
	type sub struct {
		j       *Job
		variant string
		out     string
	}
	var subs []sub
	for i := 0; i < 8; i++ {
		tenant, variant := "a", "prA"
		if i%2 == 1 {
			tenant, variant = "b", "prB"
		}
		job, err := jobs.Build("pagerank", mkParams(variant))
		if err != nil {
			t.Fatal(err)
		}
		job.Name = fmt.Sprintf("pr-%d", i)
		job.OutputPath = fmt.Sprintf("%s/out-%d", TenantRoot(tenant), i)
		j, err := s.Submit(context.Background(), iterSpec(job), imr.SubmitOptions{Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub{j: j, variant: variant, out: job.OutputPath})
	}
	for _, sb := range subs {
		if err := sb.j.Wait(context.Background()); err != nil {
			t.Fatalf("job %s: %v", sb.j.ID(), err)
		}
		if sb.j.Status() != imr.StatusDone {
			t.Fatalf("job %s status %v", sb.j.ID(), sb.j.Status())
		}
		got, err := imr.ReadAllAs[int64, float64](c, sb.out)
		if err != nil {
			t.Fatal(err)
		}
		ref := want[sb.variant]
		if len(got) != len(ref) {
			t.Fatalf("job %s: %d keys, want %d", sb.j.ID(), len(got), len(ref))
		}
		for k, v := range ref {
			if got[k] != v { // bit-identical, not approximately equal
				t.Fatalf("job %s key %d = %v, want %v", sb.j.ID(), k, got[k], v)
			}
		}
	}

	// Service counters and per-tenant metric folding.
	if n := s.m.Get(metrics.ServeCompleted); n != 8 {
		t.Fatalf("completed = %d, want 8", n)
	}
	if n := s.m.Get(metrics.ServeDispatched); n != 8 {
		t.Fatalf("dispatched = %d, want 8", n)
	}
	for _, tenant := range []string{"a", "b"} {
		if n := s.m.Get("tenant." + tenant + "." + metrics.Iterations); n < 4*3 {
			t.Fatalf("tenant %s folded iterations = %d, want >= 12", tenant, n)
		}
	}
}

// TestAccountingSettledBeforeWait runs jobs one after another and reads
// the service's books the moment each Wait returns: the completion count
// and the tenant's folded counters already include that job, and its slot
// is free again. Terminal accounting happens before the handle completes,
// never after.
func TestAccountingSettledBeforeWait(t *testing.T) {
	c := newTestCluster(t)
	s := newService(t, Config{Cluster: c, Slots: 2})
	seedState(t, c, "/seq/state")
	const jobs = 200
	for i := 1; i <= jobs; i++ {
		j, err := s.Submit(context.Background(), iterSpec(quickJob(fmt.Sprintf("seq-%d", i), "/seq/state")),
			imr.SubmitOptions{Tenant: "t"})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(context.Background()); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if n := s.m.Get(metrics.ServeCompleted); n != int64(i) {
			t.Fatalf("after job %d's Wait: completed = %d", i, n)
		}
		if n := s.m.Get("tenant.t." + metrics.JobsLaunched); n != int64(i) {
			t.Fatalf("after job %d's Wait: folded tenant.t.%s = %d", i, metrics.JobsLaunched, n)
		}
		if n := s.m.Get("tenant.t." + metrics.Iterations); n != int64(i) {
			t.Fatalf("after job %d's Wait: folded tenant.t.%s = %d", i, metrics.Iterations, n)
		}
		if st := s.Stats(); st.Running != 0 {
			t.Fatalf("after job %d's Wait: %d slots still held", i, st.Running)
		}
	}
}

// TestServeFairness drives one slot to saturation from two tenants with
// weights 2:1 and checks the dispatch ordinals realize the weight ratio
// within 15%.
func TestServeFairness(t *testing.T) {
	c := newTestCluster(t)
	s := newService(t, Config{
		Cluster: c, Slots: 1, QueueLimit: 64,
		Tenants: map[string]Quota{"a": {Weight: 2}, "b": {Weight: 1}},
	})
	seedState(t, c, "/fair/state")
	blocker := submitBlocker(t, s, "z")

	var all []*Job
	for i := 0; i < 12; i++ {
		for _, tenant := range []string{"a", "b"} {
			j, err := s.Submit(context.Background(),
				iterSpec(quickJob(fmt.Sprintf("fair-%s-%d", tenant, i), "/fair/state")),
				imr.SubmitOptions{Tenant: tenant})
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, j)
		}
	}
	blocker.Cancel()
	if err := blocker.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("blocker err = %v", err)
	}
	for _, j := range all {
		if err := j.Wait(context.Background()); err != nil {
			t.Fatalf("job %s: %v", j.ID(), err)
		}
	}

	// The blocker took ordinal 1; of the next 18 dispatches, weight 2:1
	// predicts 12 for tenant a. 15% of the window is ~2.7 → allow ±2.
	aFirst := 0
	for _, j := range all {
		seq := j.DispatchSeq()
		if seq < 0 {
			t.Fatalf("job %s never dispatched", j.ID())
		}
		if j.Tenant() == "a" && seq >= 2 && seq <= 19 {
			aFirst++
		}
	}
	if aFirst < 10 || aFirst > 14 {
		t.Fatalf("tenant a got %d of the first 18 slots, want 12±2", aFirst)
	}
}

// TestServePriority checks that within one tenant a higher-priority job
// overtakes earlier lower-priority submissions.
func TestServePriority(t *testing.T) {
	c := newTestCluster(t)
	s := newService(t, Config{Cluster: c, Slots: 1})
	seedState(t, c, "/prio/state")
	blocker := submitBlocker(t, s, "z")

	low, err := s.Submit(context.Background(), iterSpec(quickJob("low", "/prio/state")),
		imr.SubmitOptions{Tenant: "a", Priority: 0})
	if err != nil {
		t.Fatal(err)
	}
	high, err := s.Submit(context.Background(), iterSpec(quickJob("high", "/prio/state")),
		imr.SubmitOptions{Tenant: "a", Priority: 5})
	if err != nil {
		t.Fatal(err)
	}
	blocker.Cancel()
	if err := low.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := high.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if high.DispatchSeq() >= low.DispatchSeq() {
		t.Fatalf("priority 5 dispatched at %d, after priority 0 at %d",
			high.DispatchSeq(), low.DispatchSeq())
	}
}

// TestServeQueueFull exercises the bounded global queue.
func TestServeQueueFull(t *testing.T) {
	c := newTestCluster(t)
	s := newService(t, Config{Cluster: c, Slots: 1, QueueLimit: 2})
	seedState(t, c, "/qf/state")
	blocker := submitBlocker(t, s, "z")

	var queued []*Job
	for i := 0; i < 2; i++ {
		j, err := s.Submit(context.Background(), iterSpec(quickJob(fmt.Sprintf("qf-%d", i), "/qf/state")),
			imr.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}
	_, err := s.Submit(context.Background(), iterSpec(quickJob("qf-over", "/qf/state")), imr.SubmitOptions{})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if n := s.m.Get(metrics.ServeRejectedQueue); n != 1 {
		t.Fatalf("rejected.queuefull = %d, want 1", n)
	}
	blocker.Cancel()
	for _, j := range queued {
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// Capacity freed: the same submission is admitted now.
	j, err := s.Submit(context.Background(), iterSpec(quickJob("qf-over", "/qf/state")), imr.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServeQuotas exercises the three per-tenant quota axes.
func TestServeQuotas(t *testing.T) {
	c := newTestCluster(t)
	s := newService(t, Config{
		Cluster: c, Slots: 2, QueueLimit: 64,
		Tenants: map[string]Quota{
			"q": {MaxQueued: 1},
			"r": {MaxConcurrent: 1},
			"d": {MaxDFSBytes: 1},
		},
	})
	seedState(t, c, "/quota/state")

	// MaxQueued: with both slots blocked, tenant q fits one queued job.
	b1 := submitBlocker(t, s, "z")
	b2, err := s.Submit(context.Background(), iterSpec(slowJob("blocker2", "/block/state")),
		imr.SubmitOptions{Tenant: "z"})
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, s, "both slots busy", func(st Stats) bool { return st.Running == 2 })

	q1, err := s.Submit(context.Background(), iterSpec(quickJob("q-0", "/quota/state")),
		imr.SubmitOptions{Tenant: "q"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Submit(context.Background(), iterSpec(quickJob("q-1", "/quota/state")),
		imr.SubmitOptions{Tenant: "q"})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
	b1.Cancel()
	b2.Cancel()
	if err := q1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	// MaxConcurrent: tenant r holds one slot even with a second free.
	r1, err := s.Submit(context.Background(), iterSpec(slowJob("r-0", "/block/state")),
		imr.SubmitOptions{Tenant: "r"})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Submit(context.Background(), iterSpec(quickJob("r-1", "/quota/state")),
		imr.SubmitOptions{Tenant: "r"})
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, s, "r-0 running", func(st Stats) bool { return st.Running == 1 })
	time.Sleep(20 * time.Millisecond) // give the scheduler a chance to misbehave
	if got := r2.Status(); got != imr.StatusQueued {
		t.Fatalf("second tenant-r job is %v, want queued under MaxConcurrent=1", got)
	}
	r1.Cancel()
	if err := r2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	// MaxDFSBytes: a tenant over its byte budget is rejected at
	// admission.
	if err := c.Write(TenantRoot("d")+"/pad", []kv.Pair{{Key: int64(0), Value: 1.0}},
		kv.OpsFor[int64, float64](nil)); err != nil {
		t.Fatal(err)
	}
	if s.TenantUsage("d") == 0 {
		t.Fatal("tenant d usage not visible")
	}
	_, err = s.Submit(context.Background(), iterSpec(quickJob("d-0", "/quota/state")),
		imr.SubmitOptions{Tenant: "d"})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded for DFS bytes", err)
	}
}

// TestServeCancel covers the three cancel windows: queued, running,
// finished.
func TestServeCancel(t *testing.T) {
	c := newTestCluster(t)
	s := newService(t, Config{Cluster: c, Slots: 1})
	seedState(t, c, "/cancel/state")
	blocker := submitBlocker(t, s, "z")

	// Queued: finishes instantly, never dispatches.
	jq, err := s.Submit(context.Background(), iterSpec(quickJob("cq", "/cancel/state")), imr.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	jq.Cancel()
	if err := jq.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued cancel err = %v", err)
	}
	if jq.Status() != imr.StatusCanceled || jq.DispatchSeq() != -1 {
		t.Fatalf("queued cancel: status %v dispatchSeq %d", jq.Status(), jq.DispatchSeq())
	}

	// Running: the blocker is mid-run; cancel aborts it through the
	// engine.
	blocker.Cancel()
	if err := blocker.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("running cancel err = %v", err)
	}
	if blocker.Status() != imr.StatusCanceled {
		t.Fatalf("running cancel status %v", blocker.Status())
	}

	// Finished: Cancel is a no-op; status and result survive.
	jf, err := s.Submit(context.Background(), iterSpec(quickJob("cf", "/cancel/state")), imr.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := jf.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	jf.Cancel()
	if jf.Status() != imr.StatusDone {
		t.Fatalf("finished cancel flipped status to %v", jf.Status())
	}
	if res, err := jf.Result(); err != nil || res == nil || res.Iterative == nil {
		t.Fatalf("finished cancel disturbed result: %v %v", res, err)
	}
	if n := s.m.Get(metrics.ServeCanceled); n != 2 {
		t.Fatalf("canceled = %d, want 2", n)
	}
}

// TestServeClose drains queued and running jobs and rejects later
// submissions.
func TestServeClose(t *testing.T) {
	c := newTestCluster(t)
	s := newService(t, Config{Cluster: c, Slots: 1})
	seedState(t, c, "/close/state")
	blocker := submitBlocker(t, s, "z")
	jq, err := s.Submit(context.Background(), iterSpec(quickJob("cl", "/close/state")), imr.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if blocker.Status() != imr.StatusCanceled {
		t.Fatalf("running job after Close: %v", blocker.Status())
	}
	if jq.Status() != imr.StatusCanceled {
		t.Fatalf("queued job after Close: %v", jq.Status())
	}
	if err := jq.Wait(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("queued job err = %v, want ErrClosed", err)
	}
	if _, err := s.Submit(context.Background(), iterSpec(quickJob("late", "/close/state")),
		imr.SubmitOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close: %v", err)
	}
}

// TestServeBadSubmit covers admission-time validation.
func TestServeBadSubmit(t *testing.T) {
	s := newService(t, Config{})
	if _, err := s.Submit(context.Background(), imr.JobSpec{}, imr.SubmitOptions{}); err == nil {
		t.Fatal("empty spec admitted")
	}
	if _, err := s.Submit(context.Background(), iterSpec(quickJob("x", "/s")),
		imr.SubmitOptions{Tenant: "a/b"}); err == nil {
		t.Fatal("tenant with slash admitted")
	}
}
