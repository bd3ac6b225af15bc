package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"imapreduce/internal/core"
	"imapreduce/internal/imr"
	"imapreduce/internal/jobs"
)

// runFiles lists the files in the namespace of j's run.
func runFiles(c *imr.Cluster, j *Job) []string {
	return c.FS.List("/_imr/" + j.Name() + "/")
}

// TestServeDoneLeavesNoArtefacts runs checkpointing PageRank jobs through
// a service, half writing their output under the tenant's root and half
// to the default /_imr/<name>/output. The moment each Wait returns, the
// run's namespace holds nothing but that default output; every output
// reads back bit-identical to a solo run; TenantUsage counts exactly the
// outputs; and once the caller has consumed them, /_imr/tenants/ is empty.
func TestServeDoneLeavesNoArtefacts(t *testing.T) {
	params := map[string]string{"name": "keep", "nodes": "48", "maxiter": "3", "ckpt": "2", "seed": "7"}
	want := soloPageRank(t, params)
	c := newTestCluster(t)
	s := newService(t, Config{Cluster: c, Slots: 2})
	if err := jobs.Seed(c.FS, c.Spec.IDs()[0], "pagerank", params); err != nil {
		t.Fatal(err)
	}
	const n = 8
	var subs []*Job
	var outs []string
	for i := 0; i < n; i++ {
		job, err := jobs.Build("pagerank", params)
		if err != nil {
			t.Fatal(err)
		}
		job.Name = fmt.Sprintf("keep-%d", i)
		job.OutputPath = ""
		if i%2 == 0 {
			job.OutputPath = fmt.Sprintf("%s/keep-%d", TenantRoot("a"), i)
		}
		j, err := s.Submit(context.Background(), iterSpec(job), imr.SubmitOptions{Tenant: "a"})
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, j)
		outs = append(outs, job.OutputPath)
	}
	var usage int64
	for i, j := range subs {
		if err := j.Wait(context.Background()); err != nil {
			t.Fatalf("job %s: %v", j.ID(), err)
		}
		if outs[i] == "" {
			outs[i] = "/_imr/" + j.Name() + "/output"
		}
		for _, p := range runFiles(c, j) {
			if !strings.HasPrefix(p, outs[i]+"/") {
				t.Fatalf("job %s is done, yet its namespace keeps %s", j.ID(), p)
			}
		}
		checkOutput(t, c, j.ID(), outs[i], want)
		for _, p := range c.FS.List(outs[i] + "/") {
			st, err := c.FS.StatFile(p)
			if err != nil {
				t.Fatal(err)
			}
			usage += st.Bytes
		}
	}
	if got := s.TenantUsage("a"); got != usage || usage == 0 {
		t.Fatalf("TenantUsage = %d, the outputs hold %d bytes", got, usage)
	}
	for _, out := range outs { // the caller consumes its outputs
		for _, p := range c.FS.List(out + "/") {
			c.FS.Delete(p)
		}
	}
	if left := c.FS.List("/_imr/tenants/"); len(left) != 0 {
		t.Fatalf("%d Done jobs left %d files under /_imr/tenants/: %v", n, len(left), left)
	}
	if got := s.TenantUsage("a"); got != 0 {
		t.Fatalf("TenantUsage = %d with every output consumed, want 0", got)
	}
}

// halvingFrom halves every state of statePath for 200 iterations,
// checkpointing every 2; pace slows each reduce call down.
func halvingFrom(name, statePath string, pace time.Duration) *core.Job {
	j := slowJob(name, statePath)
	j.MaxIter = 200
	j.CheckpointEvery = 2
	j.Reduce = func(key any, states []any) (any, error) {
		time.Sleep(pace)
		return states[0].(float64) / 2, nil
	}
	return j
}

// waitManifest polls until j's run has committed a manifest at iteration
// iter or later.
func waitManifest(t *testing.T, c *imr.Cluster, j *Job, iter int) {
	t.Helper()
	prefix := "/_imr/" + j.Name() + "/manifest-"
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, p := range c.FS.List(prefix) {
			var it int
			if _, err := fmt.Sscanf(strings.TrimPrefix(p, prefix), "%06d", &it); err == nil && it >= iter {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s committed no manifest at iteration %d or later", j.ID(), iter)
}

// TestServeFailedRunsKeptBounded: failed and canceled runs keep their
// namespaces for Resume, at most Slots a tenant, and the oldest goes first;
// another tenant's kept run is untouched. The last canceled run resumes
// from its kept manifest through cluster.Submit under its own name, and
// its output equals a clean run's bit for bit.
func TestServeFailedRunsKeptBounded(t *testing.T) {
	const slots = 2
	c := newTestCluster(t)
	s := newService(t, Config{Cluster: c, Slots: slots})
	seedState(t, c, "/kept/state")
	ctx := context.Background()

	submit := func(tenant string, job *core.Job) *Job {
		t.Helper()
		j, err := s.Submit(ctx, iterSpec(job), imr.SubmitOptions{Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	fail := func(tenant, name string) *Job {
		t.Helper()
		job := quickJob(name, "/kept/state")
		job.Reduce = func(any, []any) (any, error) { return nil, errors.New("injected reduce failure") }
		j := submit(tenant, job)
		if err := j.Wait(ctx); err == nil || j.Status() != imr.StatusFailed {
			t.Fatalf("job %s: status %v, err %v; want a failure", j.ID(), j.Status(), err)
		}
		return j
	}
	cancelAfter := func(name string, iter int) *Job {
		t.Helper()
		j := submit("f", halvingFrom(name, "/kept/state", time.Millisecond))
		waitManifest(t, c, j, iter)
		j.Cancel()
		if err := j.Wait(ctx); !errors.Is(err, context.Canceled) || j.Status() != imr.StatusCanceled {
			t.Fatalf("job %s: status %v, err %v; want canceled", j.ID(), j.Status(), err)
		}
		return j
	}

	other := fail("g", "other")
	if len(runFiles(c, other)) == 0 {
		t.Fatal("a failed run kept nothing")
	}
	var kept []*Job // tenant f's failed and canceled runs, oldest first
	for i := 0; i < 2*slots+1; i++ {
		var j *Job
		if i%2 == 0 {
			j = fail("f", fmt.Sprint("fail-", i))
		} else {
			j = cancelAfter(fmt.Sprint("cancel-", i), 0)
		}
		kept = append(kept, j)
		for k, r := range kept {
			if has, want := len(runFiles(c, r)) > 0, k >= len(kept)-slots; has != want {
				t.Fatalf("after %d runs: run %d (%s) keeps its namespace: %v, want %v (%v)", len(kept), k, r.ID(), has, want, runFiles(c, r))
			}
		}
		if len(runFiles(c, other)) == 0 {
			t.Fatalf("tenant f's runs evicted tenant g's kept run")
		}
	}

	r := cancelAfter("resume", 4)
	if len(runFiles(c, r)) == 0 || len(runFiles(c, kept[len(kept)-slots])) != 0 {
		t.Fatal("the newest canceled run did not displace the oldest kept one")
	}
	h, err := c.Submit(ctx, iterSpec(halvingFrom(r.Name(), "/kept/state", 0)), imr.SubmitOptions{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Result()
	if err != nil {
		t.Fatalf("resuming %s from its kept manifest: %v", r.ID(), err)
	}
	if it := res.Iterative; it.Iterations != 200 || len(it.PerIter) > 200-4 {
		t.Fatalf("resumed run: %d iterations, %d of them after the resume; want 200, at most 196", it.Iterations, len(it.PerIter))
	}
	h, err = c.Submit(ctx, iterSpec(halvingFrom("clean", "/kept/state", 0)), imr.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Result(); err != nil {
		t.Fatal(err)
	}
	clean, err := imr.ReadAllAs[int64, float64](c, "/_imr/clean/output")
	if err != nil {
		t.Fatal(err)
	}
	checkOutput(t, c, "resumed "+r.ID(), res.Iterative.OutputPath, clean)
}

// TestServeJobAllocBytes gates what one small job costs the heap: a
// 256-node, 4-iteration registry PageRank through an idle service, with
// its output consumed, averaged over 200 jobs of TotalAlloc.
func TestServeJobAllocBytes(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	params := map[string]string{"name": "alloc", "nodes": "256", "maxiter": "4", "ckpt": "0"}
	c := newTestCluster(t)
	s := newService(t, Config{Cluster: c, Slots: 4})
	if err := jobs.Seed(c.FS, c.Spec.IDs()[0], "pagerank", params); err != nil {
		t.Fatal(err)
	}
	run := func(i int) {
		job, err := jobs.Build("pagerank", params)
		if err != nil {
			t.Fatal(err)
		}
		job.Name = fmt.Sprint("alloc-", i)
		job.OutputPath = fmt.Sprintf("%s/alloc-%d", TenantRoot("a"), i)
		j, err := s.Submit(context.Background(), iterSpec(job), imr.SubmitOptions{Tenant: "a"})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(context.Background()); err != nil {
			t.Fatalf("job %s: %v", j.ID(), err)
		}
		for _, p := range c.FS.List(job.OutputPath + "/") {
			c.FS.Delete(p)
		}
	}
	const warm, jobsN = 20, 200
	for i := 0; i < warm; i++ {
		run(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := warm; i < warm+jobsN; i++ {
		run(i)
	}
	runtime.ReadMemStats(&after)
	perJob := float64(after.TotalAlloc-before.TotalAlloc) / jobsN / (1 << 20)
	t.Logf("%.3f MB allocated a job", perJob)
	const limit = 0.6
	if perJob > limit {
		t.Errorf("a job allocates %.3f MB, want at most %.1f MB", perJob, limit)
	}
}
