// Multitenant: one long-lived job service, many users.
//
// A serve.Service wraps an imr.Cluster with the three things a shared
// deployment needs: admission control (bounded queue, per-tenant
// quotas), weighted fair-share scheduling over a fixed slot pool, and
// per-job isolation (namespaced DFS paths, private metrics). Here two
// tenants — "research" with weight 2 and "batch" with weight 1 and at
// most one job running — each submit six PageRank jobs into a two-slot
// service and get slots in a 2:1 ratio. A third tenant bounces off its
// queue quota, and a fourth off its DFS byte quota once its first
// job's output fills it.
//
//	go run ./examples/multitenant
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"imapreduce/internal/algorithms/pagerank"
	"imapreduce/internal/graph"
	"imapreduce/internal/imr"
	"imapreduce/internal/metrics"
	"imapreduce/internal/serve"
	"imapreduce/internal/trace"
)

func main() {
	// 1. The shared substrate: one cluster, one DFS.
	c, err := imr.NewCluster(imr.Options{Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	g := graph.Generate(graph.GenConfig{Nodes: 2000, Degree: graph.PageRankDegree, Seed: 1})
	if err := c.Write("/pr/static", graph.StaticPairs(g), graph.AdjOps()); err != nil {
		log.Fatal(err)
	}
	if err := c.Write("/pr/state", pagerank.StatePairs(g.N), pagerank.StateOps()); err != nil {
		log.Fatal(err)
	}

	// 2. The service: two slots, weighted tenants, one running job at a
	// time for "batch", one queued job for "guest", 16 KiB of DFS for
	// "archive". The service's trace records every dispatch and finish.
	tr := trace.NewRecorder(0)
	s, err := serve.New(serve.Config{
		Cluster:    c,
		Slots:      2,
		QueueLimit: 32,
		Tenants: map[string]serve.Quota{
			"research": {Weight: 2},
			"batch":    {Weight: 1, MaxConcurrent: 1},
			"guest":    {MaxQueued: 1},
			"archive":  {MaxDFSBytes: 16 << 10},
		},
		Trace: tr,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	// 3. Each tenant submits six jobs at once. Names may repeat across
	// tenants — the service namespaces every run.
	job := func(i int) *pagerank.IMRConfig {
		return &pagerank.IMRConfig{
			Name: fmt.Sprintf("pagerank-%d", i), Nodes: g.N,
			StaticPath: "/pr/static", StatePath: "/pr/state", MaxIter: 3,
		}
	}
	var handles []*serve.Job
	for i := 0; i < 6; i++ {
		for _, tenant := range []string{"research", "batch"} {
			cfg := job(i)
			cfg.OutputPath = fmt.Sprintf("%s/pr-%d/out", serve.TenantRoot(tenant), i)
			h, err := s.Submit(context.Background(),
				imr.JobSpec{Iterative: pagerank.IMRJob(*cfg)},
				imr.SubmitOptions{Tenant: tenant})
			if err != nil {
				log.Fatal(err)
			}
			handles = append(handles, h)
		}
	}

	// 4. Quotas reject at admission, typed: guest fits one queued job,
	// the second bounces with ErrQuotaExceeded.
	guest, err := s.Submit(context.Background(),
		imr.JobSpec{Iterative: pagerank.IMRJob(*job(100))},
		imr.SubmitOptions{Tenant: "guest"})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := s.Submit(context.Background(),
		imr.JobSpec{Iterative: pagerank.IMRJob(*job(101))},
		imr.SubmitOptions{Tenant: "guest"}); errors.Is(err, serve.ErrQuotaExceeded) {
		fmt.Println("guest over quota:", err)
	}
	guest.Cancel() // queued jobs cancel instantly, without ever running

	// The DFS byte quota is checked at admission: archive's first job
	// is admitted into an empty namespace and writes its output there.
	archive := func(i int) (*serve.Job, error) {
		cfg := job(200 + i)
		cfg.OutputPath = fmt.Sprintf("%s/pr-%d/out", serve.TenantRoot("archive"), i)
		return s.Submit(context.Background(),
			imr.JobSpec{Iterative: pagerank.IMRJob(*cfg)},
			imr.SubmitOptions{Tenant: "archive"})
	}
	first, err := archive(0)
	if err != nil {
		log.Fatal(err)
	}

	// 5. Wait, then look at who got dispatched when.
	for _, h := range append(handles, first) {
		if err := h.Wait(context.Background()); err != nil {
			log.Fatalf("%s: %v", h.ID(), err)
		}
	}
	fmt.Printf("archive holds %d bytes after one job\n", s.TenantUsage("archive"))
	if _, err := archive(1); errors.Is(err, serve.ErrQuotaExceeded) {
		fmt.Println("archive over quota:", err)
	}
	fmt.Println("dispatch order (ordinal: tenant/seq):")
	for _, h := range handles {
		fmt.Printf("  %2d: %-12s %s  (%d iterations)\n",
			h.DispatchSeq(), h.Tenant(), h.Name(),
			h.Metrics().Get(metrics.Iterations))
	}
	fmt.Printf("most jobs running at once: research %d, batch %d (MaxConcurrent 1)\n",
		peakRunning(tr, "research"), peakRunning(tr, "batch"))
	fmt.Printf("service totals: %d dispatched, %d completed, %d canceled\n",
		c.Metrics.Get(metrics.ServeDispatched),
		c.Metrics.Get(metrics.ServeCompleted),
		c.Metrics.Get(metrics.ServeCanceled))
}

// peakRunning replays the service trace: the most jobs of tenant that
// held a slot at the same time. A job's finish is recorded before its
// slot is released, so the replay never overlaps a job with its
// successor.
func peakRunning(tr *trace.Recorder, tenant string) int {
	running, peak := 0, 0
	for _, ev := range tr.Events() {
		if ev.Worker != tenant {
			continue
		}
		switch ev.Kind {
		case trace.KindServeDispatch:
			running++
			peak = max(peak, running)
		case trace.KindServeDone:
			running--
		}
	}
	return peak
}
