package core_test

import (
	"testing"

	"imapreduce/internal/cluster"
	"imapreduce/internal/core"
	"imapreduce/internal/jobs"
	"imapreduce/internal/metrics"
	"imapreduce/internal/transport"
)

// chaosMatchesCalm runs the registry job key on 600 nodes and 3 tasks
// with the given BufferThreshold, once over a calm network and once over
// one that duplicates, reorders and drops messages, holds the chaotic
// run's output to the calm run's bit for bit, and returns its metrics.
func chaosMatchesCalm(t *testing.T, key string, threshold int) *metrics.Set {
	t.Helper()
	build := func(key string, p map[string]string) (*core.Job, error) {
		job, err := jobs.Build(key, p)
		if err == nil {
			job.BufferThreshold = threshold
		}
		return job, err
	}
	options := func(func(string)) core.Options { return core.Options{SendRetries: 8} }
	params := map[string]string{"name": key + "-chaos", "nodes": "600", "maxiter": "8", "tasks": "3"}
	calmRun := scenario{name: "calm", spec: cluster.Uniform(remoteWorkers), build: build, options: options}
	want, _ := calmRun.runInProcess(t, transport.NewChanNetwork(), key, params)

	fnet := transport.NewFaultyNetwork(transport.NewChanNetwork(),
		transport.FaultyOptions{Seed: 23, DropRate: 0.02, DupRate: 0.05, ReorderRate: 0.05})
	chaos := calmRun
	chaos.m = metrics.NewSet()
	got, _ := chaos.runInProcess(t, fnet, key, params)
	differ := 0
	for k, v := range want {
		if w, ok := got[k]; !ok || w != v {
			differ++
		}
	}
	if differ > 0 || len(got) != len(want) {
		t.Fatalf("output under chaos differs from the calm run in %d of %d keys (%d keys out)", differ, len(want), len(got))
	}
	if fnet.Drops() == 0 || fnet.Dups() == 0 || fnet.Reorders() == 0 {
		t.Fatalf("fault injection idle: drops=%d dups=%d reorders=%d", fnet.Drops(), fnet.Dups(), fnet.Reorders())
	}
	return chaos.m
}

// TestEndCountSurvivesReorder: at a BufferThreshold of 24 records every
// sender sends every receiver many chunks an iteration, and the network's
// adjacent swap delivers some End chunks ahead of their sender's last data
// chunk. The End announces how many chunks its sender sent, so the
// receiver waits for the overtaken one instead of closing the iteration
// without it.
func TestEndCountSurvivesReorder(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	for _, key := range []string{"pagerank", "sssp"} {
		t.Run(key, func(t *testing.T) { chaosMatchesCalm(t, key, 24) })
	}
}

// TestRecyclingUnderChaosMatchesCalm runs the registry's SSSP and
// PageRank over a network that duplicates, reorders and drops messages
// while chunk buffers come home from their receivers, and holds the
// output to the calm run's bit for bit: a duplicate arrives after its
// buffer came home and was refilled, and must not send it home again.
// At 128 records a buffer, every sender sends every receiver several
// chunks an iteration, so buffers make several trips per iteration.
func TestRecyclingUnderChaosMatchesCalm(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	for _, key := range []string{"sssp", "pagerank"} {
		t.Run(key, func(t *testing.T) {
			m := chaosMatchesCalm(t, key, 128)
			if m.Get(metrics.ChunkBufsReused) == 0 {
				t.Fatal("no chunk buffer came home: recycling never ran")
			}
		})
	}
}
