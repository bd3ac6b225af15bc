// Fault tolerance demo (paper §3.4.1): a PageRank run checkpoints its
// state to the DFS every two iterations, and three runs are compared:
//
//  1. a clean run;
//  2. a run where one worker is killed mid-run with an explicit failure
//     announcement (the paper's crash model);
//  3. a run where one worker silently hangs — no announcement at all —
//     and the master's heartbeat detector has to notice the missed
//     beats, declare the worker dead, and recover on its own.
//
// In both failure runs the master re-places the lost task pairs on the
// surviving workers, rolls every task back to the last durable
// checkpoint, and the computation finishes with exactly the same ranks
// the failure-free run produces.
//
//	go run ./examples/faulttolerance
package main

import (
	"fmt"
	"log"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"imapreduce/internal/algorithms/pagerank"
	"imapreduce/internal/cluster"
	"imapreduce/internal/core"
	"imapreduce/internal/dfs"
	"imapreduce/internal/graph"
	"imapreduce/internal/metrics"
	"imapreduce/internal/transport"
)

type failureMode int

const (
	clean failureMode = iota
	crash             // announced worker kill (FailWorker)
	hang              // silent stall, recovered via heartbeat detection
)

func (m failureMode) String() string {
	switch m {
	case crash:
		return "crash run"
	case hang:
		return "hang run "
	default:
		return "clean run"
	}
}

func main() {
	g := graph.Generate(graph.GenConfig{Nodes: 8000, Degree: graph.PageRankDegree, Seed: 3})
	const iters = 12

	ref := run(g, iters, clean)
	for _, mode := range []failureMode{crash, hang} {
		got := run(g, iters, mode)
		var maxDiff float64
		for k, v := range ref {
			if d := math.Abs(v - got[k]); d > maxDiff {
				maxDiff = d
			}
		}
		fmt.Printf("max rank difference, clean vs %s: %.3g\n\n", mode, maxDiff)
	}
}

func run(g *graph.Graph, iters int, mode failureMode) map[int64]float64 {
	spec := cluster.Uniform(4)
	copts := core.Options{}
	var eng *core.Engine
	if mode == hang {
		// Arm heartbeat detection and freeze worker-2 once iteration 2 is
		// committed: it announces nothing, and the master must notice its
		// missed beats. Note there is no FailWorker call anywhere on this
		// path.
		var stall sync.Once
		copts.HeartbeatInterval = 20 * time.Millisecond
		copts.HeartbeatMisses = 4
		copts.OnIteration = func(it core.IterInfo) {
			if it.Iter == 2 {
				stall.Do(func() { eng.StallWorker("worker-2", 1500*time.Millisecond) })
			}
		}
	}
	m := metrics.NewSet()
	fs := dfs.New(dfs.DefaultConfig(), spec.IDs(), m)
	eng, err := core.NewEngine(fs, transport.NewChanNetwork(), spec, m, copts)
	if err != nil {
		log.Fatal(err)
	}
	if err := pagerank.WriteInputs(fs, "worker-0", g, "/static", "/state"); err != nil {
		log.Fatal(err)
	}
	job := pagerank.IMRJob(pagerank.IMRConfig{
		Name: fmt.Sprintf("pr-ft-%d", mode), Nodes: g.N,
		StaticPath: "/static", StatePath: "/state",
		MaxIter: iters, Checkpoint: 2,
	})
	// Pace the reduce slightly so the failure lands mid-run.
	base := job.Reduce
	var paced atomic.Int64
	job.Reduce = func(key any, states []any) (any, error) {
		if paced.Add(1)%500 == 0 {
			time.Sleep(2 * time.Millisecond)
		}
		return base(key, states)
	}

	if mode == crash {
		go func() {
			for {
				time.Sleep(5 * time.Millisecond)
				if err := eng.FailWorker("worker-2"); err == nil {
					fmt.Println("worker-2 killed mid-run (announced)")
					return
				}
			}
		}()
	}

	res, err := eng.Run(job)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d iterations in %v, recoveries=%d, checkpoints=%d, heartbeat-detected failures=%d\n",
		mode, res.Iterations, res.TotalWall.Round(time.Millisecond),
		res.Recoveries, m.Get(metrics.Checkpoints), m.Get(metrics.FailuresDetected))

	out := map[int64]float64{}
	for _, part := range fs.List(res.OutputPath + "/") {
		recs, err := fs.ReadFile(part, "worker-0")
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range recs {
			out[r.Key.(int64)] = r.Value.(float64)
		}
	}
	return out
}
