// Package imapreduce_test holds the benchmark harness: one benchmark per
// paper table and figure (delegating to internal/experiments) plus
// ablation benchmarks for the design choices DESIGN.md calls out.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package imapreduce_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"imapreduce/internal/algorithms/pagerank"
	"imapreduce/internal/algorithms/sssp"
	"imapreduce/internal/cluster"
	"imapreduce/internal/core"
	"imapreduce/internal/dfs"
	"imapreduce/internal/experiments"
	"imapreduce/internal/graph"
	"imapreduce/internal/mapreduce"
	"imapreduce/internal/metrics"
	"imapreduce/internal/transport"
)

// benchFigure runs one experiment per benchmark iteration at the Quick
// configuration.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	benchFigureOn(b, id, "")
}

// benchFigureOn runs one experiment per benchmark iteration at the Quick
// configuration over the named transport backend.
func benchFigureOn(b *testing.B, id, transport string) {
	b.Helper()
	run, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.Quick()
	cfg.Transport = transport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Datasets(b *testing.B)        { benchFigure(b, "table1") }
func BenchmarkTable2Datasets(b *testing.B)        { benchFigure(b, "table2") }
func BenchmarkFig04SSSPDBLP(b *testing.B)         { benchFigure(b, "fig04") }
func BenchmarkFig05SSSPFacebook(b *testing.B)     { benchFigure(b, "fig05") }
func BenchmarkFig06PageRankGoogle(b *testing.B)   { benchFigure(b, "fig06") }
func BenchmarkFig07PageRankBerkStan(b *testing.B) { benchFigure(b, "fig07") }
func BenchmarkFig08SSSPSynthetic(b *testing.B)    { benchFigure(b, "fig08") }
func BenchmarkFig09PageRankSynthetic(b *testing.B) {
	benchFigure(b, "fig09")
}
func BenchmarkFig10Factors(b *testing.B)            { benchFigure(b, "fig10") }
func BenchmarkFig11CommCost(b *testing.B)           { benchFigure(b, "fig11") }
func BenchmarkFig12SSSPScaling(b *testing.B)        { benchFigure(b, "fig12") }
func BenchmarkFig13PageRankScaling(b *testing.B)    { benchFigure(b, "fig13") }
func BenchmarkFig14ParallelEfficiency(b *testing.B) { benchFigure(b, "fig14") }
func BenchmarkFig16KMeans(b *testing.B)             { benchFigure(b, "fig16") }
func BenchmarkFig18MatrixPower(b *testing.B)        { benchFigure(b, "fig18") }
func BenchmarkFig20KMeansConvergence(b *testing.B)  { benchFigure(b, "fig20") }

// TCP-backend variants of the local-cluster figures: the same workloads
// with every state and shuffle chunk crossing real loopback sockets, so
// the wire codec and framing costs are on the measured path.
func BenchmarkFig06PageRankGoogleTCP(b *testing.B) { benchFigureOn(b, "fig06", "tcp") }
func BenchmarkFig04SSSPDBLPTCP(b *testing.B)       { benchFigureOn(b, "fig04", "tcp") }

// --- Ablation benchmarks -------------------------------------------------

// benchEnv builds a fresh cluster for an ablation run.
func benchEnv(b *testing.B, spec cluster.Spec, net transport.Network) (*core.Engine, *dfs.DFS) {
	b.Helper()
	m := metrics.NewSet()
	fs := dfs.New(dfs.Config{BlockSize: 1 << 18, Replication: 2}, spec.IDs(), m)
	eng, err := core.NewEngine(fs, net, spec, m, core.Options{Timeout: 2 * time.Minute})
	if err != nil {
		b.Fatal(err)
	}
	return eng, fs
}

func benchGraph() *graph.Graph {
	return graph.Generate(graph.GenConfig{
		Nodes: 4000, Degree: graph.PageRankDegree, Seed: 77,
	})
}

// BenchmarkAblationBufferThreshold isolates §3.3's send-buffer design:
// eager per-record triggering (threshold 1) vs buffered flushing, the
// default (core.DefaultBufferThreshold, 2048) among the buffered sizes.
func BenchmarkAblationBufferThreshold(b *testing.B) {
	g := benchGraph()
	for _, thresh := range []int{1, 16, 512, 2048, 8192} {
		b.Run(fmt.Sprintf("buf=%d", thresh), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng, fs := benchEnv(b, cluster.Uniform(3), transport.NewChanNetwork())
				if err := pagerank.WriteInputs(fs, "worker-0", g, "/s", "/st"); err != nil {
					b.Fatal(err)
				}
				job := pagerank.IMRJob(pagerank.IMRConfig{
					Name: "ab-buf", Nodes: g.N, StaticPath: "/s", StatePath: "/st", MaxIter: 5,
				})
				job.BufferThreshold = thresh
				b.StartTimer()
				if _, err := eng.Run(job); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCheckpointInterval isolates §3.4.1's checkpoint
// frequency: every iteration vs every five vs never.
func BenchmarkAblationCheckpointInterval(b *testing.B) {
	g := graph.Generate(graph.GenConfig{
		Nodes: 3000, Degree: graph.SSSPDegree, Weighted: true, Weight: graph.SSSPWeight, Seed: 78,
	})
	for _, every := range []int{0, 1, 5} {
		b.Run(fmt.Sprintf("every=%d", every), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng, fs := benchEnv(b, cluster.Uniform(3), transport.NewChanNetwork())
				if err := sssp.WriteInputs(fs, "worker-0", g, 0, "/s", "/st"); err != nil {
					b.Fatal(err)
				}
				job := sssp.IMRJob(sssp.IMRConfig{
					Name: "ab-ckpt", StaticPath: "/s", StatePath: "/st",
					MaxIter: 8, Checkpoint: every,
				})
				b.StartTimer()
				if _, err := eng.Run(job); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLoadBalancing isolates §3.4.2 on a cluster with one
// 10x-slow worker.
func BenchmarkAblationLoadBalancing(b *testing.B) {
	g := benchGraph()
	for _, lb := range []bool{false, true} {
		b.Run(fmt.Sprintf("lb=%v", lb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				spec := cluster.Heterogeneous([]float64{1, 0.1, 1, 1})
				m := metrics.NewSet()
				fs := dfs.New(dfs.Config{BlockSize: 1 << 18, Replication: 2}, spec.IDs(), m)
				eng, err := core.NewEngine(fs, transport.NewChanNetwork(), spec, m,
					core.Options{Timeout: 2 * time.Minute, LoadBalance: lb})
				if err != nil {
					b.Fatal(err)
				}
				if err := pagerank.WriteInputs(fs, "worker-0", g, "/s", "/st"); err != nil {
					b.Fatal(err)
				}
				// Enough iterations that one migration (plus its
				// rollback) amortizes against the 10x-slow worker.
				job := pagerank.IMRJob(pagerank.IMRConfig{
					Name: "ab-lb", Nodes: g.N, StaticPath: "/s", StatePath: "/st",
					MaxIter: 25, Checkpoint: 2,
				})
				b.StartTimer()
				if _, err := eng.Run(job); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLocality isolates the baseline's locality-aware split
// scheduling.
func BenchmarkAblationLocality(b *testing.B) {
	g := benchGraph()
	for _, local := range []bool{false, true} {
		b.Run(fmt.Sprintf("locality=%v", local), func(b *testing.B) {
			var remote int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				spec := cluster.Uniform(4)
				m := metrics.NewSet()
				fs := dfs.New(dfs.Config{BlockSize: 1 << 16, Replication: 1}, spec.IDs(), m)
				eng, err := mapreduce.NewEngine(fs, spec, m, mapreduce.Options{LocalityAware: local})
				if err != nil {
					b.Fatal(err)
				}
				if err := fs.WriteFile("/in", "worker-0", pagerank.CombinedPairs(g), pagerank.CombinedOps()); err != nil {
					b.Fatal(err)
				}
				spec2 := pagerank.MRSpec("ab-loc", "/in", "/work", g.N, 4, 3, 0)
				b.StartTimer()
				if _, err := mapreduce.RunIterativeCtx(context.Background(), eng, spec2); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				remote += m.Get(metrics.DFSReadRemote)
				b.StartTimer()
			}
			b.ReportMetric(float64(remote)/float64(b.N)/(1<<20), "remoteMB/op")
		})
	}
}

// BenchmarkAblationDiskDFS compares the in-memory DFS against the
// file-backed mode the paper's prototype uses (blocks spilled to disk in
// the kv codec).
func BenchmarkAblationDiskDFS(b *testing.B) {
	g := graph.Generate(graph.GenConfig{Nodes: 2000, Degree: graph.PageRankDegree, Seed: 81})
	for _, disk := range []bool{false, true} {
		b.Run(fmt.Sprintf("disk=%v", disk), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := dfs.Config{BlockSize: 1 << 16, Replication: 2}
				if disk {
					cfg.SpillDir = b.TempDir()
				}
				spec := cluster.Uniform(3)
				m := metrics.NewSet()
				fs := dfs.New(cfg, spec.IDs(), m)
				eng, err := core.NewEngine(fs, transport.NewChanNetwork(), spec, m, core.Options{Timeout: 2 * time.Minute})
				if err != nil {
					b.Fatal(err)
				}
				if err := pagerank.WriteInputs(fs, "worker-0", g, "/s", "/st"); err != nil {
					b.Fatal(err)
				}
				job := pagerank.IMRJob(pagerank.IMRConfig{
					Name: "ab-disk", Nodes: g.N, StaticPath: "/s", StatePath: "/st",
					MaxIter: 5, Checkpoint: 2,
				})
				b.StartTimer()
				if _, err := eng.Run(job); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTransport compares in-process channels against real
// TCP sockets for the same job.
func BenchmarkAblationTransport(b *testing.B) {
	g := graph.Generate(graph.GenConfig{Nodes: 1500, Degree: graph.PageRankDegree, Seed: 79})
	nets := map[string]func() transport.Network{
		"chan": func() transport.Network { return transport.NewChanNetwork() },
		"tcp":  func() transport.Network { return transport.NewTCPNetwork() },
	}
	for name, mk := range nets {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng, fs := benchEnv(b, cluster.Uniform(2), mk())
				if err := pagerank.WriteInputs(fs, "worker-0", g, "/s", "/st"); err != nil {
					b.Fatal(err)
				}
				job := pagerank.IMRJob(pagerank.IMRConfig{
					Name: "ab-net", Nodes: g.N, StaticPath: "/s", StatePath: "/st", MaxIter: 4,
				})
				b.StartTimer()
				if _, err := eng.Run(job); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineThroughputPageRank measures raw records/second through
// the iMapReduce engine.
func BenchmarkEngineThroughputPageRank(b *testing.B) {
	g := graph.Generate(graph.GenConfig{Nodes: 20000, Degree: graph.PageRankDegree, Seed: 80})
	const iters = 3
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, fs := benchEnv(b, cluster.Uniform(4), transport.NewChanNetwork())
		if err := pagerank.WriteInputs(fs, "worker-0", g, "/s", "/st"); err != nil {
			b.Fatal(err)
		}
		job := pagerank.IMRJob(pagerank.IMRConfig{
			Name: "throughput", Nodes: g.N, StaticPath: "/s", StatePath: "/st", MaxIter: iters,
		})
		b.StartTimer()
		if _, err := eng.Run(job); err != nil {
			b.Fatal(err)
		}
	}
	recs := float64(g.N+int(g.Edges())) * iters
	b.ReportMetric(recs*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}
