package main

import (
	"math/rand"
	"slices"
	"time"

	"imapreduce/internal/graph"
)

// sizing fixes every workload's input and job size. The full sizes are
// the catalogue's; the toy sizes exist only so the test can exercise
// every code path in a couple of seconds.
type sizing struct {
	prScale    int // divisor of the google catalog graph's paper node count
	prIters    int
	prCkpt     int
	prWarmIter int
	ssspNodes  int
	ssspIters  int
	ssspWarm   int
	chainIters int
	serveNodes int
	serveIters int
	serveWarm  int // jobs the service has run before the first timed arrival
	traceRing  int // trace.Recorder capacity for the traced jobs
}

var (
	fullSize = sizing{
		prScale: 10, prIters: 20, prCkpt: 5, prWarmIter: 3,
		ssspNodes: 256, ssspIters: 5000, ssspWarm: 500,
		chainIters: 8,
		serveNodes: 256, serveIters: 4, serveWarm: 50,
		traceRing: 1 << 18,
	}
	toySize = sizing{
		prScale: 400, prIters: 6, prCkpt: 2, prWarmIter: 2,
		ssspNodes: 64, ssspIters: 200, ssspWarm: 20,
		chainIters: 3,
		serveNodes: 64, serveIters: 3, serveWarm: 3,
		traceRing: 1 << 16,
	}
)

// workers is the cluster size: the paper's local cluster.
const workers = 4

// seededGraph builds a workload's input graph. The degree sequence
// always comes from the catalogue's own generator seed, so every
// benchmark seed offers exactly the same number of nodes, edges and
// per-partition records — the amount of work is a property of the
// workload, not of the seed. Seed 0 returns the catalogue graph itself;
// any other seed redraws every node's targets (and weights) from it, so
// the data differs while its shape does not. Only graph.Generate is
// timed as the graph layer's cost; the rewiring is the benchmark's own.
func seededGraph(cfg graph.GenConfig, seed int64) (g *graph.Graph, generate time.Duration) {
	start := time.Now()
	g = graph.Generate(cfg)
	generate = time.Since(start)
	if seed == 0 {
		return g, generate
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ (seed * 0x9E3779B97F4A7C)))
	seen := make(map[int32]bool, 64)
	for u := 0; u < g.N; u++ {
		lo, hi := g.Off[u], g.Off[u+1]
		dst := g.Dst[lo:hi]
		if len(dst) > g.N/4 {
			// Dense row: a rejection loop would crawl; take a prefix of
			// a permutation of the other nodes instead.
			i := 0
			for _, v := range rng.Perm(g.N) {
				if v == u {
					continue
				}
				if i == len(dst) {
					break
				}
				dst[i] = int32(v)
				i++
			}
		} else {
			clear(seen)
			for i := 0; i < len(dst); {
				v := int32(rng.Intn(g.N))
				if int(v) == u || seen[v] {
					continue
				}
				seen[v] = true
				dst[i] = v
				i++
			}
		}
		slices.Sort(dst)
		if g.W != nil {
			for i := lo; i < hi; i++ {
				g.W[i] = float32(cfg.Weight.Sample(rng))
			}
		}
	}
	return g, generate
}

// pagerankGraphCfg is the google-like catalogue graph (91 641 nodes,
// ~591 k edges at scale 10).
func pagerankGraphCfg(sz sizing) graph.GenConfig {
	d, err := graph.ByName("google", sz.prScale)
	if err != nil {
		panic(err) // the catalogue is a compile-time table
	}
	return d.Cfg
}

// ssspGraphCfg is a small weighted graph with the paper's SSSP degree
// and weight parameters, seeded like the catalogue's sssp-s.
func ssspGraphCfg(sz sizing) graph.GenConfig {
	return graph.GenConfig{
		Nodes: sz.ssspNodes, Degree: graph.SSSPDegree,
		Weighted: true, Weight: graph.SSSPWeight, Seed: 103,
	}
}

// serveGraphCfg is the tiny PageRank graph every serve-open job reads,
// seeded like the job registry's default.
func serveGraphCfg(sz sizing) graph.GenConfig {
	return graph.GenConfig{Nodes: sz.serveNodes, Degree: graph.PageRankDegree, Seed: 42}
}

// ssspSource picks the first node with a few out-edges, so that the
// frontier actually spreads whatever the seed drew.
func ssspSource(g *graph.Graph) int64 {
	for u := 0; u < g.N; u++ {
		if g.OutDegree(int32(u)) >= 3 {
			return int64(u)
		}
	}
	return 0
}
