// Package pagerank implements PageRank (paper §2.1.2) as an iMapReduce
// job, as a baseline MapReduce job chain, and as a sequential power-
// iteration reference.
//
// State: each node's ranking score (1/|V| initially). Static: each
// node's outbound neighbor set. Map distributes d·R(u)/|N⁺(u)| to the
// out-neighbors and retains (1−d)/|V|; reduce sums the arriving partial
// scores. Dangling nodes leak rank, exactly as in the paper's
// formulation.
package pagerank

import (
	"math"

	"imapreduce/internal/core"
	"imapreduce/internal/dfs"
	"imapreduce/internal/graph"
	"imapreduce/internal/kv"
	"imapreduce/internal/mapreduce"
)

// Damping is the paper's damping factor d.
const Damping = 0.85

// StateOps is the kv.Ops for (node id → rank) records.
func StateOps() kv.Ops { return kv.OpsFor[int64, float64](nil) }

// StatePairs builds the uniform initial rank vector.
func StatePairs(n int) []kv.Pair {
	out := make([]kv.Pair, n)
	r := 1.0 / float64(n)
	for i := range out {
		out[i] = kv.Pair{Key: int64(i), Value: r}
	}
	return out
}

// WriteInputs stores the static graph and the initial ranks in the DFS.
func WriteInputs(fs *dfs.DFS, at string, g *graph.Graph, staticPath, statePath string) error {
	if err := fs.WriteFile(staticPath, at, graph.StaticPairs(g), graph.AdjOps()); err != nil {
		return err
	}
	return fs.WriteFile(statePath, at, StatePairs(g.N), StateOps())
}

// mapFnFor is the map of an n-node graph: u retains (1−d)/n and sends
// each out-neighbor an equal share of d·R(u).
func mapFnFor(n int) func(int64, float64, graph.Adj, func(int64, float64)) error {
	retained := (1 - Damping) / float64(n)
	return func(u int64, rank float64, adj graph.Adj, emit func(int64, float64)) error {
		emit(u, retained)
		if len(adj.Dst) == 0 {
			return nil
		}
		share := Damping * rank / float64(len(adj.Dst))
		for _, v := range adj.Dst {
			emit(int64(v), share)
		}
		return nil
	}
}

func reduceFn(_ int64, shares []float64) (float64, error) {
	var sum float64
	for _, s := range shares {
		sum += s
	}
	return sum, nil
}

// DistanceFn is distance over boxed states, for the baseline chain.
func DistanceFn(key, prev, curr any) float64 {
	return distance(0, prev.(float64), curr.(float64))
}

// distance is the Manhattan distance the paper's example uses.
func distance(_ int64, prev, curr float64) float64 {
	return math.Abs(prev - curr)
}

// IMRConfig parameterizes the iMapReduce job.
type IMRConfig struct {
	Name          string
	Nodes         int
	StaticPath    string
	StatePath     string
	OutputPath    string
	MaxIter       int
	DistThreshold float64
	NumTasks      int
	SyncMap       bool
	Checkpoint    int
}

// IMRSpec is the typed definition of the iMapReduce PageRank job (the
// paper's Fig. 3 example), for callers that adapt its functions before
// building it.
func IMRSpec(cfg IMRConfig) core.ScalarJob[float64, graph.Adj] {
	return core.ScalarJob[float64, graph.Adj]{
		Job: core.Job{
			Name:            cfg.Name,
			StatePath:       cfg.StatePath,
			StaticPath:      cfg.StaticPath,
			OutputPath:      cfg.OutputPath,
			MaxIter:         cfg.MaxIter,
			DistThreshold:   cfg.DistThreshold,
			NumTasks:        cfg.NumTasks,
			SyncMap:         cfg.SyncMap,
			CheckpointEvery: cfg.Checkpoint,
		},
		Map:      mapFnFor(cfg.Nodes),
		Reduce:   reduceFn,
		Distance: distance,
	}
}

// IMRJob builds the iMapReduce PageRank job.
func IMRJob(cfg IMRConfig) *core.Job { return IMRSpec(cfg).Build() }

// CombinedPairs builds the baseline's combined rank+adjacency records.
func CombinedPairs(g *graph.Graph) []kv.Pair {
	out := make([]kv.Pair, g.N)
	r := 1.0 / float64(g.N)
	for i := 0; i < g.N; i++ {
		dst, _ := g.Neighbors(int32(i))
		out[i] = kv.Pair{Key: int64(i), Value: mapreduce.IterValue{State: r, Static: graph.Adj{Dst: dst}}}
	}
	return out
}

// CombinedOps is the kv.Ops for the baseline's combined records.
func CombinedOps() kv.Ops {
	return kv.OpsFor[int64, mapreduce.IterValue](mapreduce.IterValue.Bytes)
}

// MRSpec builds the baseline iterative chain for a graph of the given
// number of nodes; every neighbour id must be below it.
func MRSpec(name, input, workDir string, nodes, numReduce, maxIter int, distThreshold float64) mapreduce.IterSpec {
	var retained any = (1 - Damping) / float64(nodes) // boxed once, as in mapFnFor
	// Every node id boxed once for the whole chain: a share is emitted
	// under keys[dst], not a fresh int64(dst) box per edge.
	keys := make([]any, nodes)
	for i := range keys {
		keys[i] = int64(i)
	}
	return mapreduce.IterSpec{
		Name:    name,
		Input:   input,
		WorkDir: workDir,
		Map: func(key, value any, emit kv.Emit) error {
			v := value.(mapreduce.IterValue)
			// Retained score and the neighbor set shuffle to the node
			// itself (paper §2.1.2); the set travels in the box it came in.
			emit(key, mapreduce.IterValue{State: retained, Static: v.Static})
			dst := v.Static.(graph.Adj).Dst
			if len(dst) == 0 {
				return nil
			}
			var share any = Damping * v.State.(float64) / float64(len(dst))
			for _, d := range dst {
				emit(keys[d], share)
			}
			return nil
		},
		Reduce: func(key any, values []any, emit kv.Emit) error {
			var sum float64
			var carrier mapreduce.IterValue
			found := false
			for _, v := range values {
				switch x := v.(type) {
				case float64:
					sum += x
				case mapreduce.IterValue:
					carrier, found = x, true
					sum += x.State.(float64)
				}
			}
			if !found {
				return nil
			}
			emit(key, mapreduce.IterValue{State: sum, Static: carrier.Static})
			return nil
		},
		NumReduce:     numReduce,
		Ops:           CombinedOps(),
		MaxIter:       maxIter,
		DistThreshold: distThreshold,
		Distance: func(key, prev, curr any) float64 {
			return DistanceFn(key, prev.(mapreduce.IterValue).State, curr.(mapreduce.IterValue).State)
		},
	}
}

// Reference runs iters synchronous power iterations — the exact state
// the engines must produce. A node's rank is summed from zero in node
// order, its own retained share at its own place: the order in which
// the baseline's map emits them over records in key order, so a
// one-reducer MRSpec chain reproduces it bit for bit.
func Reference(g *graph.Graph, iters int) []float64 {
	n := g.N
	cur := make([]float64, n)
	for i := range cur {
		cur[i] = 1.0 / float64(n)
	}
	retained := (1 - Damping) / float64(n)
	for k := 0; k < iters; k++ {
		next := make([]float64, n)
		for u := 0; u < n; u++ {
			next[u] += retained
			dst, _ := g.Neighbors(int32(u))
			if len(dst) == 0 {
				continue
			}
			share := Damping * cur[u] / float64(len(dst))
			for _, v := range dst {
				next[v] += share
			}
		}
		cur = next
	}
	return cur
}
