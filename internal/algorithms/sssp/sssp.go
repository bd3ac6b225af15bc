// Package sssp implements Single Source Shortest Path (paper §2.1.1)
// three ways: as an iMapReduce job, as a baseline MapReduce job chain,
// and as sequential references (Bellman-Ford and Dijkstra) used as test
// oracles.
//
// State: each node's current shortest distance from the source (∞
// initially, 0 at the source). Static: each node's outgoing links and
// weights. Map relaxes every outgoing edge; reduce keeps the minimum.
package sssp

import (
	"container/heap"
	"math"

	"imapreduce/internal/core"
	"imapreduce/internal/dfs"
	"imapreduce/internal/graph"
	"imapreduce/internal/kv"
	"imapreduce/internal/mapreduce"
)

// Inf is the initial distance of unreached nodes.
var Inf = math.Inf(1)

// StateOps is the kv.Ops for (node id → distance) records.
func StateOps() kv.Ops { return kv.OpsFor[int64, float64](nil) }

// StatePairs builds the initial state: d(source)=0, d(v)=∞ otherwise.
func StatePairs(n int, source int64) []kv.Pair {
	out := make([]kv.Pair, n)
	for i := range out {
		d := Inf
		if int64(i) == source {
			d = 0
		}
		out[i] = kv.Pair{Key: int64(i), Value: d}
	}
	return out
}

// WriteInputs stores the static graph and initial state in the DFS.
func WriteInputs(fs *dfs.DFS, at string, g *graph.Graph, source int64, staticPath, statePath string) error {
	if err := fs.WriteFile(staticPath, at, graph.StaticPairs(g), graph.AdjOps()); err != nil {
		return err
	}
	return fs.WriteFile(statePath, at, StatePairs(g.N, source), StateOps())
}

// mapFn relaxes u's outgoing edges and re-emits u's own distance so the
// reduce sees every node each iteration.
func mapFn(u int64, d float64, adj graph.Adj, emit func(int64, float64)) error {
	emit(u, d)
	if math.IsInf(d, 1) {
		return nil // nothing to relax yet
	}
	for i, v := range adj.Dst {
		emit(int64(v), d+float64(adj.W[i]))
	}
	return nil
}

func reduceFn(_ int64, ds []float64) (float64, error) {
	min := Inf
	for _, d := range ds {
		if d < min {
			min = d
		}
	}
	return min, nil
}

// DistanceFn is distance over boxed states, for the baseline chain.
func DistanceFn(key, prev, curr any) float64 {
	return distance(0, prev.(float64), curr.(float64))
}

// distance measures per-node change; unreached-to-unreached counts as
// no change, a node becoming reached counts as 1.
func distance(_ int64, p, c float64) float64 {
	pInf, cInf := math.IsInf(p, 1), math.IsInf(c, 1)
	switch {
	case pInf && cInf:
		return 0
	case pInf != cInf:
		return 1
	default:
		return math.Abs(p - c)
	}
}

// IMRConfig parameterizes the iMapReduce job.
type IMRConfig struct {
	Name          string
	StaticPath    string
	StatePath     string
	OutputPath    string
	MaxIter       int
	DistThreshold float64
	NumTasks      int
	SyncMap       bool // the paper's "iMapReduce (sync.)" configuration
	Checkpoint    int
}

// IMRJob builds the iMapReduce SSSP job.
func IMRJob(cfg IMRConfig) *core.Job {
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
		Map:      mapFn,
		Reduce:   reduceFn,
		Distance: distance,
	}.Build()
}

// CombinedPairs builds the baseline's input records: state and static
// travel together (paper §2.1.1's map input value).
func CombinedPairs(g *graph.Graph, source int64) []kv.Pair {
	out := make([]kv.Pair, g.N)
	for i := 0; i < g.N; i++ {
		d := Inf
		if int64(i) == source {
			d = 0
		}
		dst, w := g.Neighbors(int32(i))
		out[i] = kv.Pair{Key: int64(i), Value: mapreduce.IterValue{State: d, Static: graph.Adj{Dst: dst, W: w}}}
	}
	return out
}

// CombinedOps is the kv.Ops for the baseline's combined records.
func CombinedOps() kv.Ops {
	return kv.OpsFor[int64, mapreduce.IterValue](mapreduce.IterValue.Bytes)
}

// MRSpec builds the baseline iterative chain (one MapReduce job per
// iteration; the adjacency lists are shuffled every iteration).
func MRSpec(name, input, workDir string, numReduce, maxIter int, distThreshold float64) mapreduce.IterSpec {
	return mapreduce.IterSpec{
		Name:    name,
		Input:   input,
		WorkDir: workDir,
		Map: func(key, value any, emit kv.Emit) error {
			v := value.(mapreduce.IterValue)
			d := v.State.(float64)
			emit(key, v) // carrier: distance + adjacency together
			if math.IsInf(d, 1) {
				return nil
			}
			adj := v.Static.(graph.Adj)
			for i, dst := range adj.Dst {
				emit(int64(dst), d+float64(adj.W[i]))
			}
			return nil
		},
		Reduce: func(key any, values []any, emit kv.Emit) error {
			min := Inf
			var carrier mapreduce.IterValue
			found := false
			for _, v := range values {
				switch x := v.(type) {
				case float64:
					if x < min {
						min = x
					}
				case mapreduce.IterValue:
					carrier, found = x, true
					if d := x.State.(float64); d < min {
						min = d
					}
				}
			}
			if !found {
				// Message for a node whose carrier landed elsewhere can
				// not happen: every node emits its own carrier.
				return nil
			}
			emit(key, mapreduce.IterValue{State: min, Static: carrier.Static})
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

// BellmanFord is the synchronous sequential reference: exactly the state
// the distributed engines must hold after iters iterations, plus the
// iteration at which the computation converged (0 if it never did
// within iters).
func BellmanFord(g *graph.Graph, source int64, iters int) ([]float64, int) {
	cur := make([]float64, g.N)
	for i := range cur {
		cur[i] = Inf
	}
	cur[source] = 0
	convergedAt := 0
	for k := 1; k <= iters; k++ {
		next := make([]float64, g.N)
		copy(next, cur)
		for u := 0; u < g.N; u++ {
			if math.IsInf(cur[u], 1) {
				continue
			}
			dst, w := g.Neighbors(int32(u))
			for i, v := range dst {
				if d := cur[u] + float64(w[i]); d < next[v] {
					next[v] = d
				}
			}
		}
		changed := false
		for i := range next {
			if next[i] != cur[i] {
				changed = true
				break
			}
		}
		cur = next
		if !changed && convergedAt == 0 {
			convergedAt = k
			break
		}
	}
	return cur, convergedAt
}

// Dijkstra computes exact shortest distances, the ground truth for
// converged runs.
func Dijkstra(g *graph.Graph, source int64) []float64 {
	dist := make([]float64, g.N)
	for i := range dist {
		dist[i] = Inf
	}
	dist[source] = 0
	pq := &distHeap{{int32(source), 0}}
	for pq.Len() > 0 {
		item := heap.Pop(pq).(distItem)
		if item.d > dist[item.v] {
			continue
		}
		dst, w := g.Neighbors(item.v)
		for i, v := range dst {
			if d := item.d + float64(w[i]); d < dist[v] {
				dist[v] = d
				heap.Push(pq, distItem{v, d})
			}
		}
	}
	return dist
}

type distItem struct {
	v int32
	d float64
}

type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
