// Package concomp implements connected components by minimum-label
// propagation — a further member of the graph-based iterative class the
// paper's framework targets (§2.2): each node's state is the smallest
// node id it has heard of; maps push labels along edges, reduce keeps
// the minimum, and the computation converges when no label changes.
//
// Labels propagate along the symmetrized adjacency, so components are
// the weakly connected components of a directed graph.
package concomp

import (
	"imapreduce/internal/core"
	"imapreduce/internal/dfs"
	"imapreduce/internal/graph"
	"imapreduce/internal/kv"
	"imapreduce/internal/mapreduce"
)

// StateOps is the kv.Ops for (node id → label) records.
func StateOps() kv.Ops { return kv.OpsFor[int64, int64](nil) }

// SymmetrizedStaticPairs builds each node's undirected neighborhood
// (out-edges plus in-edges, deduplicated) as the static data.
func SymmetrizedStaticPairs(g *graph.Graph) []kv.Pair {
	nbr := make([]map[int32]bool, g.N)
	for i := range nbr {
		nbr[i] = map[int32]bool{}
	}
	for u := 0; u < g.N; u++ {
		dst, _ := g.Neighbors(int32(u))
		for _, v := range dst {
			if int(v) != u {
				nbr[u][v] = true
				nbr[v][int32(u)] = true
			}
		}
	}
	out := make([]kv.Pair, g.N)
	for u := 0; u < g.N; u++ {
		adj := graph.Adj{Dst: make([]int32, 0, len(nbr[u]))}
		for v := range nbr[u] {
			adj.Dst = append(adj.Dst, v)
		}
		out[u] = kv.Pair{Key: int64(u), Value: adj}
	}
	return out
}

// StatePairs is the initial labeling: every node labels itself.
func StatePairs(n int) []kv.Pair {
	out := make([]kv.Pair, n)
	for i := range out {
		out[i] = kv.Pair{Key: int64(i), Value: int64(i)}
	}
	return out
}

// WriteInputs stores the symmetrized adjacency and initial labels.
func WriteInputs(fs *dfs.DFS, at string, g *graph.Graph, staticPath, statePath string) error {
	if err := fs.WriteFile(staticPath, at, SymmetrizedStaticPairs(g), graph.AdjOps()); err != nil {
		return err
	}
	return fs.WriteFile(statePath, at, StatePairs(g.N), StateOps())
}

func mapFn(key, state, static any, emit kv.Emit) error {
	var label any = state.(int64) // boxed once per node, not once per edge
	emit(key, label)
	if static == nil {
		return nil
	}
	for _, v := range static.(graph.Adj).Dst {
		emit(int64(v), label)
	}
	return nil
}

func reduceFn(key any, states []any) (any, error) {
	min := states[0].(int64)
	for _, s := range states[1:] {
		if v := s.(int64); v < min {
			min = v
		}
	}
	return min, nil
}

// DistanceFn counts label changes, so a threshold below 1 stops the
// computation exactly when labels are stable.
func DistanceFn(key, prev, curr any) float64 {
	if prev.(int64) == curr.(int64) {
		return 0
	}
	return 1
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
	Checkpoint    int
}

// IMRJob builds the iMapReduce connected-components job.
func IMRJob(cfg IMRConfig) *core.Job {
	return &core.Job{
		Name:            cfg.Name,
		StatePath:       cfg.StatePath,
		StaticPath:      cfg.StaticPath,
		OutputPath:      cfg.OutputPath,
		Map:             mapFn,
		Reduce:          reduceFn,
		Distance:        DistanceFn,
		MaxIter:         cfg.MaxIter,
		DistThreshold:   cfg.DistThreshold,
		NumTasks:        cfg.NumTasks,
		CheckpointEvery: cfg.Checkpoint,
		Ops:             StateOps(),
	}
}

// CombinedPairs builds the baseline's label+adjacency records.
func CombinedPairs(g *graph.Graph) []kv.Pair {
	static := SymmetrizedStaticPairs(g)
	out := make([]kv.Pair, g.N)
	for i := 0; i < g.N; i++ {
		out[i] = kv.Pair{Key: int64(i), Value: mapreduce.IterValue{State: int64(i), Static: static[i].Value}}
	}
	return out
}

// CombinedOps is the kv.Ops for the baseline's records.
func CombinedOps() kv.Ops {
	return kv.OpsFor[int64, mapreduce.IterValue](mapreduce.IterValue.Bytes)
}

// MRSpec builds the baseline iterative chain.
func MRSpec(name, input, workDir string, numReduce, maxIter int, distThreshold float64) mapreduce.IterSpec {
	return mapreduce.IterSpec{
		Name:    name,
		Input:   input,
		WorkDir: workDir,
		Map: func(key, value any, emit kv.Emit) error {
			v := value.(mapreduce.IterValue)
			emit(key, v)
			var label any = v.State.(int64) // boxed once, as in mapFn
			for _, dst := range v.Static.(graph.Adj).Dst {
				emit(int64(dst), label)
			}
			return nil
		},
		Reduce: func(key any, values []any, emit kv.Emit) error {
			var min int64 = 1<<62 - 1
			var carrier *mapreduce.IterValue
			for _, v := range values {
				switch x := v.(type) {
				case int64:
					if x < min {
						min = x
					}
				case mapreduce.IterValue:
					c := x
					carrier = &c
					if l := x.State.(int64); l < min {
						min = l
					}
				}
			}
			if carrier == nil {
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

// Reference computes weakly connected components with union-find,
// labeling every node with its component's minimum node id.
func Reference(g *graph.Graph) []int64 {
	parent := make([]int32, g.N)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra < rb {
				parent[rb] = ra
			} else {
				parent[ra] = rb
			}
		}
	}
	for u := 0; u < g.N; u++ {
		dst, _ := g.Neighbors(int32(u))
		for _, v := range dst {
			union(int32(u), v)
		}
	}
	// With min-id unions plus path compression, roots are component
	// minima only if we normalize: compute min per root explicitly.
	minOf := map[int32]int64{}
	for i := 0; i < g.N; i++ {
		r := find(int32(i))
		if m, ok := minOf[r]; !ok || int64(i) < m {
			minOf[r] = int64(i)
		}
	}
	out := make([]int64, g.N)
	for i := 0; i < g.N; i++ {
		out[i] = minOf[find(int32(i))]
	}
	return out
}
