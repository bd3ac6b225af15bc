package graph

import "imapreduce/internal/kv"

// Adj is a node's adjacency list as a kv record value: the static data
// of the graph algorithms. W is nil for unweighted graphs.
type Adj struct {
	Dst []int32
	W   []float32
}

// Bytes implements kv.Sized for traffic accounting: 4 bytes per target
// id plus 4 per weight, mirroring the serialized adjacency size.
func (a Adj) Bytes() int {
	n := 4 + 4*len(a.Dst)
	if a.W != nil {
		n += 4 * len(a.W)
	}
	return n
}

func init() { kv.Register(func(f *kv.Fields, a *Adj) { f.Int32s(&a.Dst); f.F32s(&a.W) }) }

// StaticPairs converts g to one kv record per node: key int64(u), value
// the node's adjacency list. This is the static-data file the engines
// load from DFS.
func StaticPairs(g *Graph) []kv.Pair {
	out := make([]kv.Pair, g.N)
	for u := 0; u < g.N; u++ {
		dst, w := g.Neighbors(int32(u))
		out[u] = kv.Pair{Key: int64(u), Value: Adj{Dst: dst, W: w}}
	}
	return out
}

// AdjOps is the kv.Ops for (int64 node id → Adj) records.
func AdjOps() kv.Ops { return kv.OpsFor[int64, Adj](Adj.Bytes) }
