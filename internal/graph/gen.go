package graph

import (
	"fmt"
	"math"
	"math/rand"
)

// LogNormalParams are the shape (sigma) and scale (mu) of a log-normal
// distribution, the model the paper fits to its real graphs' degree and
// weight distributions (citing Clauset et al.).
type LogNormalParams struct {
	Sigma float64
	Mu    float64
}

// Sample draws one value.
func (p LogNormalParams) Sample(rng *rand.Rand) float64 {
	return math.Exp(rng.NormFloat64()*p.Sigma + p.Mu)
}

// Mean returns the distribution mean exp(mu + sigma^2/2).
func (p LogNormalParams) Mean() float64 {
	return math.Exp(p.Mu + p.Sigma*p.Sigma/2)
}

// WithMean returns a copy with mu adjusted so the mean equals m,
// keeping sigma. Used to fit a real graph's average degree while keeping
// the paper's shape parameter.
func (p LogNormalParams) WithMean(m float64) LogNormalParams {
	return LogNormalParams{Sigma: p.Sigma, Mu: math.Log(m) - p.Sigma*p.Sigma/2}
}

// The paper's fitted parameters (§4.1.2).
var (
	// SSSPDegree: node out-degree of the SSSP graphs (sigma=1.0, mu=1.5).
	SSSPDegree = LogNormalParams{Sigma: 1.0, Mu: 1.5}
	// SSSPWeight: link weights of the SSSP graphs (sigma=1.2, mu=0.4).
	SSSPWeight = LogNormalParams{Sigma: 1.2, Mu: 0.4}
	// PageRankDegree: out-degree of the PageRank graphs (sigma=2, mu=-0.5).
	PageRankDegree = LogNormalParams{Sigma: 2.0, Mu: -0.5}
)

// GenConfig drives the synthetic generator.
type GenConfig struct {
	Nodes    int
	Degree   LogNormalParams
	Weighted bool
	Weight   LogNormalParams // used when Weighted
	Seed     int64
	// MaxDegree caps a single node's out-degree (heavy log-normal tails
	// can otherwise produce a node linking to most of the graph).
	// 0 means Nodes-1.
	MaxDegree int
}

// Generate builds a synthetic directed graph: each node's out-degree is
// a log-normal draw, targets are uniform over other nodes (no self
// loops; duplicate targets are collapsed), weights are log-normal.
func Generate(cfg GenConfig) *Graph {
	if cfg.Nodes <= 0 {
		panic("graph: Generate with no nodes")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	maxDeg := cfg.MaxDegree
	if maxDeg <= 0 || maxDeg > cfg.Nodes-1 {
		maxDeg = cfg.Nodes - 1
	}
	b := NewBuilder(cfg.Nodes, cfg.Weighted)
	// seen[v] == u+1 marks v as a target of u already: a stamp per node,
	// so nothing is cleared between nodes.
	seen := make([]int32, cfg.Nodes)
	for u := 0; u < cfg.Nodes; u++ {
		deg := int(math.Round(cfg.Degree.Sample(rng)))
		if deg > maxDeg {
			deg = maxDeg
		}
		stamp := int32(u + 1)
		for d := 0; d < deg; d++ {
			v := int32(rng.Intn(cfg.Nodes))
			if int(v) == u || seen[v] == stamp {
				continue // collapse duplicates rather than retry: keeps generation O(E)
			}
			seen[v] = stamp
			w := float32(0)
			if cfg.Weighted {
				w = float32(cfg.Weight.Sample(rng))
			}
			b.AddEdge(int32(u), v, w)
		}
	}
	g := b.Build()
	g.SortAdjacency()
	return g
}

// Dataset names a reproducible synthetic dataset mirroring one row of
// the paper's Table 1 (SSSP, weighted) or Table 2 (PageRank,
// unweighted), scaled down from the paper's node counts.
type Dataset struct {
	Name       string
	Table      int // 1 = SSSP datasets, 2 = PageRank datasets
	PaperNodes int // node count in the paper
	PaperEdges int64
	Nodes      int // node count at this scale
	Cfg        GenConfig
}

// DefaultScale divides the paper's node counts for laptop-size runs.
const DefaultScale = 100

// Catalog returns the paper's eight graph datasets at 1/scale of their
// published node counts. The degree distributions use the paper's
// fitted shape parameters; for the "real" graphs the scale parameter is
// refit so the average degree matches the published edge/node ratio.
func Catalog(scale int) []Dataset {
	if scale <= 0 {
		scale = 1
	}
	mk := func(name string, table, paperNodes int, paperEdges int64, deg LogNormalParams, weighted bool, seed int64) Dataset {
		n := paperNodes / scale
		if n < 64 {
			n = 64
		}
		return Dataset{
			Name:       name,
			Table:      table,
			PaperNodes: paperNodes,
			PaperEdges: paperEdges,
			Nodes:      n,
			Cfg: GenConfig{
				Nodes:    n,
				Degree:   deg,
				Weighted: weighted,
				Weight:   SSSPWeight,
				Seed:     seed,
			},
		}
	}
	fit := func(base LogNormalParams, nodes int, edges int64) LogNormalParams {
		return base.WithMean(float64(edges) / float64(nodes))
	}
	return []Dataset{
		// Table 1: SSSP (weighted).
		mk("dblp", 1, 310556, 1518617, fit(LogNormalParams{Sigma: 1.0}, 310556, 1518617), true, 101),
		mk("facebook", 1, 1204004, 5430303, fit(LogNormalParams{Sigma: 1.0}, 1204004, 5430303), true, 102),
		mk("sssp-s", 1, 1000000, 7868140, SSSPDegree, true, 103),
		mk("sssp-m", 1, 10000000, 78873968, SSSPDegree, true, 104),
		mk("sssp-l", 1, 50000000, 369455293, SSSPDegree, true, 105),
		// Table 2: PageRank (unweighted).
		mk("google", 2, 916417, 6078254, fit(LogNormalParams{Sigma: 2.0}, 916417, 6078254), false, 201),
		mk("berkstan", 2, 685230, 7600595, fit(LogNormalParams{Sigma: 2.0}, 685230, 7600595), false, 202),
		mk("pagerank-s", 2, 1000000, 7425360, PageRankDegree, false, 203),
		mk("pagerank-m", 2, 10000000, 75061501, PageRankDegree, false, 204),
		mk("pagerank-l", 2, 30000000, 224493620, PageRankDegree, false, 205),
	}
}

// ByName returns the catalog dataset with the given name at scale.
func ByName(name string, scale int) (Dataset, error) {
	for _, d := range Catalog(scale) {
		if d.Name == name {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("graph: unknown dataset %q", name)
}

// Build generates the dataset's graph.
func (d Dataset) Build() *Graph { return Generate(d.Cfg) }
