// Package jobs is the process-global registry of named, parameterized
// job definitions shared by the imrmaster and imrworker binaries and
// the multi-process test harness. Map/reduce functions cannot cross
// the wire, so a plan message carries only a registry key and a string
// parameter map; every process rebuilds the identical job from those.
//
// Registered jobs are deterministic end to end: inputs are seeded
// generators, and reduces are order-independent (PageRank sorts its
// float contributions before summing), so a multi-process run's output
// can be compared bit for bit against an in-process run of the same
// key and parameters.
package jobs

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

	"imapreduce/internal/algorithms/pagerank"
	"imapreduce/internal/algorithms/sssp"
	"imapreduce/internal/core"
	"imapreduce/internal/dfs"
	"imapreduce/internal/graph"
)

// Entry is one registered job: Build reconstructs the definition from
// parameters; Seed writes its (deterministic, seeded) inputs into a
// DFS — called by whichever process owns the namenode.
type Entry struct {
	Build func(params map[string]string) (*core.Job, error)
	Seed  func(fs *dfs.DFS, at string, params map[string]string) error
}

var (
	mu       sync.RWMutex
	registry = map[string]Entry{}
)

// Register adds a job under key; duplicate keys panic (registration is
// an init-time act).
func Register(key string, e Entry) {
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[key]; dup {
		panic("jobs: duplicate registration of " + key)
	}
	registry[key] = e
}

// Keys lists the registered job keys, sorted.
func Keys() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Build constructs the job registered under key and stamps it with the
// registry identity remote plans need. Its signature matches
// core.JobBuilder.
func Build(key string, params map[string]string) (*core.Job, error) {
	mu.RLock()
	e, ok := registry[key]
	mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("jobs: unknown job %q (have %v)", key, Keys())
	}
	job, err := e.Build(params)
	if err != nil {
		return nil, err
	}
	job.Registry = key
	job.Params = params
	return job, nil
}

// Seed writes key's inputs into fs, pinned at node at.
func Seed(fs *dfs.DFS, at, key string, params map[string]string) error {
	mu.RLock()
	e, ok := registry[key]
	mu.RUnlock()
	if !ok {
		return fmt.Errorf("jobs: unknown job %q (have %v)", key, Keys())
	}
	return e.Seed(fs, at, params)
}

// Parameter parsing: every parameter is optional with a stable default,
// so "the same params map" is well-defined across processes even when
// sparse.

func intParam(p map[string]string, key string, def int) (int, error) {
	s, ok := p[key]
	if !ok || s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("jobs: param %s=%q: %w", key, s, err)
	}
	return v, nil
}

func int64Param(p map[string]string, key string, def int64) (int64, error) {
	s, ok := p[key]
	if !ok || s == "" {
		return def, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("jobs: param %s=%q: %w", key, s, err)
	}
	return v, nil
}

func floatParam(p map[string]string, key string, def float64) (float64, error) {
	s, ok := p[key]
	if !ok || s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("jobs: param %s=%q: %w", key, s, err)
	}
	return v, nil
}

// common holds the parameters every graph job shares.
type common struct {
	name    string
	nodes   int
	seed    int64
	maxIter int
	ckpt    int
	tasks   int
	dthresh float64
}

func commonParams(key string, p map[string]string) (common, error) {
	c := common{name: key}
	if n, ok := p["name"]; ok && n != "" {
		c.name = n
	}
	var err error
	if c.nodes, err = intParam(p, "nodes", 400); err != nil {
		return c, err
	}
	if c.seed, err = int64Param(p, "seed", 42); err != nil {
		return c, err
	}
	if c.maxIter, err = intParam(p, "maxiter", 10); err != nil {
		return c, err
	}
	if c.ckpt, err = intParam(p, "ckpt", 3); err != nil {
		return c, err
	}
	if c.tasks, err = intParam(p, "tasks", 0); err != nil {
		return c, err
	}
	if c.dthresh, err = floatParam(p, "dthresh", 0); err != nil {
		return c, err
	}
	return c, nil
}

// Conventional DFS layout per job name.
func (c common) staticPath() string { return "/jobs/" + c.name + "/static" }
func (c common) statePath() string  { return "/jobs/" + c.name + "/state" }

// OutputPath is where the registered job named name writes its final
// state — exported so harnesses know where to diff.
func OutputPath(name string) string { return "/jobs/" + name + "/out" }

func init() {
	Register("pagerank", Entry{
		Build: func(p map[string]string) (*core.Job, error) {
			c, err := commonParams("pagerank", p)
			if err != nil {
				return nil, err
			}
			job := pagerank.IMRJob(pagerank.IMRConfig{
				Name:          c.name,
				Nodes:         c.nodes,
				StaticPath:    c.staticPath(),
				StatePath:     c.statePath(),
				OutputPath:    OutputPath(c.name),
				MaxIter:       c.maxIter,
				DistThreshold: c.dthresh,
				NumTasks:      c.tasks,
				Checkpoint:    c.ckpt,
			})
			// Float addition is not associative: sort each key's
			// contributions before summing so the result is independent
			// of arrival order — the property that makes multi-process
			// output bit-identical to in-process output.
			base := job.Reduce
			job.Reduce = func(key any, states []any) (any, error) {
				slices.SortFunc(states, func(a, b any) int { return cmp.Compare(a.(float64), b.(float64)) })
				return base(key, states)
			}
			return job, nil
		},
		Seed: func(fs *dfs.DFS, at string, p map[string]string) error {
			c, err := commonParams("pagerank", p)
			if err != nil {
				return err
			}
			g := graph.Generate(graph.GenConfig{Nodes: c.nodes, Degree: graph.PageRankDegree, Seed: c.seed})
			return pagerank.WriteInputs(fs, at, g, c.staticPath(), c.statePath())
		},
	})

	Register("sssp", Entry{
		Build: func(p map[string]string) (*core.Job, error) {
			c, err := commonParams("sssp", p)
			if err != nil {
				return nil, err
			}
			// Min is order-independent already; no reduce wrapper needed.
			return sssp.IMRJob(sssp.IMRConfig{
				Name:          c.name,
				StaticPath:    c.staticPath(),
				StatePath:     c.statePath(),
				OutputPath:    OutputPath(c.name),
				MaxIter:       c.maxIter,
				DistThreshold: c.dthresh,
				NumTasks:      c.tasks,
				Checkpoint:    c.ckpt,
			}), nil
		},
		Seed: func(fs *dfs.DFS, at string, p map[string]string) error {
			c, err := commonParams("sssp", p)
			if err != nil {
				return err
			}
			source, err := int64Param(p, "source", 0)
			if err != nil {
				return err
			}
			g := graph.Generate(graph.GenConfig{
				Nodes: c.nodes, Degree: graph.SSSPDegree,
				Weighted: true, Weight: graph.SSSPWeight, Seed: c.seed,
			})
			return sssp.WriteInputs(fs, at, g, source, c.staticPath(), c.statePath())
		},
	})
}
