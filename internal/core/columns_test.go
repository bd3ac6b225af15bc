package core_test

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"testing"
	"time"

	"imapreduce/internal/algorithms/jacobi"
	"imapreduce/internal/algorithms/kmeans"
	"imapreduce/internal/algorithms/matpower"
	"imapreduce/internal/algorithms/pagerank"
	"imapreduce/internal/cluster"
	"imapreduce/internal/core"
	"imapreduce/internal/dfs"
	"imapreduce/internal/jobs"
	"imapreduce/internal/metrics"
	"imapreduce/internal/transport"
)

// onBoxedLoops builds key's registry job with its Reduce wrapped in an
// identity closure: the same job, on the boxed loops.
func onBoxedLoops(key string, p map[string]string) (*core.Job, error) {
	job, err := jobs.Build(key, p)
	if err != nil {
		return nil, err
	}
	reduce := job.Reduce
	job.Reduce = func(k any, states []any) (any, error) { return reduce(k, states) }
	return job, nil
}

// sameBits reports whether two outputs hold the same keys with the same
// values bit for bit.
func sameBits(a, b map[int64]any) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		switch x := av.(type) {
		case float64:
			y, ok := b[k].(float64)
			if !ok || math.Float64bits(x) != math.Float64bits(y) {
				return false
			}
		default:
			if b[k] != av {
				return false
			}
		}
	}
	return true
}

func newNet(tcp bool) transport.Network {
	if tcp {
		return transport.NewTCPNetwork()
	}
	return transport.NewChanNetwork()
}

// TestRegistryJobsColumnLoopsMatchPairLoops: SSSP, connected components
// and the registry's PageRank give bit-identical outputs on the typed
// loops and on the boxed loops, at 4 tasks over channels and over TCP,
// and every byte counter reads the same on both.
func TestRegistryJobsColumnLoopsMatchPairLoops(t *testing.T) {
	counters := []string{metrics.ShuffleBytes, metrics.ShuffleRemote, metrics.StateBytes, metrics.StateRemote}
	for _, key := range []string{"pagerank", "sssp", "concomp"} {
		params := map[string]string{"name": key + "-loops", "nodes": "300", "maxiter": "8", "ckpt": "3", "tasks": "4"}
		if job, _ := jobs.Build(key, params); !core.TypedLoops(job) {
			t.Fatalf("%s: the registry job does not run the typed loops", key)
		}
		if job, _ := onBoxedLoops(key, params); core.TypedLoops(job) {
			t.Fatalf("%s: the wrapped job still runs the typed loops", key)
		}
		for _, tcp := range []bool{false, true} {
			typed := scenario{name: "typed", spec: cluster.Uniform(4), build: jobs.Build, options: calm.options, m: metrics.NewSet()}
			boxed := scenario{name: "boxed", spec: cluster.Uniform(4), build: onBoxedLoops, options: calm.options, m: metrics.NewSet()}
			got, _ := typed.runInProcess(t, newNet(tcp), key, params)
			want, _ := boxed.runInProcess(t, newNet(tcp), key, params)
			if !sameBits(got, want) {
				t.Errorf("%s tcp=%v: the typed loops' output differs from the boxed loops'", key, tcp)
			}
			if boxed.m.Get(metrics.ShuffleRemote) == 0 {
				t.Errorf("%s tcp=%v: no shuffle byte crossed workers", key, tcp)
			}
			for _, c := range counters {
				if g, w := typed.m.Get(c), boxed.m.Get(c); g != w {
					t.Errorf("%s tcp=%v: %s = %d on the typed loops, %d on the boxed loops", key, tcp, c, g, w)
				}
			}
		}
	}
}

// TestColumnLoopsRecover: a typed-loop run with a checkpoint every 2
// iterations, hit at iteration 3 by an announced worker failure or by a
// silent stall the heartbeats must detect, rolls back, finishes, and
// leaves output and checkpoint files bit-identical to a calm run on the
// boxed loops — over channels and TCP. A distance threshold gates every
// iteration on the master, so the fault lands mid-run however fast the
// tasks are (SSSP converges at iteration 8 on this graph, PageRank runs
// to MaxIter).
func TestColumnLoopsRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("stall recovery takes a stall's length")
	}
	for _, key := range []string{"pagerank", "sssp"} {
		params := map[string]string{"name": key + "-recover", "nodes": "200", "maxiter": "8", "ckpt": "2", "tasks": "4", "dthresh": "1e-9"}
		spec := cluster.Uniform(4)
		var wantSums map[string]uint32
		ref := scenario{name: "calm", spec: spec, build: onBoxedLoops, options: calm.options}
		ref.onDone = func(fs *dfs.DFS, res *core.Result) { wantSums = core.FileSums(t, fs, params["name"], res.OutputPath) }
		want, _ := ref.runInProcess(t, transport.NewChanNetwork(), key, params)
		for _, fault := range []string{"fail", "stall"} {
			for _, tcp := range []bool{false, true} {
				var eng *core.Engine
				sc := scenario{name: fault, spec: spec, build: jobs.Build, options: func(fail func(string)) core.Options {
					var once sync.Once
					return core.Options{
						HeartbeatInterval: 20 * time.Millisecond,
						HeartbeatMisses:   5,
						OnIteration: func(it core.IterInfo) {
							if it.Iter < 3 {
								return
							}
							once.Do(func() {
								if fault == "fail" {
									fail("worker-1")
									return
								}
								eng.StallWorker("worker-1", 400*time.Millisecond)
							})
						},
					}
				}}
				sc.onEngine = func(e *core.Engine) { eng = e }
				what := fmt.Sprintf("%s %s tcp=%v", key, fault, tcp)
				sc.onDone = func(fs *dfs.DFS, res *core.Result) {
					core.SameFiles(t, what, core.FileSums(t, fs, params["name"], res.OutputPath), wantSums)
				}
				got, res := sc.runInProcess(t, newNet(tcp), key, params)
				if res.Recoveries < 1 {
					t.Errorf("%s: no recovery", what)
				}
				if !sameBits(got, want) {
					t.Errorf("%s: output differs from the calm run on the boxed loops", what)
				}
			}
		}
	}
}

// TestColumnLoopsUnderChaos: over a network that drops, duplicates and
// reorders frames, typed column chunks — duplicates of a leased batch
// included — are taken exactly once, and the output is bit-identical to
// a calm run's, over channels and over TCP.
func TestColumnLoopsUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	for _, key := range []string{"pagerank", "sssp"} {
		params := map[string]string{"name": key + "-chaos", "nodes": "200", "maxiter": "8", "ckpt": "2", "tasks": "4"}
		spec := cluster.Uniform(4)
		want, _ := scenario{name: "calm", spec: spec, build: jobs.Build, options: calm.options}.runInProcess(t, transport.NewChanNetwork(), key, params)
		for _, tcp := range []bool{false, true} {
			fnet := transport.NewFaultyNetwork(newNet(tcp), transport.FaultyOptions{Seed: 7, DropRate: 0.02, DupRate: 0.05, ReorderRate: 0.05})
			sc := scenario{name: "chaos", spec: spec, build: jobs.Build, options: func(func(string)) core.Options {
				return core.Options{SendRetries: 6}
			}}
			got, _ := sc.runInProcess(t, fnet, key, params)
			if fnet.Dups() == 0 || fnet.Drops() == 0 {
				t.Fatalf("%s tcp=%v: fault profile inert: %d dups, %d drops", key, tcp, fnet.Dups(), fnet.Drops())
			}
			if !sameBits(got, want) {
				t.Errorf("%s tcp=%v: output under chaos differs from the calm run", key, tcp)
			}
		}
	}
}

// unsortedPageRank builds pagerank.IMRJob — whose reduce sums each key's
// shares in the order it is handed them — over the registry PageRank's
// inputs, in 64-record chunks, so that every map sends each reduce
// several chunks and every reduce sends its map several.
func unsortedPageRank(_ string, p map[string]string) (*core.Job, error) {
	nodes, err := strconv.Atoi(p["nodes"])
	if err != nil {
		return nil, err
	}
	name := p["name"]
	job := pagerank.IMRJob(pagerank.IMRConfig{
		Name: name, Nodes: nodes, MaxIter: 8, NumTasks: 4, Checkpoint: 3,
		StaticPath: "/jobs/" + name + "/static", StatePath: "/jobs/" + name + "/state", OutputPath: jobs.OutputPath(name),
	})
	job.BufferThreshold = 64
	return job, nil
}

// TestColumnReduceDeterministic: PageRank with an unsorted sum on the
// typed loops, and on the boxed loops MaxIter-only k-means with its
// combiner (whose reduce averages its points and partial sums in the
// order it is handed them), Jacobi and matrix power (whose first reduce
// lists a row's entries in that order, and whose second sums their
// products), each leave bit-identical checkpoint and output files over
// channels, over loopback TCP (twice), and over a network that
// duplicates and reorders frames. A reduce groups each key's values in
// canonical (map, slot, position) order, and a map takes its state
// chunks in slot order, so no network timing reaches the floating-point
// sums.
func TestColumnReduceDeterministic(t *testing.T) {
	params := map[string]string{"name": "pagerank-det", "nodes": "600"}
	if job, _ := unsortedPageRank("", params); !core.TypedLoops(job) {
		t.Fatal("the job does not run the typed loops")
	}
	registry := func(net transport.Network) map[string]uint32 {
		var sums map[string]uint32
		sc := scenario{name: "det", spec: cluster.Uniform(4), build: unsortedPageRank, options: calm.options}
		sc.onDone = func(fs *dfs.DFS, res *core.Result) { sums = core.FileSums(t, fs, params["name"], res.OutputPath) }
		sc.runInProcess(t, net, "pagerank", params)
		return sums
	}
	for _, c := range []struct {
		name string
		run  func(net transport.Network) map[string]uint32
	}{
		{"pagerank", registry},
		{"kmeans", func(net transport.Network) map[string]uint32 {
			points, centroids := kmeans.Generate(kmeans.DataConfig{Users: 600, Dim: 4, K: 5, Seed: 11})
			return untypedRun(t, net, func(fs *dfs.DFS, at string) error {
				return kmeans.WriteInputs(fs, at, points, centroids, "/km/static", "/km/state")
			}, kmeans.IMRJob(kmeans.IMRConfig{Name: "kmeans-det", StaticPath: "/km/static", StatePath: "/km/state",
				MaxIter: 5, NumTasks: 4, UseCombiner: true, Checkpoint: 2}))
		}},
		{"jacobi", func(net transport.Network) map[string]uint32 {
			sys := jacobi.RandomDiagDominant(120, 5)
			return untypedRun(t, net, func(fs *dfs.DFS, at string) error {
				return jacobi.WriteInputs(fs, at, sys, "/jac/static", "/jac/state")
			}, jacobi.IMRJob(jacobi.IMRConfig{Name: "jacobi-det", StaticPath: "/jac/static", StatePath: "/jac/state",
				MaxIter: 6, NumTasks: 4, Checkpoint: 2}))
		}},
		{"matpower", func(net transport.Network) map[string]uint32 {
			m := matpower.Random(16, 9)
			return untypedRun(t, net, func(fs *dfs.DFS, at string) error {
				return matpower.WriteInputs(fs, at, m, "/mp/static", "/mp/state")
			}, matpower.IMRJob(matpower.IMRConfig{Name: "matpower-det", StaticPath: "/mp/static", StatePath: "/mp/state",
				MaxIter: 3, NumTasks: 4, Checkpoint: 1}))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := c.run(transport.NewChanNetwork())
			core.SameFiles(t, "tcp", c.run(transport.NewTCPNetwork()), want)
			core.SameFiles(t, "tcp again", c.run(transport.NewTCPNetwork()), want)
			fnet := transport.NewFaultyNetwork(transport.NewChanNetwork(), transport.FaultyOptions{Seed: 3, DupRate: 0.05, ReorderRate: 0.2})
			core.SameFiles(t, "dups and reorders", c.run(fnet), want)
			if fnet.Dups() == 0 || fnet.Reorders() == 0 {
				t.Fatalf("fault profile inert: %d dups, %d reorders", fnet.Dups(), fnet.Reorders())
			}
		})
	}
}

// untypedRun runs job on 4 workers over net, its inputs written by seed,
// and returns the checksums of the checkpoint files and output parts it
// leaves.
func untypedRun(t *testing.T, net transport.Network, seed func(fs *dfs.DFS, at string) error, job *core.Job) map[string]uint32 {
	t.Helper()
	defer net.Close()
	spec := cluster.Uniform(4)
	fs := dfs.New(dfs.Config{BlockSize: 1 << 14, Replication: 2}, spec.IDs(), metrics.NewSet())
	if err := seed(fs, spec.IDs()[0]); err != nil {
		t.Fatal(err)
	}
	if core.TypedLoops(job) {
		t.Fatalf("%s runs the typed loops", job.Name)
	}
	eng, err := core.NewEngine(fs, net, spec, nil, core.Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	return core.FileSums(t, fs, job.Name, res.OutputPath)
}
