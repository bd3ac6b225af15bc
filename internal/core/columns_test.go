package core_test

import (
	"math"
	"sync"
	"testing"
	"time"

	"imapreduce/internal/cluster"
	"imapreduce/internal/core"
	"imapreduce/internal/jobs"
	"imapreduce/internal/metrics"
	"imapreduce/internal/transport"
)

// onPairLoops builds key's registry job with its Reduce wrapped in an
// identity closure: the same job, on the pair loops.
func onPairLoops(key string, p map[string]string) (*core.Job, error) {
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
// and the registry's PageRank (whose sorted sum makes it independent of
// arrival order) give bit-identical outputs on the column loops and on
// the pair loops, at 4 tasks over channels and over TCP, and every byte
// counter reads the same on both.
func TestRegistryJobsColumnLoopsMatchPairLoops(t *testing.T) {
	counters := []string{metrics.ShuffleBytes, metrics.ShuffleRemote, metrics.StateBytes, metrics.StateRemote}
	for _, key := range []string{"pagerank", "sssp", "concomp"} {
		params := map[string]string{"name": key + "-loops", "nodes": "300", "maxiter": "8", "ckpt": "3", "tasks": "4"}
		if job, _ := jobs.Build(key, params); !core.ColumnLoops(job) {
			t.Fatalf("%s: the registry job does not run the column loops", key)
		}
		if job, _ := onPairLoops(key, params); core.ColumnLoops(job) {
			t.Fatalf("%s: the wrapped job still runs the column loops", key)
		}
		for _, tcp := range []bool{false, true} {
			cols := scenario{name: "columns", spec: cluster.Uniform(4), build: jobs.Build, options: calm.options, m: metrics.NewSet()}
			pairs := scenario{name: "pairs", spec: cluster.Uniform(4), build: onPairLoops, options: calm.options, m: metrics.NewSet()}
			got, _ := cols.runInProcess(t, newNet(tcp), key, params)
			want, _ := pairs.runInProcess(t, newNet(tcp), key, params)
			if !sameBits(got, want) {
				t.Errorf("%s tcp=%v: the column loops' output differs from the pair loops'", key, tcp)
			}
			if pairs.m.Get(metrics.ShuffleRemote) == 0 {
				t.Errorf("%s tcp=%v: no shuffle byte crossed workers", key, tcp)
			}
			for _, c := range counters {
				if g, w := cols.m.Get(c), pairs.m.Get(c); g != w {
					t.Errorf("%s tcp=%v: %s = %d on the column loops, %d on the pair loops", key, tcp, c, g, w)
				}
			}
		}
	}
}

// TestColumnLoopsRecover: a column-loop run with a checkpoint every 2
// iterations, hit at iteration 3 by an announced worker failure or by a
// silent stall the heartbeats must detect, rolls back, finishes, and
// writes output bit-identical to a calm run — over channels and TCP. A
// distance threshold gates every iteration on the master, so the fault
// lands mid-run however fast the tasks are (SSSP converges at iteration
// 8 on this graph, PageRank runs to MaxIter).
func TestColumnLoopsRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("stall recovery takes a stall's length")
	}
	for _, key := range []string{"pagerank", "sssp"} {
		params := map[string]string{"name": key + "-recover", "nodes": "200", "maxiter": "8", "ckpt": "2", "tasks": "4", "dthresh": "1e-9"}
		spec := cluster.Uniform(4)
		want, _ := scenario{name: "calm", spec: spec, build: jobs.Build, options: calm.options}.runInProcess(t, transport.NewChanNetwork(), key, params)
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
				got, res := sc.runInProcess(t, newNet(tcp), key, params)
				if res.Recoveries < 1 {
					t.Errorf("%s %s tcp=%v: no recovery", key, fault, tcp)
				}
				if !sameBits(got, want) {
					t.Errorf("%s %s tcp=%v: output differs from the calm run", key, fault, tcp)
				}
			}
		}
	}
}

// TestColumnLoopsUnderChaos: over a network that drops, duplicates and
// reorders frames, column chunks — duplicates of a leased batch
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
