package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"imapreduce/internal/cluster"
	"imapreduce/internal/kv"
	"imapreduce/internal/metrics"
	"imapreduce/internal/transport"
)

// rankJob is a PageRank-shaped ScalarJob over the static adjacency
// lists ringStatic writes: every node keeps a retained share and sends
// the rest of its rank evenly along its edges; the reduce sums the
// sorted shares, so its result does not depend on arrival order.
func rankJob(name string, maxIter int) ScalarJob[float64, []int64] {
	return ScalarJob[float64, []int64]{
		Job: Job{Name: name, StatePath: "/state", StaticPath: "/static", MaxIter: maxIter, NumTasks: 4},
		Map: func(k int64, r float64, adj []int64, emit func(int64, float64)) error {
			emit(k, 0.15*r)
			for _, v := range adj {
				emit(v, 0.85*r/float64(len(adj)))
			}
			return nil
		},
		Reduce: func(_ int64, shares []float64) (float64, error) {
			slices.Sort(shares)
			var sum float64
			for _, s := range shares {
				sum += s
			}
			return sum, nil
		},
		Distance: func(_ int64, prev, cur float64) float64 { return math.Abs(prev - cur) },
	}
}

// ringStatic writes n nodes of state 1 and, as static data, each node's
// edges to its next three nodes and to the node a third of the ring away.
func (v *env) ringStatic(t *testing.T, n int) {
	t.Helper()
	v.writeState(t, "/state", n)
	adj := make([]kv.Pair, n)
	for i := range adj {
		adj[i] = kv.Pair{Key: int64(i), Value: []int64{int64((i + 1) % n), int64((i + 2) % n), int64((i + 3) % n), int64((i + n/3) % n)}}
	}
	if err := v.fs.WriteFile("/static", v.spec.IDs()[0], adj, kv.OpsFor[int64, []int64](nil)); err != nil {
		t.Fatal(err)
	}
}

// TestColumnLoopsPicked: the job's definition alone decides its loops.
// A built ScalarJob — or a copy of it — runs the column loops; wrapping
// or replacing its Map, Reduce or Distance, a combiner, a second phase,
// an auxiliary phase or OneToAll mapping puts it on the pair loops.
func TestColumnLoopsPicked(t *testing.T) {
	fresh := func() *Job { return rankJob("picked", 3).Build() }
	if !columnLoops(fresh()) {
		t.Fatal("a built ScalarJob does not run the column loops")
	}
	cp := *fresh()
	if !columnLoops(&cp) {
		t.Fatal("a copy of a built ScalarJob does not run the column loops")
	}
	other := rankJob("other", 3).Build()
	for name, change := range map[string]func(j *Job){
		"wrapped map": func(j *Job) {
			m := j.Map
			j.Map = func(k, s, st any, e kv.Emit) error { return m(k, s, st, e) }
		},
		"wrapped reduce": func(j *Job) {
			r := j.Reduce
			j.Reduce = func(k any, s []any) (any, error) { return r(k, s) }
		},
		"wrapped distance": func(j *Job) {
			d := j.Distance
			j.Distance = func(k, p, c any) float64 { return d(k, p, c) }
		},
		"distance removed":      func(j *Job) { j.Distance = nil },
		"another job's reduce":  func(j *Job) { j.Reduce = other.Reduce },
		"combiner":              func(j *Job) { j.Combine = func(k any, v []any) (any, error) { return v[0], nil } },
		"one-to-all":            func(j *Job) { j.Mapping = OneToAll },
		"successor":             func(j *Job) { j.AddSuccessor(halvingJob("next", 3, 0)) },
		"auxiliary":             func(j *Job) { j.AddAuxiliary(halvingJob("aux", 3, 0)) },
		"plain job, no builder": func(j *Job) { *j = *halvingJob("plain", 3, 0) },
	} {
		j := fresh()
		change(j)
		if columnLoops(j) {
			t.Errorf("%s: the job still runs the column loops", name)
		}
	}
}

// TestColumnLoopsMatchPairLoops runs one scalar job on the column loops
// and, with its Reduce wrapped in an identity closure, on the pair loops:
// over channels and TCP, serial and with the map and reduce loops sharded
// across the pool, the outputs are bit-identical and so is every byte
// counter — a column record is charged what its pair is.
func TestColumnLoopsMatchPairLoops(t *testing.T) {
	const n, iters = 2048, 4
	counters := []string{metrics.ShuffleBytes, metrics.ShuffleRemote, metrics.StateBytes, metrics.StateRemote}
	run := func(tcp bool, parallelism int, pairs bool) (map[int64]any, map[string]int64) {
		var net transport.Network = transport.NewChanNetwork()
		if tcp {
			net = transport.NewTCPNetwork()
		}
		defer net.Close()
		v := newEnvNet(t, cluster.Uniform(4), net, Options{Parallelism: parallelism})
		v.ringStatic(t, n)
		job := rankJob("loops", iters).Build()
		if pairs {
			r := job.Reduce
			job.Reduce = func(k any, s []any) (any, error) { return r(k, s) }
		}
		if columnLoops(job) == pairs {
			t.Fatalf("pairs=%v: columnLoops says %v", pairs, columnLoops(job))
		}
		res, err := v.e.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]int64{}
		for _, c := range counters {
			got[c] = v.m.Get(c)
		}
		return v.readOutput(t, res.OutputPath), got
	}
	want, wantBytes := run(false, 1, true)
	if len(want) != n || wantBytes[metrics.ShuffleBytes] == 0 || wantBytes[metrics.ShuffleRemote] == 0 {
		t.Fatalf("reference run: %d outputs, counters %v", len(want), wantBytes)
	}
	for _, tcp := range []bool{false, true} {
		for _, par := range []int{1, 4} {
			for _, pairs := range []bool{false, true} {
				got, bytes := run(tcp, par, pairs)
				for k, w := range want {
					if math.Float64bits(got[k].(float64)) != math.Float64bits(w.(float64)) {
						t.Fatalf("tcp=%v parallelism=%d pairs=%v: key %d = %v, want %v", tcp, par, pairs, k, got[k], w)
					}
				}
				for _, c := range counters {
					if bytes[c] != wantBytes[c] {
						t.Errorf("tcp=%v parallelism=%d pairs=%v: %s = %d, want %d", tcp, par, pairs, c, bytes[c], wantBytes[c])
					}
				}
			}
		}
	}
}

// TestWrappedScalarReduceTakesEffect: a wrapper put around a scalar
// job's Reduce runs — its error fails the run.
func TestWrappedScalarReduceTakesEffect(t *testing.T) {
	v := newEnv(t, 4, Options{})
	v.ringStatic(t, 64)
	job := rankJob("wrapped", 4).Build()
	boom := errors.New("boom from the wrapper")
	r := job.Reduce
	job.Reduce = func(k any, s []any) (any, error) {
		if k.(int64) == 17 {
			return nil, boom
		}
		return r(k, s)
	}
	if _, err := v.e.Run(job); err == nil || !strings.Contains(err.Error(), boom.Error()) {
		t.Fatalf("run error %v, want the wrapper's %q", err, boom)
	}
}

// TestScalarReduceErrorFailsRun: on the column loops a typed reduce's
// error fails the run too, naming the key.
func TestScalarReduceErrorFailsRun(t *testing.T) {
	v := newEnv(t, 4, Options{})
	v.ringStatic(t, 64)
	spec := rankJob("typed-err", 4)
	spec.Reduce = func(k int64, _ []float64) (float64, error) {
		if k == 17 {
			return 0, errors.New("typed boom")
		}
		return 1, nil
	}
	job := spec.Build()
	if !columnLoops(job) {
		t.Fatal("not on the column loops")
	}
	if _, err := v.e.Run(job); err == nil || !strings.Contains(err.Error(), "key 17: typed boom") {
		t.Fatalf("run error %v, want the typed reduce's, with its key", err)
	}
}

// TestMixedRecordLoopsFailTheReduce: a reduce handed the other loops'
// records — a map whose process built the job differently — fails the
// run instead of dropping them.
func TestMixedRecordLoopsFailTheReduce(t *testing.T) {
	net := transport.NewChanNetwork()
	defer net.Close()
	master, err := net.Endpoint("master")
	if err != nil {
		t.Fatal(err)
	}
	job := rankJob("mixed", 3).Build()
	for i, c := range []struct {
		loops func(rt *reduceTask) reduceLoops
		chunk shuffleChunk
	}{
		{func(rt *reduceTask) reduceLoops { return &pairReduceLoops{t: rt} },
			shuffleChunk{Gen: 1, Iter: 1, Seq: 1, Cols: &kv.Cols[float64]{Keys: []int64{1}, Vals: []float64{2}}}},
		{func(rt *reduceTask) reduceLoops { return job.scalar.reduceLoops(rt) },
			shuffleChunk{Gen: 1, Iter: 1, Seq: 1, Pairs: []kv.Pair{{Key: int64(1), Value: 2.0}}}},
	} {
		ep, err := net.Endpoint(fmt.Sprint("red-", i))
		if err != nil {
			t.Fatal(err)
		}
		rt := &reduceTask{e: &Engine{m: metrics.NewSet()}, job: job, master: "master", ep: ep, gen: 1, iter: 1, numMaps: 2, pend: map[int]*accum{}}
		rt.loops = c.loops(rt)
		rt.handleShuffle(c.chunk)
		msg := <-master.Recv()
		if fail, ok := msg.Payload.(taskErrMsg); !ok || !strings.Contains(fail.Err, "other record loops") {
			t.Fatalf("case %d: the master got %#v, want the reduce's failure", i, msg.Payload)
		}
	}
}
