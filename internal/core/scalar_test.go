package core

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"imapreduce/internal/cluster"
	"imapreduce/internal/dfs"
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

// fileSums returns the DFS checksum of every checkpoint file a run of the
// job named name left and of every part of its output directory, by path.
func fileSums(t testing.TB, fs *dfs.DFS, name, output string) map[string]uint32 {
	t.Helper()
	ckpt := regexp.MustCompile(`/ckpt-[0-9]+/part-[0-9]+$`)
	paths := fs.List(output + "/")
	for _, p := range fs.List("/_imr/" + name + "/") {
		if ckpt.MatchString(p) {
			paths = append(paths, p)
		}
	}
	sums := map[string]uint32{}
	for _, p := range paths {
		sum, err := fs.Checksum(p)
		if err != nil {
			t.Fatal(err)
		}
		sums[p] = sum
	}
	return sums
}

// sameFiles fails t unless two runs left the same checkpoint files and
// output parts, byte for byte, and at least one of each.
func sameFiles(t testing.TB, what string, got, want map[string]uint32) {
	t.Helper()
	var ckpts, parts int
	for p := range want {
		if strings.Contains(p, "/ckpt-") {
			ckpts++
		} else {
			parts++
		}
	}
	if ckpts == 0 || parts == 0 {
		t.Fatalf("%s: the reference run left %d checkpoint files and %d output parts", what, ckpts, parts)
	}
	if !maps.Equal(got, want) {
		t.Errorf("%s: checkpoint and output checksums %v, want %v", what, got, want)
	}
}

// TestColumnLoopsPicked: the job's definition alone decides its loops'
// instantiation. A built ScalarJob — or a copy of it — runs the typed
// loops; wrapping or replacing its Map, Reduce or Distance, a combiner, a
// second phase, an auxiliary phase or OneToAll mapping puts it on the
// boxed loops.
func TestColumnLoopsPicked(t *testing.T) {
	fresh := func() *Job { return rankJob("picked", 3).Build() }
	if !typedLoops(fresh()) {
		t.Fatal("a built ScalarJob does not run the typed loops")
	}
	cp := *fresh()
	if !typedLoops(&cp) {
		t.Fatal("a copy of a built ScalarJob does not run the typed loops")
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
		if typedLoops(j) {
			t.Errorf("%s: the job still runs the typed loops", name)
		}
		if _, ok := loopsOf(j, 0).(boxedDef); !ok {
			t.Errorf("%s: the job's first phase is not on the boxed loops", name)
		}
	}
}

// TestColumnLoopsMatchPairLoops runs one scalar job on the typed loops
// and, with its Reduce wrapped in an identity closure, on the boxed loops:
// over channels and TCP the outputs are bit-identical and so is every
// byte counter — a typed record is charged what its pair is — and every
// checkpoint file and output part the run leaves has the same DFS
// checksum, the one both left before the boxed loops replaced the pair
// loops (goldenLoopsSums): both box their state into the same bytes.
func TestColumnLoopsMatchPairLoops(t *testing.T) {
	const n, iters = 2048, 4
	counters := []string{metrics.ShuffleBytes, metrics.ShuffleRemote, metrics.StateBytes, metrics.StateRemote}
	run := func(tcp, boxed bool) (map[int64]any, map[string]int64, map[string]uint32) {
		var net transport.Network = transport.NewChanNetwork()
		if tcp {
			net = transport.NewTCPNetwork()
		}
		defer net.Close()
		v := newEnvNet(t, cluster.Uniform(4), net, Options{})
		v.ringStatic(t, n)
		job := rankJob("loops", iters).Build()
		job.CheckpointEvery = 3
		if boxed {
			r := job.Reduce
			job.Reduce = func(k any, s []any) (any, error) { return r(k, s) }
		}
		if typedLoops(job) == boxed {
			t.Fatalf("boxed=%v: typedLoops says %v", boxed, typedLoops(job))
		}
		res, err := v.e.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]int64{}
		for _, c := range counters {
			got[c] = v.m.Get(c)
		}
		return v.readOutput(t, res.OutputPath), got, fileSums(t, v.fs, job.Name, res.OutputPath)
	}
	want, wantBytes, wantSums := run(false, true)
	if len(want) != n || wantBytes[metrics.ShuffleBytes] == 0 || wantBytes[metrics.ShuffleRemote] == 0 {
		t.Fatalf("reference run: %d outputs, counters %v", len(want), wantBytes)
	}
	sameFiles(t, "golden", wantSums, goldenLoopsSums)
	for _, tcp := range []bool{false, true} {
		for _, boxed := range []bool{false, true} {
			got, bytes, sums := run(tcp, boxed)
			sameFiles(t, fmt.Sprintf("tcp=%v boxed=%v", tcp, boxed), sums, wantSums)
			for k, w := range want {
				if math.Float64bits(got[k].(float64)) != math.Float64bits(w.(float64)) {
					t.Fatalf("tcp=%v boxed=%v: key %d = %v, want %v", tcp, boxed, k, got[k], w)
				}
			}
			for _, c := range counters {
				if bytes[c] != wantBytes[c] {
					t.Errorf("tcp=%v boxed=%v: %s = %d, want %d", tcp, boxed, c, bytes[c], wantBytes[c])
				}
			}
		}
	}
}

// goldenLoopsSums are the checkpoint and output checksums of
// TestColumnLoopsMatchPairLoops' run, as the column loops and the pair
// loops both left them before the pair loops were removed.
var goldenLoopsSums = map[string]uint32{
	"/_imr/loops/ckpt-000003/part-0": 0x133a3a30, "/_imr/loops/ckpt-000003/part-1": 0x2015ec09,
	"/_imr/loops/ckpt-000003/part-2": 0x6bb4cd1f, "/_imr/loops/ckpt-000003/part-3": 0x3dc54af,
	"/_imr/loops/output/part-0": 0x133a3a30, "/_imr/loops/output/part-1": 0x2015ec09,
	"/_imr/loops/output/part-2": 0x6bb4cd1f, "/_imr/loops/output/part-3": 0x3dc54af,
}

// labelJob is a connected-components-shaped ScalarJob with int64 state
// over ringStatic's adjacency lists: every node keeps the smallest label
// it or a neighbour holds.
func labelJob(name string, maxIter int) ScalarJob[int64, []int64] {
	return ScalarJob[int64, []int64]{
		Job: Job{Name: name, StatePath: "/state", StaticPath: "/static", MaxIter: maxIter, NumTasks: 4},
		Map: func(k int64, label int64, adj []int64, emit func(int64, int64)) error {
			emit(k, label)
			for _, v := range adj {
				emit(v, label)
			}
			return nil
		},
		Reduce: func(_ int64, labels []int64) (int64, error) { return slices.Min(labels), nil },
		Distance: func(_ int64, prev, cur int64) float64 {
			if prev == cur {
				return 0
			}
			return 1
		},
	}
}

// TestWideKeyColumnsMatchPairLoops runs both typed value types on rings
// whose node ids are spread so that a chunk's keys need 3-, 5- and 8-byte
// offsets, negative ids included and, at 8 bytes, a span past 2^63; the
// int64 job's labels are the ids themselves, so its value column is as
// wide. Over channels and TCP, the outputs, every checkpoint file and
// output part, and the byte counters of the typed loops match the boxed
// loops' bit for bit, and the files match what both left before the boxed
// loops replaced the pair loops (goldenWideSums).
func TestWideKeyColumnsMatchPairLoops(t *testing.T) {
	const n, iters = 512, 4
	counters := []string{metrics.ShuffleBytes, metrics.ShuffleRemote, metrics.StateBytes, metrics.StateRemote}
	for _, ids := range []struct {
		width int
		id    func(i int) int64
	}{
		{3, func(i int) int64 { return int64(i)*10_000 - 5_000_000 }},
		{5, func(i int) int64 { return int64(i)*1e9 - 5e9 }},
		{8, func(i int) int64 { return math.MinInt64 + int64(i)<<55 }},
	} {
		if span := uint64(ids.id(n-1) - ids.id(0)); (bits.Len64(span)+7)/8 != ids.width {
			t.Fatalf("ids %d..%d do not need %d-byte offsets", ids.id(0), ids.id(n-1), ids.width)
		}
		for _, float := range []bool{true, false} {
			run := func(tcp, boxed bool) (map[int64]any, map[string]int64, map[string]uint32) {
				net := transport.Network(transport.NewChanNetwork())
				if tcp {
					net = transport.NewTCPNetwork()
				}
				defer net.Close()
				v := newEnvNet(t, cluster.Uniform(4), net, Options{})
				state, adj := make([]kv.Pair, n), make([]kv.Pair, n)
				for i := range n {
					state[i] = kv.Pair{Key: ids.id(i), Value: 1.0}
					if !float {
						state[i].Value = ids.id(i)
					}
					adj[i] = kv.Pair{Key: ids.id(i), Value: []int64{ids.id((i + 1) % n), ids.id((i + 2) % n), ids.id((i + n/3) % n)}}
				}
				job := labelJob("wide", iters).Build()
				if float {
					job = rankJob("wide", iters).Build()
				}
				if err := v.fs.WriteFile("/state", v.spec.IDs()[0], state, job.Ops); err != nil {
					t.Fatal(err)
				}
				if err := v.fs.WriteFile("/static", v.spec.IDs()[0], adj, kv.OpsFor[int64, []int64](nil)); err != nil {
					t.Fatal(err)
				}
				job.CheckpointEvery = 3
				if boxed {
					r := job.Reduce
					job.Reduce = func(k any, s []any) (any, error) { return r(k, s) }
				}
				if typedLoops(job) == boxed {
					t.Fatalf("boxed=%v: typedLoops says %v", boxed, typedLoops(job))
				}
				res, err := v.e.Run(job)
				if err != nil {
					t.Fatal(err)
				}
				got := map[string]int64{}
				for _, c := range counters {
					got[c] = v.m.Get(c)
				}
				return v.readOutput(t, res.OutputPath), got, fileSums(t, v.fs, job.Name, res.OutputPath)
			}
			want, wantBytes, wantSums := run(false, true)
			if len(want) != n || wantBytes[metrics.StateBytes] == 0 || wantBytes[metrics.ShuffleRemote] == 0 {
				t.Fatalf("reference run: %d outputs, counters %v", len(want), wantBytes)
			}
			sameFiles(t, fmt.Sprintf("%d-byte ids float=%v golden", ids.width, float), wantSums, goldenWideSums(ids.width, float))
			for _, c := range []struct{ tcp, boxed bool }{{false, false}, {true, false}, {true, true}} {
				what := fmt.Sprintf("%d-byte ids float=%v tcp=%v boxed=%v", ids.width, float, c.tcp, c.boxed)
				got, bytes, sums := run(c.tcp, c.boxed)
				sameFiles(t, what, sums, wantSums)
				for k, w := range want {
					if g, ok := got[k]; !ok || toBits(g) != toBits(w) {
						t.Fatalf("%s: key %d = %v, want %v", what, k, g, w)
					}
				}
				for _, c := range counters {
					if bytes[c] != wantBytes[c] {
						t.Errorf("%s: %s = %d, want %d", what, c, bytes[c], wantBytes[c])
					}
				}
			}
		}
	}
}

// goldenWideSums are the checkpoint and output checksums of
// TestWideKeyColumnsMatchPairLoops' runs of width-byte ids, by value
// type, as the column loops and the pair loops both left them before the
// pair loops were removed. Every part is one checkpoint's or one output's
// in the order ckpt-000003/part-0..3, output/part-0..3.
func goldenWideSums(width int, float bool) map[string]uint32 {
	sums := map[struct {
		width int
		float bool
	}][8]uint32{
		{3, true}:  {0x578c9abc, 0xe50ea46, 0xb4654320, 0x30a44d40, 0x578c9abc, 0xe50ea46, 0xb4654320, 0x30a44d40},
		{3, false}: {0x80eb6a4b, 0xf529a283, 0x29482f19, 0x17a12fb, 0x2f938dd5, 0xe1eb8a80, 0x66e59ed5, 0xcfbc2de8},
		{5, true}:  {0x4154133c, 0x24bd3cfd, 0x7d51b872, 0xe41a1f70, 0x4154133c, 0x24bd3cfd, 0x7d51b872, 0xe41a1f70},
		{5, false}: {0xb7f65fb0, 0xed3f487b, 0x4c5b1ad1, 0xc70358c9, 0xa4faff68, 0xbfff8d81, 0x91c188fd, 0x9a2b71f6},
		{8, true}:  {0x6d8547d1, 0xeae45b92, 0xe1fb7058, 0x689e9d6d, 0x6d8547d1, 0xeae45b92, 0xe1fb7058, 0x689e9d6d},
		{8, false}: {0x4d64ef5f, 0x60882e52, 0xa487d922, 0x3eb41061, 0xc709fc25, 0x9e14f1e6, 0xffc98586, 0x1c5e16cb},
	}[struct {
		width int
		float bool
	}{width, float}]
	out := map[string]uint32{}
	for i, sum := range sums {
		dir := "ckpt-000003"
		if i >= 4 {
			dir = "output"
		}
		out[fmt.Sprintf("/_imr/wide/%s/part-%d", dir, i%4)] = sum
	}
	return out
}

// toBits is a float64 or int64 output value as int64 bits.
func toBits(v any) int64 {
	if f, ok := v.(float64); ok {
		return int64(math.Float64bits(f))
	}
	return v.(int64)
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

// TestUserFunctionsRunOneCallAtATime: a task calls its user functions on
// its own goroutine, one call at a time, so a map or a reduce may keep
// unsynchronised scratch in its closure. One task pair maps and reduces
// 2048-record partitions with such a map and reduce; under the race
// detector a concurrent call of either is a reported race, and the
// output must be the plain job's bit for bit.
func TestUserFunctionsRunOneCallAtATime(t *testing.T) {
	const n, iters = 2048, 3
	run := func(spec ScalarJob[float64, []int64]) map[int64]any {
		v := newEnv(t, 1, Options{})
		v.ringStatic(t, n)
		spec.Job.NumTasks = 1
		res, err := v.e.Run(spec.Build())
		if err != nil {
			t.Fatal(err)
		}
		return v.readOutput(t, res.OutputPath)
	}
	want := run(rankJob("plain", iters))
	var targets []int64  // the map's scratch
	var shares []float64 // the reduce's scratch
	spec := rankJob("scratch", iters)
	spec.Map = func(k int64, r float64, adj []int64, emit func(int64, float64)) error {
		targets = append(targets[:0], adj...)
		emit(k, 0.15*r)
		for _, v := range targets {
			emit(v, 0.85*r/float64(len(targets)))
		}
		return nil
	}
	spec.Reduce = func(_ int64, vals []float64) (float64, error) {
		shares = append(shares[:0], vals...)
		slices.Sort(shares)
		var sum float64
		for _, s := range shares {
			sum += s
		}
		return sum, nil
	}
	got := run(spec)
	if len(got) != n {
		t.Fatalf("%d keys out, want %d", len(got), n)
	}
	for k, w := range want {
		if math.Float64bits(got[k].(float64)) != math.Float64bits(w.(float64)) {
			t.Fatalf("key %d = %v, want %v", k, got[k], w)
		}
	}
}

// TestScalarReduceErrorFailsRun: on the typed loops a typed reduce's
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
	if !typedLoops(job) {
		t.Fatal("not on the typed loops")
	}
	if _, err := v.e.Run(job); err == nil || !strings.Contains(err.Error(), "key 17: typed boom") {
		t.Fatalf("run error %v, want the typed reduce's, with its key", err)
	}
}

// TestMixedRecordLoopsFailTheReduce: a reduce handed the other
// instantiation's records — a map whose process built the job
// differently — fails the run instead of dropping them.
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
		{func(rt *reduceTask) reduceLoops { return boxedDef{}.reduceLoops(rt) },
			shuffleChunk{Gen: 1, Iter: 1, Seq: 1, Cols: &kv.Cols[float64]{Keys: []int64{1}, Vals: []float64{2}}}},
		{func(rt *reduceTask) reduceLoops { return job.scalar.reduceLoops(rt) },
			shuffleChunk{Gen: 1, Iter: 1, Seq: 1, Cols: &kv.Cols[any]{Keys: []int64{1}, Vals: []any{2.0}}}},
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

// TestMixedRecordLoopsFailTheMap: a map task handed the other loops'
// state chunk fails the run the same way, whether it maps the chunk on
// arrival (stream) or keeps it for the iteration's end.
func TestMixedRecordLoopsFailTheMap(t *testing.T) {
	net := transport.NewChanNetwork()
	defer net.Close()
	master, err := net.Endpoint("master")
	if err != nil {
		t.Fatal(err)
	}
	job := rankJob("mixed", 3).Build()
	cases := []struct {
		loops func(mt *mapTask) mapLoops
		chunk stateChunk
	}{
		{func(mt *mapTask) mapLoops { return job.scalar.mapLoops(mt) },
			stateChunk{Gen: 1, Iter: 1, Seq: 1, Cols: &kv.Cols[any]{Keys: []int64{1}, Vals: []any{2.0}}}},
		{func(mt *mapTask) mapLoops { return boxedDef{}.mapLoops(mt) },
			stateChunk{Gen: 1, Iter: 1, Seq: 1, Cols: &kv.Cols[float64]{Keys: []int64{1}, Vals: []float64{2}}}},
	}
	for i, c := range cases {
		for _, stream := range []bool{false, true} {
			ep, err := net.Endpoint(fmt.Sprint("map-", i, stream))
			if err != nil {
				t.Fatal(err)
			}
			mt := &mapTask{e: &Engine{m: metrics.NewSet()}, job: job, master: "master", ep: ep, gen: 1, iter: 1,
				stream: stream, feeders: 2, numReduce: 2, bufThresh: DefaultBufferThreshold, pend: map[int]*accum{}}
			mt.loops = c.loops(mt)
			mt.handleState(c.chunk)
			select {
			case msg := <-master.Recv():
				if fail, ok := msg.Payload.(taskErrMsg); !ok || !strings.Contains(fail.Err, "other record loops") {
					t.Fatalf("case %d stream %v: the master got %#v, want the map's failure", i, stream, msg.Payload)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("case %d stream %v: the map took the chunk without failing", i, stream)
			}
		}
	}
}
