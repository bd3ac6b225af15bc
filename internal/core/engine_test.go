package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"imapreduce/internal/cluster"
	"imapreduce/internal/dfs"
	"imapreduce/internal/kv"
	"imapreduce/internal/leaktest"
	"imapreduce/internal/metrics"
	"imapreduce/internal/transport"
)

// env bundles an engine over a fresh in-process cluster.
type env struct {
	e    *Engine
	fs   *dfs.DFS
	m    *metrics.Set
	spec cluster.Spec
}

func newEnv(t testing.TB, workers int, opts Options) *env {
	t.Helper()
	return newEnvSpec(t, cluster.Uniform(workers), opts)
}

func newEnvSpec(t testing.TB, spec cluster.Spec, opts Options) *env {
	t.Helper()
	return newEnvNet(t, spec, transport.NewChanNetwork(), opts)
}

// newEnvNet builds an engine over net for a fresh cluster of spec.
func newEnvNet(t testing.TB, spec cluster.Spec, net transport.Network, opts Options) *env {
	t.Helper()
	m := metrics.NewSet()
	fs := dfs.New(dfs.Config{BlockSize: 1 << 14, Replication: 2}, spec.IDs(), m)
	if opts.Timeout == 0 {
		opts.Timeout = 20 * time.Second
	}
	e, err := NewEngine(fs, net, spec, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &env{e: e, fs: fs, m: m, spec: spec}
}

func f64Ops() kv.Ops { return kv.OpsFor[int64, float64](nil) }

// writeState writes n records key i -> value 1.0 as the initial state.
func (v *env) writeState(t *testing.T, path string, n int) {
	t.Helper()
	recs := make([]kv.Pair, n)
	for i := range recs {
		recs[i] = kv.Pair{Key: int64(i), Value: 1.0}
	}
	if err := v.fs.WriteFile(path, v.spec.IDs()[0], recs, f64Ops()); err != nil {
		t.Fatal(err)
	}
}

// readOutput collects and sorts all output parts.
func (v *env) readOutput(t *testing.T, dir string) map[int64]any {
	t.Helper()
	out := map[int64]any{}
	for _, p := range v.fs.List(dir + "/") {
		recs, err := v.fs.ReadFile(p, v.spec.IDs()[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			out[r.Key.(int64)] = r.Value
		}
	}
	return out
}

// halvingJob: every iteration every key's value halves. Carrier map.
func halvingJob(name string, maxIter int, distThresh float64) *Job {
	j := &Job{
		Name:      name,
		StatePath: "/state",
		Map: func(key, state, static any, emit kv.Emit) error {
			emit(key, state)
			return nil
		},
		Reduce: func(key any, states []any) (any, error) {
			return states[0].(float64) / 2, nil
		},
		MaxIter: maxIter,
		Ops:     f64Ops(),
	}
	if distThresh > 0 {
		j.DistThreshold = distThresh
		j.Distance = func(key, prev, curr any) float64 {
			return math.Abs(prev.(float64) - curr.(float64))
		}
	}
	return j
}

func TestHalvingFixedIterations(t *testing.T) {
	v := newEnv(t, 3, Options{})
	v.writeState(t, "/state", 20)
	job := halvingJob("halve", 6, 0)
	res, err := v.e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 6 || res.Converged {
		t.Fatalf("iterations=%d converged=%v", res.Iterations, res.Converged)
	}
	if res.OutputRecords != 20 {
		t.Fatalf("output records = %d", res.OutputRecords)
	}
	out := v.readOutput(t, res.OutputPath)
	for k, val := range out {
		if got := val.(float64); math.Abs(got-1.0/64) > 1e-12 {
			t.Fatalf("key %d = %v, want 1/64", k, got)
		}
	}
	if len(res.PerIter) != 6 {
		t.Fatalf("per-iter entries: %d", len(res.PerIter))
	}
	for i, pi := range res.PerIter {
		if pi.Iter != i+1 {
			t.Fatalf("per-iter order wrong: %+v", res.PerIter)
		}
	}
	// Persistent tasks: exactly one job, 2*NumTasks tasks, launched once.
	if v.m.Get(metrics.JobsLaunched) != 1 {
		t.Fatalf("jobs launched = %d, want 1 (persistent tasks)", v.m.Get(metrics.JobsLaunched))
	}
	if v.m.Get(metrics.TasksLaunched) != 6 {
		t.Fatalf("tasks launched = %d, want 6", v.m.Get(metrics.TasksLaunched))
	}
}

func TestHalvingDistanceTermination(t *testing.T) {
	v := newEnv(t, 2, Options{})
	const n = 8
	v.writeState(t, "/state", n)
	// Distance after iteration i is 8 * 2^-i; threshold 0.1 crossed at
	// i=7 (8/128 = 0.0625 < 0.1).
	job := halvingJob("halve-dist", 0, 0.1)
	res, err := v.e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if res.Iterations != 7 {
		t.Fatalf("iterations = %d, want 7", res.Iterations)
	}
	last := res.PerIter[len(res.PerIter)-1]
	if math.Abs(last.Dist-float64(n)/128) > 1e-9 {
		t.Fatalf("final distance %v", last.Dist)
	}
}

func TestSyncAndAsyncAgree(t *testing.T) {
	for _, sync := range []bool{false, true} {
		v := newEnv(t, 3, Options{})
		v.writeState(t, "/state", 50)
		job := halvingJob(fmt.Sprintf("halve-sync-%v", sync), 4, 0)
		job.SyncMap = sync
		res, err := v.e.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		out := v.readOutput(t, res.OutputPath)
		if len(out) != 50 {
			t.Fatalf("sync=%v: %d outputs", sync, len(out))
		}
		for k, val := range out {
			if math.Abs(val.(float64)-1.0/16) > 1e-12 {
				t.Fatalf("sync=%v key %d = %v", sync, k, val)
			}
		}
	}
}

// ringJob exercises the static join and real shuffling: key i sends its
// value to (i+1) mod n via its static "adjacency" record; the reduce
// sums what arrives. After one iteration with all-ones state, every key
// is 1 again (a rotation); we instead make key 0 a source of weight: the
// static for key i holds its successor, and map forwards state*0.5 plus
// emits self-retention 0.5*state. The fixed point is uniform, so we
// check mass conservation and against a sequential simulation.
func ringSetup(t testing.TB, v *env, n int) (*Job, []float64) {
	t.Helper()
	adjOps := kv.OpsFor[int64, int64](nil)
	static := make([]kv.Pair, n)
	state := make([]kv.Pair, n)
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		static[i] = kv.Pair{Key: int64(i), Value: int64((i + 1) % n)}
		val := float64(i + 1)
		state[i] = kv.Pair{Key: int64(i), Value: val}
		vals[i] = val
	}
	if err := v.fs.WriteFile("/ring/static", v.spec.IDs()[0], static, adjOps); err != nil {
		t.Fatal(err)
	}
	if err := v.fs.WriteFile("/ring/state", v.spec.IDs()[0], state, f64Ops()); err != nil {
		t.Fatal(err)
	}
	job := &Job{
		Name:       "ring",
		StatePath:  "/ring/state",
		StaticPath: "/ring/static",
		Map: func(key, state, static any, emit kv.Emit) error {
			val := state.(float64)
			succ := static.(int64)
			emit(succ, val/2)
			emit(key, val/2)
			return nil
		},
		Reduce: func(key any, states []any) (any, error) {
			var sum float64
			for _, s := range states {
				sum += s.(float64)
			}
			return sum, nil
		},
		Ops: f64Ops(),
	}
	return job, vals
}

func ringReference(vals []float64, iters int) []float64 {
	n := len(vals)
	cur := append([]float64(nil), vals...)
	for k := 0; k < iters; k++ {
		next := make([]float64, n)
		for i := 0; i < n; i++ {
			next[i] += cur[i] / 2
			next[(i+1)%n] += cur[i] / 2
		}
		cur = next
	}
	return cur
}

func TestRingDiffusionMatchesReference(t *testing.T) {
	v := newEnv(t, 4, Options{})
	job, vals := ringSetup(t, v, 64)
	job.MaxIter = 9
	res, err := v.e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	want := ringReference(vals, 9)
	out := v.readOutput(t, res.OutputPath)
	if len(out) != 64 {
		t.Fatalf("%d outputs", len(out))
	}
	for i := 0; i < 64; i++ {
		got := out[int64(i)].(float64)
		if math.Abs(got-want[i]) > 1e-9 {
			t.Fatalf("key %d: got %v want %v", i, got, want[i])
		}
	}
	// Static data was shuffled zero times after init: state bytes flow
	// but shuffle carries only the small float payloads.
	if v.m.Get(metrics.ShuffleBytes) == 0 || v.m.Get(metrics.StateBytes) == 0 {
		t.Fatal("expected shuffle and state traffic")
	}
}

func TestRingOnTCPTransport(t *testing.T) {
	spec := cluster.Uniform(2)
	m := metrics.NewSet()
	fs := dfs.New(dfs.Config{BlockSize: 1 << 14, Replication: 2}, spec.IDs(), m)
	e, err := NewEngine(fs, transport.NewTCPNetwork(), spec, m, Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	v := &env{e: e, fs: fs, m: m, spec: spec}
	job, vals := ringSetup(t, v, 16)
	job.MaxIter = 4
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	want := ringReference(vals, 4)
	out := v.readOutput(t, res.OutputPath)
	for i := 0; i < 16; i++ {
		if math.Abs(out[int64(i)].(float64)-want[i]) > 1e-9 {
			t.Fatalf("tcp run diverged at key %d", i)
		}
	}
}

func TestStateLocality(t *testing.T) {
	// One-to-one pairs are co-located: reduce→map state transfer must be
	// entirely local.
	v := newEnv(t, 4, Options{})
	job, _ := ringSetup(t, v, 64)
	job.MaxIter = 5
	if _, err := v.e.Run(job); err != nil {
		t.Fatal(err)
	}
	if v.m.Get(metrics.StateBytes) == 0 {
		t.Fatal("no state traffic measured")
	}
	if got := v.m.Get(metrics.StateRemote); got != 0 {
		t.Fatalf("state transfer crossed workers: %d bytes", got)
	}
}

func TestValidationErrors(t *testing.T) {
	v := newEnv(t, 2, Options{})
	v.writeState(t, "/state", 4)
	cases := []*Job{
		{},
		{Name: "x", StatePath: "/state", Ops: f64Ops()},                                                  // no funcs
		{Name: "x", Map: halvingJob("h", 1, 0).Map, Reduce: halvingJob("h", 1, 0).Reduce, Ops: f64Ops()}, // no state path
		halvingJob("no-term", 0, 0),                                                                      // no termination
	}
	for i, j := range cases {
		if _, err := v.e.Run(j); err == nil {
			t.Errorf("bad job %d accepted", i)
		}
	}
	// Too many tasks for the slots.
	big := halvingJob("big", 2, 0)
	big.NumTasks = 50
	if _, err := v.e.Run(big); err == nil {
		t.Error("slot overflow accepted")
	}
	// OneToAll without static.
	bc := halvingJob("bc", 2, 0)
	bc.Mapping = OneToAll
	if _, err := v.e.Run(bc); err == nil {
		t.Error("OneToAll without StaticPath accepted")
	}
}

// TestNonInt64KeysRejected: every phase runs the column loops, whose key
// column is int64. A job whose Ops — on its first phase, a successor or
// its auxiliary phase — keys by another type is refused with ErrKeyType
// before it runs, and a map that emits a key of another type fails the
// run with it.
func TestNonInt64KeysRejected(t *testing.T) {
	v := newEnv(t, 2, Options{})
	v.writeState(t, "/state", 4)
	stringKeys := func(j *Job) *Job { j.Ops = kv.OpsFor[string, float64](nil); return j }
	first := stringKeys(halvingJob("keys-first", 2, 0))
	successor := halvingJob("keys-successor", 2, 0)
	successor.AddSuccessor(stringKeys(halvingJob("keys-successor-2", 2, 0)))
	auxiliary := halvingJob("keys-aux", 2, 0)
	auxiliary.AddAuxiliary(stringKeys(halvingJob("keys-aux-watch", 0, 0)))
	auxiliary.AuxDecide = func(int, []kv.Pair) bool { return false }
	for _, j := range []*Job{first, successor, auxiliary} {
		if res, err := v.e.Run(j); !errors.Is(err, ErrKeyType) || res != nil {
			t.Errorf("%s: run error %v, want ErrKeyType", j.Name, err)
		}
	}
	emits := halvingJob("keys-emitted", 2, 0)
	emits.Map = func(key, state, static any, emit kv.Emit) error {
		emit(fmt.Sprint(key), state)
		return nil
	}
	if _, err := v.e.Run(emits); err == nil || !strings.Contains(err.Error(), ErrKeyType.Error()) {
		t.Errorf("a map emitting string keys: run error %v, want ErrKeyType's", err)
	}
}

func TestUserErrorPropagates(t *testing.T) {
	v := newEnv(t, 2, Options{})
	v.writeState(t, "/state", 4)
	job := halvingJob("boom", 5, 0)
	job.Reduce = func(key any, states []any) (any, error) {
		return nil, fmt.Errorf("kaboom")
	}
	if _, err := v.e.Run(job); err == nil {
		t.Fatal("expected reduce error")
	}
}

func TestUserMapErrorPropagates(t *testing.T) {
	v := newEnv(t, 2, Options{})
	v.writeState(t, "/state", 4)
	job := halvingJob("boom-map", 5, 0)
	job.Map = func(key, state, static any, emit kv.Emit) error {
		return fmt.Errorf("map kaboom")
	}
	if _, err := v.e.Run(job); err == nil {
		t.Fatal("expected map error")
	}
}

// TestEarlyErrorLeaksNothing: a run that fails before any task is
// spawned — no manifest to resume from, no state file to partition —
// leaves no goroutine behind.
func TestEarlyErrorLeaksNothing(t *testing.T) {
	defer leaktest.Check(t)()
	v := newEnv(t, 2, Options{})
	if _, err := v.e.Resume(halvingJob("early", 4, 0)); err == nil {
		t.Fatal("Resume with no manifest succeeded")
	}
	if _, err := v.e.Run(halvingJob("early", 4, 0)); err == nil {
		t.Fatal("Run with no state file succeeded")
	}
}

func TestCombineErrorPropagates(t *testing.T) {
	v := newEnv(t, 2, Options{})
	v.writeState(t, "/state", 40)
	job := halvingJob("boom-combine", 5, 0)
	job.BufferThreshold = 4 // force combiner invocations on small chunks
	job.Map = func(key, state, static any, emit kv.Emit) error {
		// Duplicate keys so chunks actually shrink; the combiner is
		// skipped on all-unique chunks (it could not reduce them).
		emit(key, state)
		emit(key, state)
		return nil
	}
	job.Combine = func(key any, values []any) (any, error) {
		return nil, fmt.Errorf("combine kaboom")
	}
	if _, err := v.e.Run(job); err == nil {
		t.Fatal("expected combine error")
	}
}

func TestEngineAccessors(t *testing.T) {
	v := newEnv(t, 2, Options{})
	if v.e.FS() != v.fs {
		t.Fatal("FS accessor")
	}
	if len(v.e.Spec().Nodes) != 2 {
		t.Fatal("Spec accessor")
	}
}

func TestNumTasksMoreThanWorkers(t *testing.T) {
	spec := cluster.Uniform(2)
	spec.MapSlots, spec.ReduceSlots = 4, 4
	v := newEnvSpec(t, spec, Options{})
	v.writeState(t, "/state", 30)
	job := halvingJob("many-tasks", 3, 0)
	job.NumTasks = 7
	res, err := v.e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	out := v.readOutput(t, res.OutputPath)
	if len(out) != 30 {
		t.Fatalf("%d outputs", len(out))
	}
	for _, val := range out {
		if math.Abs(val.(float64)-1.0/8) > 1e-12 {
			t.Fatalf("wrong value %v", val)
		}
	}
}

// TestPartitionToDFSFiles pins the part files the one-time partitioning
// writes: a 4-part and a 3-part split of a multi-block input of 5 000
// int64-keyed records hold exactly the records, in the order, they did
// before each part was presized from the splits' record counts. The
// checksums were taken on the tree before the presizing.
func TestPartitionToDFSFiles(t *testing.T) {
	spec := cluster.Uniform(4)
	fs := dfs.New(dfs.Config{BlockSize: 1 << 15}, spec.IDs(), nil)
	ops := kv.OpsFor[int64, float64](nil)
	in := make([]kv.Pair, 5000)
	for i := range in {
		in[i] = kv.Pair{Key: int64(i*7919%5003 - 100), Value: float64(i) / 3}
	}
	if err := fs.WriteFile("/in", "", in, ops); err != nil {
		t.Fatal(err)
	}
	if splits, _ := fs.Splits("/in"); len(splits) < 2 {
		t.Fatalf("input in %d blocks, want several", len(splits))
	}
	net := transport.NewChanNetwork()
	defer net.Close()
	e, err := NewEngine(fs, net, spec, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int][]uint32{
		4: {0x182cabf9, 0x8e1294dc, 0x6c521515, 0xe0e76c55},
		3: {0xae8584b7, 0x5d357c34, 0x1fa86013},
	}
	for _, parts := range []int{4, 3} {
		run := newRunState(runMeta{Name: "parts", MainPhases: 1, MainTasks: parts, Placement: spec.IDs()})
		path := func(i int) string { return fmt.Sprintf("/out-%d/part-%d", parts, i) }
		if err := e.partitionToDFS("/in", ops, parts, run, path, false); err != nil {
			t.Fatal(err)
		}
		for i := range parts {
			sum, err := fs.Checksum(path(i))
			if err != nil {
				t.Fatal(err)
			}
			if sum != want[parts][i] {
				t.Errorf("%d parts: part %d checksum %#08x, want %#08x", parts, i, sum, want[parts][i])
			}
		}
	}
}
