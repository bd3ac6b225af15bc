package core

import (
	"math"
	"testing"
	"time"

	"imapreduce/internal/cluster"
	"imapreduce/internal/kv"
	"imapreduce/internal/metrics"
)

// TestOneToAllBroadcast runs a miniature K-means (1-D, two well-separated
// clusters) through the broadcast path: reduce output (centroids) is
// broadcast to every map task; maps assign their static points to the
// nearest centroid.
func TestOneToAllBroadcast(t *testing.T) {
	v := newEnv(t, 3, Options{})
	res, err := v.e.Run(miniKMeans(t, v))
	if err != nil {
		t.Fatal(err)
	}
	out := v.readOutput(t, res.OutputPath)
	if len(out) != 2 {
		t.Fatalf("got %d centroids", len(out))
	}
	if math.Abs(out[0].(float64)-4.5) > 1e-9 || math.Abs(out[1].(float64)-104.5) > 1e-9 {
		t.Fatalf("centroids: %v", out)
	}
	// Broadcast means reduce output crossed workers.
	if v.m.Get(metrics.StateRemote) == 0 {
		t.Fatal("broadcast produced no cross-worker state traffic")
	}
}

// miniKMeans writes the inputs of a 1-D K-means with two well-separated
// clusters and returns the OneToAll job over them; its centroids settle
// at 4.5 and 104.5.
func miniKMeans(t *testing.T, v *env) *Job {
	t.Helper()
	// Static: 20 points at 0..9 and 100..109. State: centroids 1 and 101.
	var points []kv.Pair
	for i := 0; i < 10; i++ {
		points = append(points, kv.Pair{Key: int64(i), Value: float64(i)})
		points = append(points, kv.Pair{Key: int64(100 + i), Value: float64(100 + i)})
	}
	if err := v.fs.WriteFile("/km/points", "worker-0", points, f64Ops()); err != nil {
		t.Fatal(err)
	}
	cents := []kv.Pair{{Key: int64(0), Value: 1.0}, {Key: int64(1), Value: 101.0}}
	if err := v.fs.WriteFile("/km/cents", "worker-0", cents, f64Ops()); err != nil {
		t.Fatal(err)
	}
	return &Job{
		Name:       "mini-kmeans",
		StatePath:  "/km/cents",
		StaticPath: "/km/points",
		Mapping:    OneToAll,
		Map: func(key, state, static any, emit kv.Emit) error {
			coord := static.(float64)
			best, bestD := int64(-1), math.MaxFloat64
			for _, c := range state.([]kv.Pair) {
				if d := math.Abs(c.Value.(float64) - coord); d < bestD {
					best, bestD = c.Key.(int64), d
				}
			}
			emit(best, coord)
			return nil
		},
		Reduce: func(key any, states []any) (any, error) {
			var sum float64
			for _, s := range states {
				sum += s.(float64)
			}
			return sum / float64(len(states)), nil
		},
		MaxIter: 5,
		Ops:     f64Ops(),
	}
}

// TestMultiPhase chains two map-reduce phases per iteration (x → 2x+1)
// via AddSuccessor, the paper's matrix-power structure.
func TestMultiPhase(t *testing.T) {
	v := newEnv(t, 2, Options{})
	v.writeState(t, "/state", 12)
	identityMap := func(key, state, static any, emit kv.Emit) error {
		emit(key, state)
		return nil
	}
	phase1 := &Job{
		Name: "affine", StatePath: "/state",
		Map: identityMap,
		Reduce: func(key any, states []any) (any, error) {
			return states[0].(float64) * 2, nil
		},
		Ops: f64Ops(),
	}
	phase2 := &Job{
		Name: "affine-p2",
		Map:  identityMap,
		Reduce: func(key any, states []any) (any, error) {
			return states[0].(float64) + 1, nil
		},
		MaxIter: 3,
		Ops:     f64Ops(),
	}
	phase1.AddSuccessor(phase2)
	res, err := v.e.Run(phase1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 3 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
	// x=1: 1→3→7→15.
	out := v.readOutput(t, res.OutputPath)
	if len(out) != 12 {
		t.Fatalf("%d outputs", len(out))
	}
	for k, val := range out {
		if math.Abs(val.(float64)-15) > 1e-12 {
			t.Fatalf("key %d = %v, want 15", k, val)
		}
	}
}

// TestMultiPhaseBothStatics joins static data at both phases: phase 1
// multiplies by a per-key factor, phase 2 adds a per-key offset.
func TestMultiPhaseBothStatics(t *testing.T) {
	v := newEnv(t, 2, Options{})
	const n = 10
	v.writeState(t, "/state", n)
	factors := make([]kv.Pair, n)
	offsets := make([]kv.Pair, n)
	for i := 0; i < n; i++ {
		factors[i] = kv.Pair{Key: int64(i), Value: 2.0}
		offsets[i] = kv.Pair{Key: int64(i), Value: float64(i)}
	}
	if err := v.fs.WriteFile("/factors", "worker-0", factors, f64Ops()); err != nil {
		t.Fatal(err)
	}
	if err := v.fs.WriteFile("/offsets", "worker-0", offsets, f64Ops()); err != nil {
		t.Fatal(err)
	}
	p1 := &Job{
		Name: "both-statics", StatePath: "/state", StaticPath: "/factors",
		Map: func(key, state, static any, emit kv.Emit) error {
			emit(key, state.(float64)*static.(float64))
			return nil
		},
		Reduce: func(key any, states []any) (any, error) { return states[0], nil },
		Ops:    f64Ops(),
	}
	p2 := &Job{
		Name: "both-statics-p2", StaticPath: "/offsets",
		Map: func(key, state, static any, emit kv.Emit) error {
			emit(key, state.(float64)+static.(float64))
			return nil
		},
		Reduce:  func(key any, states []any) (any, error) { return states[0], nil },
		MaxIter: 3,
		Ops:     f64Ops(),
	}
	p1.AddSuccessor(p2)
	res, err := v.e.Run(p1)
	if err != nil {
		t.Fatal(err)
	}
	out := v.readOutput(t, res.OutputPath)
	for i := 0; i < n; i++ {
		// x -> 2x + i, three times from 1: ((1*2+i)*2+i)*2+i = 8 + 7i.
		want := 8 + 7*float64(i)
		if got := out[int64(i)].(float64); math.Abs(got-want) > 1e-12 {
			t.Fatalf("key %d = %v, want %v", i, got, want)
		}
	}
}

// TestAuxiliaryPhase terminates an unbounded halving job through an
// auxiliary phase that watches the state magnitude (§5.3).
func TestAuxiliaryPhase(t *testing.T) {
	v := newEnv(t, 2, Options{})
	v.writeState(t, "/state", 6)
	res, err := v.e.Run(watchedHalvingJob("halve-aux"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("aux decision did not mark convergence")
	}
	// 2^-4 = 0.0625 < 0.1: decidable at iteration 4; applied at the next
	// boundary, so allow a small overshoot but not a runaway.
	if res.Iterations < 4 || res.Iterations > 8 {
		t.Fatalf("iterations = %d, want 4..8", res.Iterations)
	}
	out := v.readOutput(t, res.OutputPath)
	for k, val := range out {
		want := math.Pow(2, -float64(res.Iterations))
		if math.Abs(val.(float64)-want) > 1e-12 {
			t.Fatalf("key %d = %v, want %v", k, val, want)
		}
	}
}

// watchedHalvingJob is halvingJob without a termination condition of its
// own: an auxiliary phase (§5.3) watches the state and stops the job once
// every value is below 0.1.
func watchedHalvingJob(name string) *Job {
	main := halvingJob(name, 0, 0)
	main.AddAuxiliary(&Job{
		Name: name + "-watch",
		Map: func(key, state, static any, emit kv.Emit) error {
			emit(key, state)
			return nil
		},
		Reduce: func(key any, states []any) (any, error) {
			return states[0], nil
		},
		Ops: f64Ops(),
	})
	main.AuxDecide = func(iter int, outputs []kv.Pair) bool {
		for _, p := range outputs {
			if p.Value.(float64) >= 0.1 {
				return false
			}
		}
		return true
	}
	return main
}

// TestAuxiliaryWithMultiPhase attaches a convergence watcher to a
// two-phase chain: the aux phase is fed by the FINAL phase's reduce.
func TestAuxiliaryWithMultiPhase(t *testing.T) {
	spec := cluster.Uniform(2)
	spec.MapSlots, spec.ReduceSlots = 3, 3 // two phases + the aux pair
	v := newEnvSpec(t, spec, Options{})
	v.writeState(t, "/state", 8)
	id := func(key, state, static any, emit kv.Emit) error {
		emit(key, state)
		return nil
	}
	p1 := &Job{Name: "aux-mp", StatePath: "/state", Map: id,
		Reduce: func(key any, states []any) (any, error) { return states[0].(float64) / 2, nil },
		Ops:    f64Ops()}
	p2 := &Job{Name: "aux-mp2", Map: id,
		Reduce: func(key any, states []any) (any, error) { return states[0].(float64) / 2, nil },
		Ops:    f64Ops()}
	p1.AddSuccessor(p2)
	aux := &Job{Name: "aux-mp-watch", Map: id,
		Reduce: func(key any, states []any) (any, error) { return states[0], nil },
		Ops:    f64Ops()}
	p1.AddAuxiliary(aux)
	p1.AuxDecide = func(iter int, outputs []kv.Pair) bool {
		for _, p := range outputs {
			if p.Value.(float64) >= 0.01 {
				return false
			}
		}
		return true
	}
	res, err := v.e.Run(p1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("aux never stopped the chain")
	}
	// Each iteration quarters the value; 4^-k < 0.01 at k=4.
	if res.Iterations < 4 || res.Iterations > 8 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
	out := v.readOutput(t, res.OutputPath)
	want := math.Pow(4, -float64(res.Iterations))
	for k, val := range out {
		if math.Abs(val.(float64)-want) > 1e-15 {
			t.Fatalf("key %d = %v, want %v", k, val, want)
		}
	}
}

// TestMigrationDuringMultiPhase runs load balancing on a two-phase job
// with a slow worker: the whole pair (both phases) must migrate and the
// result must stay exact.
func TestMigrationDuringMultiPhase(t *testing.T) {
	spec := cluster.Heterogeneous([]float64{1, 0.05, 1, 1})
	v := newEnvSpec(t, spec, Options{LoadBalance: true, LBThreshold: 0.5, LBMinIter: 3})
	v.writeState(t, "/state", 24)
	id := func(key, state, static any, emit kv.Emit) error {
		emit(key, state)
		return nil
	}
	p1 := &Job{Name: "mig-mp", StatePath: "/state", Map: id,
		Reduce: func(key any, states []any) (any, error) { return states[0].(float64) * 2, nil },
		Ops:    f64Ops()}
	p2 := &Job{Name: "mig-mp2", Map: id,
		Reduce: func(key any, states []any) (any, error) {
			time.Sleep(400 * time.Microsecond)
			return states[0].(float64) + 1, nil
		},
		MaxIter: 10, CheckpointEvery: 2, Ops: f64Ops()}
	p1.AddSuccessor(p2)
	res, err := v.e.Run(p1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations == 0 {
		t.Fatal("no migration despite 20x-slow worker")
	}
	// x -> 2x+1, ten times from 1: 2^10 + (2^10 - 1) = 2047.
	out := v.readOutput(t, res.OutputPath)
	for k, val := range out {
		if math.Abs(val.(float64)-2047) > 1e-9 {
			t.Fatalf("key %d = %v, want 2047", k, val)
		}
	}
}

// TestAuxMissingDecide rejects an auxiliary phase without AuxDecide.
func TestAuxMissingDecide(t *testing.T) {
	v := newEnv(t, 2, Options{})
	v.writeState(t, "/state", 4)
	main := halvingJob("aux-bad", 3, 0)
	main.AddAuxiliary(halvingJob("aux-watch", 0, 0))
	if _, err := v.e.Run(main); err == nil {
		t.Fatal("expected error")
	}
}

// slowHalvingJob paces iterations so a failure can be injected mid-run.
func slowHalvingJob(name string, maxIter int, ckptEvery int) *Job {
	j := halvingJob(name, maxIter, 0)
	j.CheckpointEvery = ckptEvery
	base := j.Reduce
	j.Reduce = func(key any, states []any) (any, error) {
		time.Sleep(500 * time.Microsecond)
		return base(key, states)
	}
	return j
}

func TestWorkerFailureRecovery(t *testing.T) {
	v := newEnv(t, 3, Options{})
	v.writeState(t, "/state", 24)
	job := slowHalvingJob("halve-fail", 10, 2)

	done := make(chan struct{})
	go func() {
		defer close(done)
		deadline := time.After(5 * time.Second)
		for {
			select {
			case <-deadline:
				return
			default:
			}
			if err := v.e.FailWorker("worker-1"); err == nil {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	res, err := v.e.Run(job)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", res.Recoveries)
	}
	if res.Iterations != 10 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
	out := v.readOutput(t, res.OutputPath)
	if len(out) != 24 {
		t.Fatalf("%d outputs survived the failure", len(out))
	}
	for k, val := range out {
		if math.Abs(val.(float64)-math.Pow(2, -10)) > 1e-15 {
			t.Fatalf("key %d = %v after recovery", k, val)
		}
	}
	if v.m.Get(metrics.Checkpoints) == 0 {
		t.Fatal("no checkpoints written")
	}
}

func TestFailWorkerWithoutRun(t *testing.T) {
	v := newEnv(t, 2, Options{})
	if err := v.e.FailWorker("worker-0"); err == nil {
		t.Fatal("expected error with no active run")
	}
}

func TestLoadBalancingMigration(t *testing.T) {
	// worker-1 runs at 1/20 speed; with load balancing on, its pair
	// should migrate to a fast worker and the run should still be exact.
	spec := cluster.Heterogeneous([]float64{1, 0.05, 1, 1})
	v := newEnvSpec(t, spec, Options{LoadBalance: true, LBThreshold: 0.5, LBMinIter: 3})
	v.writeState(t, "/state", 40)
	job := slowHalvingJob("halve-lb", 8, 2)
	res, err := v.e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations == 0 {
		t.Fatal("no migration despite 20x slow worker")
	}
	if v.m.Get(metrics.TaskMigrations) != int64(res.Migrations) {
		t.Fatal("migration metric mismatch")
	}
	out := v.readOutput(t, res.OutputPath)
	if len(out) != 40 {
		t.Fatalf("%d outputs", len(out))
	}
	for k, val := range out {
		if math.Abs(val.(float64)-math.Pow(2, -8)) > 1e-15 {
			t.Fatalf("key %d = %v after migration", k, val)
		}
	}
}

// TestConfinedLoadBalancing: a pair that is slow because its partition
// is skewed (not because its worker is) must stop migrating after
// MaxPairMigrations moves (§3.4.2's confinement).
func TestConfinedLoadBalancing(t *testing.T) {
	v := newEnvSpec(t, cluster.Uniform(4), Options{LoadBalance: true, LBThreshold: 0.5, LBMinIter: 3})
	v.writeState(t, "/state", 40)
	job := halvingJob("halve-confined", 14, 0)
	job.CheckpointEvery = 2
	ops := f64Ops()
	base := job.Reduce
	job.Reduce = func(key any, states []any) (any, error) {
		if ops.Partition(key, 4) == 0 {
			time.Sleep(2 * time.Millisecond) // partition 0 is heavy wherever it runs
		}
		return base(key, states)
	}
	res, err := v.e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations > MaxPairMigrations {
		t.Fatalf("skewed pair migrated %d times, cap is %d", res.Migrations, MaxPairMigrations)
	}
	out := v.readOutput(t, res.OutputPath)
	for k, val := range out {
		if math.Abs(val.(float64)-math.Pow(2, -14)) > 1e-15 {
			t.Fatalf("key %d = %v after confinement", k, val)
		}
	}
}

func TestLoadBalancingOffNoMigration(t *testing.T) {
	spec := cluster.Heterogeneous([]float64{1, 0.05, 1, 1})
	v := newEnvSpec(t, spec, Options{LoadBalance: false})
	v.writeState(t, "/state", 40)
	job := slowHalvingJob("halve-nolb", 5, 2)
	res, err := v.e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations != 0 {
		t.Fatal("migration happened with load balancing off")
	}
}

func TestConcurrentRunRejected(t *testing.T) {
	v := newEnv(t, 2, Options{})
	v.writeState(t, "/state", 10)
	job := slowHalvingJob("halve-conc", 20, 0)
	errc := make(chan error, 1)
	go func() {
		_, err := v.e.Run(job)
		errc <- err
	}()
	// Wait for the first run to become active, then a second Run must
	// be rejected immediately.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case <-deadline:
			t.Fatal("first run never became active")
		default:
		}
		if err := v.e.FailWorker("nonexistent"); err == nil {
			break // active master exists
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := v.e.Run(halvingJob("second", 1, 0)); err == nil {
		t.Fatal("concurrent run accepted")
	}
	if err := <-errc; err != nil {
		t.Fatalf("first run failed: %v", err)
	}
}

func TestPhasesChain(t *testing.T) {
	a := &Job{Name: "a"}
	b := &Job{Name: "b"}
	c := &Job{Name: "c"}
	a.AddSuccessor(b)
	b.AddSuccessor(c)
	ph := a.Phases()
	if len(ph) != 3 || ph[0] != a || ph[2] != c {
		t.Fatalf("phases: %v", ph)
	}
	// Cycle protection.
	c.AddSuccessor(a)
	defer func() {
		if recover() == nil {
			t.Fatal("cyclic chain should panic")
		}
	}()
	a.Phases()
}

func TestMappingString(t *testing.T) {
	if OneToOne.String() != "one2one" || OneToAll.String() != "one2all" {
		t.Fatal("mapping names")
	}
}
