package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"imapreduce/internal/cluster"
	"imapreduce/internal/dfs"
	"imapreduce/internal/kv"
	"imapreduce/internal/metrics"
	"imapreduce/internal/transport"
)

// TestBroadcastOnTCP runs the OneToAll path over real sockets: the
// broadcast chunks and the pair lists nested in them must survive the
// wire.
func TestBroadcastOnTCP(t *testing.T) {
	guard(t, 2*time.Minute)
	spec := cluster.Uniform(2)
	m := metrics.NewSet()
	fs := dfs.New(dfs.Config{BlockSize: 1 << 14, Replication: 2}, spec.IDs(), m)
	e, err := NewEngine(fs, transport.NewTCPNetwork(), spec, m, Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	v := &env{e: e, fs: fs, m: m, spec: spec}

	var points []kv.Pair
	for i := 0; i < 12; i++ {
		points = append(points, kv.Pair{Key: int64(i), Value: float64(i * 10)})
	}
	if err := fs.WriteFile("/b/points", "worker-0", points, f64Ops()); err != nil {
		t.Fatal(err)
	}
	cents := []kv.Pair{{Key: int64(0), Value: 5.0}, {Key: int64(1), Value: 100.0}}
	if err := fs.WriteFile("/b/cents", "worker-0", cents, f64Ops()); err != nil {
		t.Fatal(err)
	}
	job := &Job{
		Name: "tcp-broadcast", StatePath: "/b/cents", StaticPath: "/b/points",
		Mapping: OneToAll,
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
		MaxIter: 4,
		Ops:     f64Ops(),
	}
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	out := v.readOutput(t, res.OutputPath)
	if len(out) != 2 {
		t.Fatalf("%d centroids over TCP", len(out))
	}
}

// TestMultiPhaseOnTCP chains two phases over real sockets.
func TestMultiPhaseOnTCP(t *testing.T) {
	guard(t, 2*time.Minute)
	spec := cluster.Uniform(2)
	m := metrics.NewSet()
	fs := dfs.New(dfs.Config{BlockSize: 1 << 14, Replication: 2}, spec.IDs(), m)
	e, err := NewEngine(fs, transport.NewTCPNetwork(), spec, m, Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	v := &env{e: e, fs: fs, m: m, spec: spec}
	v.writeState(t, "/mp/state", 8)
	id := func(key, state, static any, emit kv.Emit) error {
		emit(key, state)
		return nil
	}
	p1 := &Job{Name: "tcp-mp", StatePath: "/mp/state", Map: id,
		Reduce: func(key any, states []any) (any, error) { return states[0].(float64) * 3, nil },
		Ops:    f64Ops()}
	p2 := &Job{Name: "tcp-mp2", Map: id,
		Reduce:  func(key any, states []any) (any, error) { return states[0].(float64) - 1, nil },
		MaxIter: 3, Ops: f64Ops()}
	p1.AddSuccessor(p2)
	res, err := e.Run(p1)
	if err != nil {
		t.Fatal(err)
	}
	// x -> 3x-1, three times from 1: 2, 5, 14.
	out := v.readOutput(t, res.OutputPath)
	for k, val := range out {
		if math.Abs(val.(float64)-14) > 1e-12 {
			t.Fatalf("key %v = %v, want 14", k, val)
		}
	}
}

// opaqueVal has no kv value codec: no record holding it can cross a
// socket or reach a disk.
type opaqueVal struct {
	S string
	F []float64
}

// TestRecordWithoutCodecFailsRun: over TCP, a map that emits a value
// type with no codec fails the run at once with an error naming the type
// — no rollback, no wait for the no-progress timeout. (The transport's
// TestTCPBinaryAndGobFrames pins that the refused send is not retried.)
func TestRecordWithoutCodecFailsRun(t *testing.T) {
	guard(t, 2*time.Minute)
	spec := cluster.Uniform(2)
	m := metrics.NewSet()
	fs := dfs.New(dfs.Config{BlockSize: 1 << 14, Replication: 2}, spec.IDs(), m)
	e, err := NewEngine(fs, transport.NewTCPNetwork(), spec, m, Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	v := &env{e: e, fs: fs, m: m, spec: spec}
	v.writeState(t, "/nc/state", 10)
	job := &Job{
		Name: "tcp-no-codec", StatePath: "/nc/state",
		Map: func(key, state, static any, emit kv.Emit) error {
			emit(key, opaqueVal{S: "v", F: []float64{state.(float64)}})
			return nil
		},
		Reduce: func(key any, states []any) (any, error) {
			return states[0].(opaqueVal).F[0], nil
		},
		MaxIter: 3,
		Ops:     f64Ops(),
	}
	start := time.Now()
	_, err = e.Run(job)
	if err == nil {
		t.Fatal("a shuffle of values with no codec ran to completion")
	}
	if !strings.Contains(err.Error(), "core.opaqueVal") {
		t.Fatalf("run error does not name the value type: %v", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("run took %v to fail", d)
	}
	if f := m.Get(metrics.FailuresDetected); f != 0 {
		t.Fatalf("%d workers declared failed over an unencodable chunk", f)
	}
}

// TestCheckpointWithoutCodecFailsRun: over channels, where no chunk is
// encoded, state holding a type with no codec still fails the run with
// an error naming the type as soon as it must reach the DFS — at
// manifest 0 when the initial state holds it, at the first checkpoint
// when the reduce starts producing it, whether that checkpoint's
// records are spilled or only checksummed.
func TestCheckpointWithoutCodecFailsRun(t *testing.T) {
	guard(t, 2*time.Minute)
	for _, tc := range []struct {
		name      string
		spill     bool
		initial   any
		wantInErr string
	}{
		{"initial-state", false, opaqueVal{S: "v"}, "manifest 0"},
		{"checkpoint", false, 1.0, "manifest "},
		{"spilled-checkpoint", true, 1.0, ": checkpoint "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := cluster.Uniform(2)
			m := metrics.NewSet()
			cfg := dfs.Config{BlockSize: 1 << 14, Replication: 2}
			if tc.spill {
				cfg.SpillDir = t.TempDir()
			}
			fs := dfs.New(cfg, spec.IDs(), m)
			e, err := NewEngine(fs, transport.NewChanNetwork(), spec, m, Options{Timeout: 30 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			state := make([]kv.Pair, 10)
			for i := range state {
				state[i] = kv.Pair{Key: int64(i), Value: tc.initial}
			}
			if err := fs.WriteFile("/nc/state", "worker-0", state, f64Ops()); err != nil {
				t.Fatal(err)
			}
			job := &Job{
				Name: "ckpt-no-codec-" + tc.name, StatePath: "/nc/state",
				Map: func(key, state, static any, emit kv.Emit) error {
					emit(key, state)
					return nil
				},
				Reduce: func(key any, states []any) (any, error) {
					return opaqueVal{S: "v"}, nil
				},
				MaxIter:         4,
				CheckpointEvery: 1,
				Ops:             f64Ops(),
			}
			start := time.Now()
			_, err = e.Run(job)
			if err == nil || !strings.Contains(err.Error(), "core.opaqueVal") || !strings.Contains(err.Error(), tc.wantInErr) {
				t.Fatalf("run error %v, want one naming core.opaqueVal at %s", err, tc.wantInErr)
			}
			if d := time.Since(start); d > 10*time.Second {
				t.Fatalf("run took %v to fail", d)
			}
		})
	}
}

// TestDiskBackedDFS runs a full job (including checkpoints and final
// output) over a DFS that spills every block to disk in the kv wire
// codec — the paper's file-backed storage mode.
func TestDiskBackedDFS(t *testing.T) {
	guard(t, 2*time.Minute)
	spec := cluster.Uniform(2)
	m := metrics.NewSet()
	fs := dfs.New(dfs.Config{BlockSize: 1 << 12, Replication: 2, SpillDir: t.TempDir()}, spec.IDs(), m)
	e, err := NewEngine(fs, transport.NewChanNetwork(), spec, m, Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	v := &env{e: e, fs: fs, m: m, spec: spec}
	job, vals := ringSetup(t, v, 48)
	job.MaxIter = 6
	job.CheckpointEvery = 2
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	want := ringReference(vals, 6)
	out := v.readOutput(t, res.OutputPath)
	for i := 0; i < 48; i++ {
		if math.Abs(out[int64(i)].(float64)-want[i]) > 1e-9 {
			t.Fatalf("disk-backed run diverged at key %d", i)
		}
	}
	if m.Get(metrics.Checkpoints) == 0 {
		t.Fatal("no checkpoints written through the disk path")
	}
}

// TestRepeatedFailures injects two worker failures at different points
// of one run; the result must still be exact and every failure must be
// recovered.
func TestRepeatedFailures(t *testing.T) {
	guard(t, 2*time.Minute)
	v := newEnv(t, 4, Options{})
	v.writeState(t, "/state", 30)
	job := slowHalvingJob("halve-two-failures", 12, 2)

	go func() {
		for _, w := range []string{"worker-1", "worker-3"} {
			deadline := time.After(5 * time.Second)
			for {
				select {
				case <-deadline:
					return
				default:
				}
				if err := v.e.FailWorker(w); err == nil {
					break
				}
				time.Sleep(500 * time.Microsecond)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	res, err := v.e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 2 {
		t.Fatalf("recoveries = %d, want 2", res.Recoveries)
	}
	out := v.readOutput(t, res.OutputPath)
	if len(out) != 30 {
		t.Fatalf("%d outputs", len(out))
	}
	for k, val := range out {
		if math.Abs(val.(float64)-math.Pow(2, -12)) > 1e-16 {
			t.Fatalf("key %d = %v", k, val)
		}
	}
}

// TestFailureDuringDistanceTermination: recovery must not confuse the
// distance-based convergence decision.
func TestFailureDuringDistanceTermination(t *testing.T) {
	guard(t, 2*time.Minute)
	v := newEnv(t, 3, Options{})
	v.writeState(t, "/state", 16)
	job := halvingJob("halve-fail-dist", 0, 0.05) // converges at iter 9: 16*2^-9 < 0.05
	job.CheckpointEvery = 2
	base := job.Reduce
	job.Reduce = func(key any, states []any) (any, error) {
		time.Sleep(300 * time.Microsecond)
		return base(key, states)
	}
	go func() {
		deadline := time.After(5 * time.Second)
		for {
			select {
			case <-deadline:
				return
			default:
			}
			if err := v.e.FailWorker("worker-0"); err == nil {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	res, err := v.e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge after failure")
	}
	if res.Iterations != 9 {
		t.Fatalf("converged at %d, want 9", res.Iterations)
	}
	out := v.readOutput(t, res.OutputPath)
	for k, val := range out {
		if math.Abs(val.(float64)-math.Pow(2, -9)) > 1e-15 {
			t.Fatalf("key %d = %v", k, val)
		}
	}
}

// TestAllWorkersFail: the run must abort with an error, not hang.
func TestAllWorkersFail(t *testing.T) {
	guard(t, 2*time.Minute)
	v := newEnv(t, 2, Options{Timeout: 10 * time.Second})
	v.writeState(t, "/state", 10)
	job := slowHalvingJob("halve-all-fail", 50, 2)
	go func() {
		for _, w := range []string{"worker-0", "worker-1"} {
			deadline := time.After(3 * time.Second)
			for {
				select {
				case <-deadline:
					return
				default:
				}
				if err := v.e.FailWorker(w); err == nil {
					break
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()
	if _, err := v.e.Run(job); err == nil {
		t.Fatal("run should fail when every worker is dead")
	}
}

// TestManyTasksManyIterations is a soak test: 12 pairs on 3 workers,
// 30 iterations, full async, verifying exactness end to end.
func TestManyTasksManyIterations(t *testing.T) {
	guard(t, 2*time.Minute)
	spec := cluster.Uniform(3)
	spec.MapSlots, spec.ReduceSlots = 4, 4
	v := newEnvSpec(t, spec, Options{})
	v.writeState(t, "/state", 200)
	job := halvingJob("halve-soak", 30, 0)
	job.NumTasks = 12
	job.BufferThreshold = 7 // force many partial chunks
	res, err := v.e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	out := v.readOutput(t, res.OutputPath)
	if len(out) != 200 {
		t.Fatalf("%d outputs", len(out))
	}
	want := math.Pow(2, -30)
	for k, val := range out {
		if math.Abs(val.(float64)-want) > want*1e-9 {
			t.Fatalf("key %d = %v", k, val)
		}
	}
	if len(res.PerIter) != 30 {
		t.Fatalf("per-iter: %d", len(res.PerIter))
	}
}

// TestBufferThresholdValues: results are identical across buffer
// thresholds (the §3.3 buffering is a performance knob, not semantics).
func TestBufferThresholdValues(t *testing.T) {
	guard(t, 2*time.Minute)
	var ref map[int64]any
	for _, thresh := range []int{1, 3, 1024} {
		v := newEnv(t, 2, Options{})
		v.writeState(t, "/state", 40)
		job, _ := ringSetup(t, v, 40)
		job.MaxIter = 5
		job.BufferThreshold = thresh
		job.Name = fmt.Sprintf("ring-buf-%d", thresh)
		res, err := v.e.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		out := v.readOutput(t, res.OutputPath)
		if ref == nil {
			ref = out
			continue
		}
		for k, val := range out {
			if math.Abs(val.(float64)-ref[k].(float64)) > 1e-12 {
				t.Fatalf("threshold %d changed result at key %v", thresh, k)
			}
		}
	}
}
