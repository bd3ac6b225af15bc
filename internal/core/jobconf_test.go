package core

import (
	"math"
	"strings"
	"testing"

	"imapreduce/internal/kv"
)

func TestJobConfBuild(t *testing.T) {
	conf := NewJobConf("pr").
		Set(KeyStatePath, "/state").
		Set(KeyStaticPath, "/static").
		Set(KeyOutputPath, "/out").
		SetInt(KeyMaxIter, 7).
		SetFloat(KeyDistThresh, 0.01).
		SetBool(KeySync, true).
		SetInt(KeyNumTasks, 3).
		SetInt(KeyBuffer, 128).
		SetInt(KeyCheckpoint, 2).
		SetMap(func(key, state, static any, emit kv.Emit) error { return nil }).
		SetReduce(func(key any, states []any) (any, error) { return nil, nil }).
		SetDistance(func(key, prev, curr any) float64 { return 0 }).
		SetOps(kv.OpsFor[int64, float64](nil))
	job, err := conf.Build()
	if err != nil {
		t.Fatal(err)
	}
	if job.Name != "pr" || job.StatePath != "/state" || job.StaticPath != "/static" ||
		job.OutputPath != "/out" || job.MaxIter != 7 || job.DistThreshold != 0.01 ||
		!job.SyncMap || job.NumTasks != 3 || job.BufferThreshold != 128 || job.CheckpointEvery != 2 {
		t.Fatalf("job misconfigured: %+v", job)
	}
}

func TestJobConfStringForms(t *testing.T) {
	conf := NewJobConf("x").
		Set(KeyMaxIter, "9").
		Set(KeyDistThresh, "0.5").
		Set(KeySync, "true").
		Set(KeyMapping, "one2all")
	job, err := conf.Build()
	if err != nil {
		t.Fatal(err)
	}
	if job.MaxIter != 9 || job.DistThreshold != 0.5 || !job.SyncMap || job.Mapping != OneToAll {
		t.Fatalf("string forms misparsed: %+v", job)
	}
}

func TestJobConfErrors(t *testing.T) {
	cases := []*JobConf{
		NewJobConf("a").Set("bogus.key", "v"),
		NewJobConf("b").Set(KeyMaxIter, "notanumber"),
		NewJobConf("c").Set(KeyDistThresh, "x"),
		NewJobConf("d").Set(KeySync, "maybe"),
		NewJobConf("e").Set(KeyMapping, "one2many"),
		NewJobConf("f").SetInt(KeyDistThresh, 1),
		NewJobConf("g").SetFloat(KeyMaxIter, 1),
		NewJobConf("h").SetBool(KeyMaxIter, true),
	}
	for i, c := range cases {
		if _, err := c.Build(); err == nil {
			t.Errorf("case %d: bad configuration accepted", i)
		}
	}
}

// TestZeroOpsRejected: a job whose Ops did not come from kv.OpsFor is
// refused before the run starts, and the error says where Ops come from.
func TestZeroOpsRejected(t *testing.T) {
	job, err := NewJobConf("no-ops").
		Set(KeyStatePath, "/state").
		SetMap(func(key, state, static any, emit kv.Emit) error { return nil }).
		SetReduce(func(key any, states []any) (any, error) { return nil, nil }).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	v := newEnv(t, 1, Options{})
	if _, err := v.e.Run(job); err == nil || !strings.Contains(err.Error(), "kv.OpsFor") {
		t.Fatalf("zero Ops: Run error %v, want one naming kv.OpsFor", err)
	}
}

func TestJobConfUnknownKeySuggestion(t *testing.T) {
	_, err := NewJobConf("t").Set("mapred.iterjob.statepaths", "/s").Build()
	if err == nil {
		t.Fatal("misspelled key accepted")
	}
	if !strings.Contains(err.Error(), string(KeyStatePath)) {
		t.Fatalf("no suggestion in error: %v", err)
	}
	// Keys far from any mapred.* key get no guess.
	_, err = NewJobConf("t").Set("bogus.key", "v").Build()
	if err == nil || strings.Contains(err.Error(), "did you mean") {
		t.Fatalf("unexpected suggestion: %v", err)
	}
}

func TestJobConfJoinsAllErrors(t *testing.T) {
	_, err := NewJobConf("t").
		Set("bogus.key", "v").
		Set(KeyMaxIter, "notanumber").
		Build()
	if err == nil {
		t.Fatal("errors swallowed")
	}
	msg := err.Error()
	if !strings.Contains(msg, "bogus.key") || !strings.Contains(msg, "notanumber") {
		t.Fatalf("Build dropped an error: %v", err)
	}
}

func TestJobConfChaining(t *testing.T) {
	p2 := NewJobConf("p2").
		SetMap(func(key, state, static any, emit kv.Emit) error { return nil }).
		SetReduce(func(key any, states []any) (any, error) { return nil, nil }).
		SetInt(KeyMaxIter, 3).
		SetOps(kv.OpsFor[int64, float64](nil))
	p1 := NewJobConf("p1").
		Set(KeyStatePath, "/state").
		SetMap(func(key, state, static any, emit kv.Emit) error { return nil }).
		SetReduce(func(key any, states []any) (any, error) { return nil, nil }).
		SetOps(kv.OpsFor[int64, float64](nil)).
		AddSuccessor(p2)
	job, err := p1.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(job.Phases()) != 2 || job.Phases()[1].Name != "p2" {
		t.Fatalf("successor lost: %v", job.Phases())
	}
	// Errors in a successor surface at the root.
	bad := NewJobConf("bad").Set("nope", "x")
	root := NewJobConf("root").AddSuccessor(bad)
	if _, err := root.Build(); err == nil {
		t.Fatal("successor error swallowed")
	}
}

func TestJobConfCombineAndAuxiliary(t *testing.T) {
	aux := NewJobConf("watch").
		SetMap(func(key, state, static any, emit kv.Emit) error { return nil }).
		SetReduce(func(key any, states []any) (any, error) { return nil, nil }).
		SetOps(kv.OpsFor[int64, float64](nil))
	conf := NewJobConf("main").
		Set(KeyStatePath, "/s").
		SetMap(func(key, state, static any, emit kv.Emit) error { return nil }).
		SetReduce(func(key any, states []any) (any, error) { return nil, nil }).
		SetCombine(func(key any, values []any) (any, error) { return values[0], nil }).
		SetOps(kv.OpsFor[int64, float64](nil)).
		AddAuxiliary(aux, func(iter int, outputs []kv.Pair) bool { return true })
	job, err := conf.Build()
	if err != nil {
		t.Fatal(err)
	}
	if job.Combine == nil || job.auxiliary == nil || job.AuxDecide == nil {
		t.Fatal("combine/auxiliary not attached")
	}
	// Aux configuration errors surface at the root.
	badAux := NewJobConf("bad").Set("nope", "x")
	root := NewJobConf("root").AddAuxiliary(badAux, nil)
	if _, err := root.Build(); err == nil {
		t.Fatal("auxiliary error swallowed")
	}
}

// TestJobConfEndToEnd runs a JobConf-assembled job on the engine, the
// way the paper's Fig. 3 example is written.
func TestJobConfEndToEnd(t *testing.T) {
	v := newEnv(t, 2, Options{})
	v.writeState(t, "/state", 10)
	conf := NewJobConf("conf-halve").
		Set(KeyStatePath, "/state").
		SetInt(KeyMaxIter, 4).
		SetMap(func(key, state, static any, emit kv.Emit) error {
			emit(key, state)
			return nil
		}).
		SetReduce(func(key any, states []any) (any, error) {
			return states[0].(float64) / 2, nil
		}).
		SetOps(f64Ops())
	job, err := conf.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := v.e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	out := v.readOutput(t, res.OutputPath)
	for k, val := range out {
		if math.Abs(val.(float64)-1.0/16) > 1e-12 {
			t.Fatalf("key %d = %v", k, val)
		}
	}
}
