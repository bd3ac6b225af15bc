package mapreduce

import (
	"context"
	"math"
	"testing"

	"imapreduce/internal/kv"
	"imapreduce/internal/metrics"
)

// decaySpec builds a toy iterative computation: every key's state halves
// each iteration (static payload carried along, as in the paper's
// baseline pattern). Distance is the summed absolute state change, so
// with initial state 1.0 per key the distance after iteration i is
// n * 2^-i, giving a predictable convergence point.
func decaySpec(n int) IterSpec {
	return IterSpec{
		Name:    "decay",
		Input:   "/init",
		WorkDir: "/work",
		Map: func(key, value any, emit kv.Emit) error {
			emit(key, value) // carrier: state + static travel together
			return nil
		},
		Reduce: func(key any, values []any, emit kv.Emit) error {
			v := values[0].(IterValue)
			emit(key, IterValue{State: v.State.(float64) / 2, Static: v.Static})
			return nil
		},
		NumReduce: 2,
		Ops:       kv.OpsFor[int64, IterValue](nil),
		Distance: func(key, prev, curr any) float64 {
			return math.Abs(prev.(IterValue).State.(float64) - curr.(IterValue).State.(float64))
		},
	}
}

func writeDecayInput(t *testing.T, e *Engine, n int) {
	t.Helper()
	recs := make([]kv.Pair, n)
	for i := range recs {
		recs[i] = kv.Pair{Key: int64(i), Value: IterValue{State: 1.0, Static: []int32{1, 2, 3}}}
	}
	if err := e.FS().WriteFile("/init", "worker-0", recs, kv.OpsFor[int64, IterValue](nil)); err != nil {
		t.Fatal(err)
	}
}

func TestIterativeFixedIterations(t *testing.T) {
	e, _, m := testEnv(t, 2, Options{})
	writeDecayInput(t, e, 10)
	spec := decaySpec(10)
	spec.MaxIter = 5
	res, err := RunIterativeCtx(context.Background(), e, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 5 || res.Converged {
		t.Fatalf("iterations=%d converged=%v", res.Iterations, res.Converged)
	}
	// 5 iterations, no check jobs.
	if got := m.Get(metrics.JobsLaunched); got != 5 {
		t.Fatalf("jobs launched = %d, want 5", got)
	}
	// Final state must be 2^-5.
	recs, err := e.FS().ReadFile(res.OutputPath+"/part-0", "worker-0")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if got := r.Value.(IterValue).State.(float64); math.Abs(got-1.0/32) > 1e-12 {
			t.Fatalf("state = %v, want 1/32", got)
		}
	}
}

func TestIterativeDistanceTermination(t *testing.T) {
	e, _, m := testEnv(t, 2, Options{})
	const n = 8
	writeDecayInput(t, e, n)
	spec := decaySpec(n)
	spec.MaxIter = 50
	// Distance after iteration i is n * 2^-i; threshold 0.1 is crossed
	// when 8*2^-i < 0.1, i.e. at i = 7.
	spec.DistThreshold = 0.1
	res, err := RunIterativeCtx(context.Background(), e, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if res.Iterations != 7 {
		t.Fatalf("converged after %d iterations, want 7", res.Iterations)
	}
	// Each iteration ≥2 runs an extra check job: 7 main + 6 checks.
	if got := m.Get(metrics.JobsLaunched); got != 13 {
		t.Fatalf("jobs launched = %d, want 13 (7 main + 6 checks)", got)
	}
	last := res.Stats[len(res.Stats)-1]
	wantDist := float64(n) * math.Pow(2, -7)
	if math.Abs(last.Distance-wantDist) > 1e-9 {
		t.Fatalf("distance = %v, want %v", last.Distance, wantDist)
	}
}

func TestIterativeStatsAccumulate(t *testing.T) {
	e, _, _ := testEnv(t, 2, Options{})
	writeDecayInput(t, e, 4)
	spec := decaySpec(4)
	spec.MaxIter = 3
	res, err := RunIterativeCtx(context.Background(), e, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 3 {
		t.Fatalf("stats count %d", len(res.Stats))
	}
	var cum int64
	for i, st := range res.Stats {
		if st.Iteration != i+1 {
			t.Fatalf("stat %d has iteration %d", i, st.Iteration)
		}
		if st.CumulativeWall < st.JobWall || st.CumulativeExInit > st.CumulativeWall {
			t.Fatalf("inconsistent stats: %+v", st)
		}
		if int64(st.CumulativeWall) <= cum {
			t.Fatalf("cumulative wall not increasing")
		}
		cum = int64(st.CumulativeWall)
		if st.ShuffleBytes <= 0 {
			t.Fatalf("no shuffle bytes in iteration %d", st.Iteration)
		}
	}
	if res.TotalWall != res.Stats[2].CumulativeWall {
		t.Fatal("TotalWall mismatch")
	}
}

func TestIterativeCleansIntermediateOutputs(t *testing.T) {
	e, fs, _ := testEnv(t, 2, Options{})
	writeDecayInput(t, e, 4)
	spec := decaySpec(4)
	spec.MaxIter = 6
	if _, err := RunIterativeCtx(context.Background(), e, spec); err != nil {
		t.Fatal(err)
	}
	if got := fs.List("/work/iter-001/"); len(got) != 0 {
		t.Fatalf("iteration 1 output not cleaned: %v", got)
	}
	if got := fs.List("/work/iter-006/"); len(got) == 0 {
		t.Fatal("final output missing")
	}
}

func TestIterativeKeepOutputs(t *testing.T) {
	e, fs, _ := testEnv(t, 2, Options{})
	writeDecayInput(t, e, 4)
	spec := decaySpec(4)
	spec.MaxIter = 4
	spec.KeepOutputs = true
	if _, err := RunIterativeCtx(context.Background(), e, spec); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if got := fs.List(fmtIterDir("/work", i) + "/"); len(got) == 0 {
			t.Fatalf("iteration %d output missing", i)
		}
	}
}

func fmtIterDir(work string, i int) string {
	return work + "/iter-" + string(rune('0'+i/100%10)) + string(rune('0'+i/10%10)) + string(rune('0'+i%10))
}

func TestIterativeSpecValidation(t *testing.T) {
	e, _, _ := testEnv(t, 1, Options{})
	if _, err := RunIterativeCtx(context.Background(), e, IterSpec{Name: "x"}); err == nil {
		t.Fatal("spec without termination accepted")
	}
	if _, err := RunIterativeCtx(context.Background(), e, IterSpec{Name: "x", DistThreshold: 0.1}); err == nil {
		t.Fatal("spec with threshold but no Distance accepted")
	}
}

func TestIterValueBytes(t *testing.T) {
	v := IterValue{State: 1.0, Static: []int32{1, 2}}
	if v.Bytes() != 8+12 {
		t.Fatalf("IterValue.Bytes = %d", v.Bytes())
	}
	tg := Tagged{Src: 1, Val: 2.0}
	if tg.Bytes() != 9 {
		t.Fatalf("Tagged.Bytes = %d", tg.Bytes())
	}
}
