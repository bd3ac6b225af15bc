package sssp

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"imapreduce/internal/enginetest"
	"imapreduce/internal/graph"
	"imapreduce/internal/mapreduce"
)

func testGraph(n int, seed int64) *graph.Graph {
	return graph.Generate(graph.GenConfig{
		Nodes: n, Degree: graph.SSSPDegree, Weighted: true,
		Weight: graph.SSSPWeight, Seed: seed,
	})
}

func TestBellmanFordMatchesDijkstraWhenConverged(t *testing.T) {
	g := testGraph(300, 1)
	bf, converged := BellmanFord(g, 0, 1000)
	if converged == 0 {
		t.Fatal("BF did not converge in 1000 iterations")
	}
	dj := Dijkstra(g, 0)
	for i := range bf {
		if !floatEq(bf[i], dj[i]) {
			t.Fatalf("node %d: BF %v, Dijkstra %v", i, bf[i], dj[i])
		}
	}
}

func floatEq(a, b float64) bool {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	return math.Abs(a-b) < 1e-6
}

func TestIMRMatchesBellmanFord(t *testing.T) {
	env, err := enginetest.New(3)
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(250, 2)
	if err := WriteInputs(env.FS, env.At(), g, 0, "/g/static", "/g/state"); err != nil {
		t.Fatal(err)
	}
	const iters = 6
	res, err := env.Core.Run(IMRJob(IMRConfig{
		Name: "sssp", StaticPath: "/g/static", StatePath: "/g/state",
		MaxIter: iters,
	}))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := BellmanFord(g, 0, iters)
	out, err := env.ReadDir(res.OutputPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != g.N {
		t.Fatalf("%d outputs for %d nodes", len(out), g.N)
	}
	for i := 0; i < g.N; i++ {
		if got := out[int64(i)].(float64); !floatEq(got, want[i]) {
			t.Fatalf("node %d: engine %v, reference %v", i, got, want[i])
		}
	}
}

func TestIMRConvergesToDijkstra(t *testing.T) {
	env, err := enginetest.New(4)
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(200, 3)
	if err := WriteInputs(env.FS, env.At(), g, 0, "/g/static", "/g/state"); err != nil {
		t.Fatal(err)
	}
	res, err := env.Core.Run(IMRJob(IMRConfig{
		Name: "sssp-conv", StaticPath: "/g/static", StatePath: "/g/state",
		MaxIter: 500, DistThreshold: 1e-12,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	want := Dijkstra(g, 0)
	out, err := env.ReadDir(res.OutputPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.N; i++ {
		if got := out[int64(i)].(float64); !floatEq(got, want[i]) {
			t.Fatalf("node %d: engine %v, dijkstra %v", i, got, want[i])
		}
	}
}

func TestMRChainMatchesBellmanFord(t *testing.T) {
	env, err := enginetest.New(3)
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(150, 4)
	if err := env.FS.WriteFile("/mr/init", env.At(), CombinedPairs(g, 0), CombinedOps()); err != nil {
		t.Fatal(err)
	}
	const iters = 5
	spec := MRSpec("sssp-mr", "/mr/init", "/mr/work", 3, iters, 0)
	res, err := mapreduce.RunIterativeCtx(context.Background(), env.MR, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := BellmanFord(g, 0, iters)
	out, err := env.ReadDir(res.OutputPath)
	if err != nil {
		t.Fatal(err)
	}
	// A minimum of the same sums: bit for bit.
	for i := 0; i < g.N; i++ {
		got := out[int64(i)].(mapreduce.IterValue).State.(float64)
		if math.Float64bits(got) != math.Float64bits(want[i]) {
			t.Fatalf("node %d: baseline %v, reference %v", i, got, want[i])
		}
	}
}

func TestMRChainDistanceTermination(t *testing.T) {
	env, err := enginetest.New(2)
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(100, 5)
	if err := env.FS.WriteFile("/mr/init", env.At(), CombinedPairs(g, 0), CombinedOps()); err != nil {
		t.Fatal(err)
	}
	spec := MRSpec("sssp-mr-dist", "/mr/init", "/mr/work", 2, 100, 1e-12)
	res, err := mapreduce.RunIterativeCtx(context.Background(), env.MR, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("baseline did not converge")
	}
	want := Dijkstra(g, 0)
	out, err := env.ReadDir(res.OutputPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.N; i++ {
		got := out[int64(i)].(mapreduce.IterValue).State.(float64)
		if !floatEq(got, want[i]) {
			t.Fatalf("node %d: baseline %v, dijkstra %v", i, got, want[i])
		}
	}
}

func TestSyncAsyncAgree(t *testing.T) {
	g := testGraph(120, 6)
	results := make([]map[any]any, 2)
	for i, sync := range []bool{false, true} {
		env, err := enginetest.New(3)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteInputs(env.FS, env.At(), g, 0, "/g/static", "/g/state"); err != nil {
			t.Fatal(err)
		}
		res, err := env.Core.Run(IMRJob(IMRConfig{
			Name: "sssp-sync", StaticPath: "/g/static", StatePath: "/g/state",
			MaxIter: 5, SyncMap: sync,
		}))
		if err != nil {
			t.Fatal(err)
		}
		results[i], err = env.ReadDir(res.OutputPath)
		if err != nil {
			t.Fatal(err)
		}
	}
	for k, v := range results[0] {
		if !floatEq(v.(float64), results[1][k].(float64)) {
			t.Fatalf("sync and async disagree at %v: %v vs %v", k, v, results[1][k])
		}
	}
}

// TestPropertyConvergedEqualsDijkstra: for random graphs and sources,
// the converged distributed SSSP equals Dijkstra.
func TestPropertyConvergedEqualsDijkstra(t *testing.T) {
	f := func(seed int64, srcRaw uint8) bool {
		g := testGraph(60, seed%1000)
		src := int64(srcRaw) % int64(g.N)
		env, err := enginetest.New(2)
		if err != nil {
			return false
		}
		if err := WriteInputs(env.FS, env.At(), g, src, "/g/static", "/g/state"); err != nil {
			return false
		}
		res, err := env.Core.Run(IMRJob(IMRConfig{
			Name: "sssp-prop", StaticPath: "/g/static", StatePath: "/g/state",
			MaxIter: 200, DistThreshold: 1e-12,
		}))
		if err != nil {
			t.Logf("run error: %v", err)
			return false
		}
		want := Dijkstra(g, src)
		out, err := env.ReadDir(res.OutputPath)
		if err != nil {
			return false
		}
		for i := 0; i < g.N; i++ {
			if !floatEq(out[int64(i)].(float64), want[i]) {
				t.Logf("seed %d src %d node %d: %v vs %v", seed, src, i, out[int64(i)], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceFn(t *testing.T) {
	if DistanceFn(nil, Inf, Inf) != 0 {
		t.Fatal("inf/inf should be 0")
	}
	if DistanceFn(nil, Inf, 3.0) != 1 {
		t.Fatal("becoming reachable should count as 1")
	}
	if DistanceFn(nil, 2.0, 3.5) != 1.5 {
		t.Fatal("finite distance diff")
	}
}

func TestStatePairs(t *testing.T) {
	ps := StatePairs(5, 2)
	for i, p := range ps {
		d := p.Value.(float64)
		if i == 2 && d != 0 {
			t.Fatal("source not zero")
		}
		if i != 2 && !math.IsInf(d, 1) {
			t.Fatal("non-source not inf")
		}
	}
}
