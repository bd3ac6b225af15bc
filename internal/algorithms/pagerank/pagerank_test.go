package pagerank

import (
	"context"
	"math"
	"testing"

	"imapreduce/internal/enginetest"
	"imapreduce/internal/graph"
	"imapreduce/internal/mapreduce"
)

func testGraph(n int, seed int64) *graph.Graph {
	return graph.Generate(graph.GenConfig{
		Nodes: n, Degree: graph.PageRankDegree, Seed: seed,
	})
}

func TestIMRMatchesReference(t *testing.T) {
	env, err := enginetest.New(3)
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(300, 11)
	if err := WriteInputs(env.FS, env.At(), g, "/pr/static", "/pr/state"); err != nil {
		t.Fatal(err)
	}
	const iters = 10
	res, err := env.Core.Run(IMRJob(IMRConfig{
		Name: "pr", Nodes: g.N, StaticPath: "/pr/static", StatePath: "/pr/state",
		MaxIter: iters,
	}))
	if err != nil {
		t.Fatal(err)
	}
	want := Reference(g, iters)
	out, err := env.ReadDir(res.OutputPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != g.N {
		t.Fatalf("%d outputs", len(out))
	}
	var sum float64
	for i := 0; i < g.N; i++ {
		got := out[int64(i)].(float64)
		if math.Abs(got-want[i]) > 1e-9 {
			t.Fatalf("node %d: engine %v, reference %v", i, got, want[i])
		}
		sum += got
	}
	// Rank mass is at most 1 (dangling nodes leak, never create).
	if sum > 1+1e-9 {
		t.Fatalf("rank mass %v exceeds 1", sum)
	}
}

// TestMRChainMatchesReference: the baseline chain reproduces the
// sequential reference — bit for bit with one reducer, whose input stays
// in key order, the reference's summation order, and to 1e-9 with three,
// whose part files reorder the sums.
func TestMRChainMatchesReference(t *testing.T) {
	g := testGraph(200, 12)
	const iters = 8
	want := Reference(g, iters)
	for _, numReduce := range []int{1, 3} {
		env, err := enginetest.New(3)
		if err != nil {
			t.Fatal(err)
		}
		if err := env.FS.WriteFile("/pr/init", env.At(), CombinedPairs(g), CombinedOps()); err != nil {
			t.Fatal(err)
		}
		res, err := mapreduce.RunIterativeCtx(context.Background(), env.MR, MRSpec("pr-mr", "/pr/init", "/pr/work", g.N, numReduce, iters, 0))
		if err != nil {
			t.Fatal(err)
		}
		out, err := env.ReadDir(res.OutputPath)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < g.N; i++ {
			got := out[int64(i)].(mapreduce.IterValue).State.(float64)
			if numReduce == 1 && got != want[i] || math.Abs(got-want[i]) > 1e-9 {
				t.Fatalf("%d reducers, node %d: baseline %v, reference %v", numReduce, i, got, want[i])
			}
		}
	}
}

func TestEnginesAgree(t *testing.T) {
	g := testGraph(150, 13)
	const iters = 6

	envA, err := enginetest.New(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteInputs(envA.FS, envA.At(), g, "/pr/static", "/pr/state"); err != nil {
		t.Fatal(err)
	}
	resA, err := envA.Core.Run(IMRJob(IMRConfig{
		Name: "pr-a", Nodes: g.N, StaticPath: "/pr/static", StatePath: "/pr/state", MaxIter: iters,
	}))
	if err != nil {
		t.Fatal(err)
	}
	outA, _ := envA.ReadDir(resA.OutputPath)

	envB, err := enginetest.New(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := envB.FS.WriteFile("/pr/init", envB.At(), CombinedPairs(g), CombinedOps()); err != nil {
		t.Fatal(err)
	}
	resB, err := mapreduce.RunIterativeCtx(context.Background(), envB.MR, MRSpec("pr-b", "/pr/init", "/pr/work", g.N, 2, iters, 0))
	if err != nil {
		t.Fatal(err)
	}
	outB, _ := envB.ReadDir(resB.OutputPath)

	for i := 0; i < g.N; i++ {
		a := outA[int64(i)].(float64)
		b := outB[int64(i)].(mapreduce.IterValue).State.(float64)
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("node %d: imr %v, mr %v", i, a, b)
		}
	}
}

func TestDistanceTermination(t *testing.T) {
	env, err := enginetest.New(2)
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(120, 14)
	if err := WriteInputs(env.FS, env.At(), g, "/pr/static", "/pr/state"); err != nil {
		t.Fatal(err)
	}
	// The paper's example threshold: 0.01 Manhattan distance.
	res, err := env.Core.Run(IMRJob(IMRConfig{
		Name: "pr-conv", Nodes: g.N, StaticPath: "/pr/static", StatePath: "/pr/state",
		MaxIter: 200, DistThreshold: 0.01,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if res.Iterations < 2 || res.Iterations > 100 {
		t.Fatalf("implausible convergence at %d", res.Iterations)
	}
	last := res.PerIter[len(res.PerIter)-1]
	if last.Dist >= 0.01 {
		t.Fatalf("final distance %v not below threshold", last.Dist)
	}
}

func TestRanksNonNegativeAndOrdered(t *testing.T) {
	// A node pointed to by everyone should outrank an isolated one.
	b := graph.NewBuilder(10, false)
	for i := int32(1); i < 10; i++ {
		b.AddEdge(i, 0, 0)
	}
	g := b.Build()
	want := Reference(g, 20)
	for i, r := range want {
		if r < 0 {
			t.Fatalf("negative rank at %d", i)
		}
	}
	if want[0] <= want[1] {
		t.Fatalf("hub rank %v not above leaf rank %v", want[0], want[1])
	}
}
