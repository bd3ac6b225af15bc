package concomp

import (
	"context"
	"testing"
	"testing/quick"

	"imapreduce/internal/enginetest"
	"imapreduce/internal/graph"
	"imapreduce/internal/mapreduce"
)

// sparseGraph generates a graph sparse enough to have several weakly
// connected components.
func sparseGraph(n int, seed int64) *graph.Graph {
	return graph.Generate(graph.GenConfig{
		Nodes:  n,
		Degree: graph.LogNormalParams{Sigma: 1.0, Mu: -0.8}, // mean ≈ 0.74 edges/node
		Seed:   seed,
	})
}

func TestReferenceSmall(t *testing.T) {
	// Components {0,1,2} (0→1→2) and {3,4} (4→3), {5} isolated.
	b := graph.NewBuilder(6, false)
	b.AddEdge(0, 1, 0)
	b.AddEdge(1, 2, 0)
	b.AddEdge(4, 3, 0)
	g := b.Build()
	want := []int64{0, 0, 0, 3, 3, 5}
	got := Reference(g)
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("node %d: label %d, want %d (all %v)", i, got[i], w, got)
		}
	}
}

func TestIMRMatchesUnionFind(t *testing.T) {
	env, err := enginetest.New(3)
	if err != nil {
		t.Fatal(err)
	}
	g := sparseGraph(400, 51)
	if err := WriteInputs(env.FS, env.At(), g, "/cc/static", "/cc/state"); err != nil {
		t.Fatal(err)
	}
	res, err := env.Core.Run(IMRJob(IMRConfig{
		Name: "cc", StaticPath: "/cc/static", StatePath: "/cc/state",
		MaxIter: 500, DistThreshold: 0.5, // stop when no label changed
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	want := Reference(g)
	out, err := env.ReadDir(res.OutputPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.N; i++ {
		if got := out[int64(i)].(int64); got != want[i] {
			t.Fatalf("node %d: engine %d, union-find %d", i, got, want[i])
		}
	}
}

func TestMRMatchesUnionFind(t *testing.T) {
	env, err := enginetest.New(2)
	if err != nil {
		t.Fatal(err)
	}
	g := sparseGraph(250, 52)
	if err := env.FS.WriteFile("/cc/init", env.At(), CombinedPairs(g), CombinedOps()); err != nil {
		t.Fatal(err)
	}
	res, err := mapreduce.RunIterativeCtx(context.Background(), env.MR, MRSpec("cc-mr", "/cc/init", "/cc/work", 2, 500, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("baseline did not converge")
	}
	want := Reference(g)
	out, err := env.ReadDir(res.OutputPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.N; i++ {
		got := out[int64(i)].(mapreduce.IterValue).State.(int64)
		if got != want[i] {
			t.Fatalf("node %d: baseline %d, union-find %d", i, got, want[i])
		}
	}
}

// TestPropertyComponentsAreMinLabeled: on random sparse graphs the
// converged labels always equal the union-find reference.
func TestPropertyComponentsAreMinLabeled(t *testing.T) {
	f := func(seed int64) bool {
		g := sparseGraph(80, seed%1000)
		env, err := enginetest.New(2)
		if err != nil {
			return false
		}
		if err := WriteInputs(env.FS, env.At(), g, "/cc/static", "/cc/state"); err != nil {
			return false
		}
		res, err := env.Core.Run(IMRJob(IMRConfig{
			Name: "cc-prop", StaticPath: "/cc/static", StatePath: "/cc/state",
			MaxIter: 300, DistThreshold: 0.5,
		}))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		want := Reference(g)
		out, err := env.ReadDir(res.OutputPath)
		if err != nil {
			return false
		}
		for i := 0; i < g.N; i++ {
			if out[int64(i)].(int64) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestSymmetrizedStaticPairs(t *testing.T) {
	b := graph.NewBuilder(3, false)
	b.AddEdge(0, 1, 0)
	b.AddEdge(0, 0, 0) // self loops dropped
	g := b.Build()
	pairs := SymmetrizedStaticPairs(g)
	adj0 := pairs[0].Value.(graph.Adj)
	adj1 := pairs[1].Value.(graph.Adj)
	if len(adj0.Dst) != 1 || adj0.Dst[0] != 1 {
		t.Fatalf("node 0 adjacency: %v", adj0.Dst)
	}
	if len(adj1.Dst) != 1 || adj1.Dst[0] != 0 {
		t.Fatalf("node 1 should see the reverse edge: %v", adj1.Dst)
	}
	if len(pairs[2].Value.(graph.Adj).Dst) != 0 {
		t.Fatal("isolated node should have no neighbors")
	}
}
