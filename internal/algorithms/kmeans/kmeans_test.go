package kmeans

import (
	"bytes"
	"math"
	"testing"
	"time"

	"imapreduce/internal/cluster"
	"imapreduce/internal/core"
	"imapreduce/internal/dfs"
	"imapreduce/internal/enginetest"
	"imapreduce/internal/kv"
	"imapreduce/internal/metrics"
	"imapreduce/internal/transport"
)

func centroidsEqual(t *testing.T, got map[any]any, want []kv.Pair, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d centroids, want %d", len(got), len(want))
	}
	for _, w := range want {
		g, ok := got[w.Key]
		if !ok {
			t.Fatalf("centroid %v missing", w.Key)
		}
		gp, wp := g.(Point), w.Value.(Point)
		for d := range wp {
			if math.Abs(gp[d]-wp[d]) > tol {
				t.Fatalf("centroid %v dim %d: %v vs %v", w.Key, d, gp[d], wp[d])
			}
		}
	}
}

func TestIMRMatchesLloyd(t *testing.T) {
	env, err := enginetest.New(3)
	if err != nil {
		t.Fatal(err)
	}
	points, cents := Generate(DataConfig{Users: 400, Dim: 4, K: 5, Seed: 21})
	if err := WriteInputs(env.FS, env.At(), points, cents, "/km/points", "/km/cents"); err != nil {
		t.Fatal(err)
	}
	const iters = 6
	res, err := env.Core.Run(IMRJob(IMRConfig{
		Name: "km", StaticPath: "/km/points", StatePath: "/km/cents", MaxIter: iters,
	}))
	if err != nil {
		t.Fatal(err)
	}
	want := Reference(points, cents, iters)
	out, err := env.ReadDir(res.OutputPath)
	if err != nil {
		t.Fatal(err)
	}
	centroidsEqual(t, out, want, 1e-6)
}

func TestCombinerSameResultLessShuffle(t *testing.T) {
	points, cents := Generate(DataConfig{Users: 600, Dim: 3, K: 4, Seed: 22})
	var results [2]map[any]any
	var shuffle [2]int64
	for i, comb := range []bool{false, true} {
		env, err := enginetest.New(3)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteInputs(env.FS, env.At(), points, cents, "/km/points", "/km/cents"); err != nil {
			t.Fatal(err)
		}
		res, err := env.Core.Run(IMRJob(IMRConfig{
			Name: "km-comb", StaticPath: "/km/points", StatePath: "/km/cents",
			MaxIter: 4, UseCombiner: comb,
		}))
		if err != nil {
			t.Fatal(err)
		}
		results[i], err = env.ReadDir(res.OutputPath)
		if err != nil {
			t.Fatal(err)
		}
		shuffle[i] = env.M.Get(metrics.ShuffleBytes)
	}
	if shuffle[1] >= shuffle[0] {
		t.Fatalf("combiner did not cut shuffle: %d vs %d", shuffle[1], shuffle[0])
	}
	for k, a := range results[0] {
		b := results[1][k].(Point)
		for d, av := range a.(Point) {
			if math.Abs(av-b[d]) > 1e-6 {
				t.Fatalf("combiner changed centroid %v dim %d: %v vs %v", k, d, av, b[d])
			}
		}
	}
}

func TestAuxConvergenceDetection(t *testing.T) {
	env, err := enginetest.New(2)
	if err != nil {
		t.Fatal(err)
	}
	points, cents := Generate(DataConfig{Users: 300, Dim: 3, K: 4, Seed: 23})
	if err := WriteInputs(env.FS, env.At(), points, cents, "/km/points", "/km/cents"); err != nil {
		t.Fatal(err)
	}
	res, err := env.Core.Run(IMRJob(IMRConfig{
		Name: "km-aux", StaticPath: "/km/points", StatePath: "/km/cents",
		MaxIter: 50, MoveThreshold: 1, // stop when assignments freeze
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("aux phase did not stop the job")
	}
	if res.Iterations >= 50 {
		t.Fatalf("ran to the bound: %d", res.Iterations)
	}
	// At convergence the centroids equal a fixed point of Lloyd's.
	want := Reference(points, cents, res.Iterations)
	out, err := env.ReadDir(res.OutputPath)
	if err != nil {
		t.Fatal(err)
	}
	centroidsEqual(t, out, want, 1e-6)
}

func TestMRMatchesLloyd(t *testing.T) {
	env, err := enginetest.New(3)
	if err != nil {
		t.Fatal(err)
	}
	points, cents := Generate(DataConfig{Users: 300, Dim: 4, K: 4, Seed: 24})
	if err := env.FS.WriteFile("/km/points", env.At(), points, PointOps()); err != nil {
		t.Fatal(err)
	}
	const iters = 5
	res, err := RunMR(env.MR, MRConfig{
		Name: "km-mr", PointsPath: "/km/points", WorkDir: "/km/work",
		Centroids: cents, NumReduce: 3, MaxIter: iters,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Reference(points, cents, iters)
	got := map[any]any{}
	for _, c := range res.Centroids {
		got[c.Key] = c.Value
	}
	centroidsEqual(t, got, want, 1e-6)
	if len(res.Stats) != iters {
		t.Fatalf("stats: %d", len(res.Stats))
	}
}

func TestMRWithCombinerAgrees(t *testing.T) {
	points, cents := Generate(DataConfig{Users: 300, Dim: 3, K: 3, Seed: 25})
	var outs [2][]kv.Pair
	for i, comb := range []bool{false, true} {
		env, err := enginetest.New(2)
		if err != nil {
			t.Fatal(err)
		}
		if err := env.FS.WriteFile("/km/points", env.At(), points, PointOps()); err != nil {
			t.Fatal(err)
		}
		res, err := RunMR(env.MR, MRConfig{
			Name: "km-mrc", PointsPath: "/km/points", WorkDir: "/km/work",
			Centroids: cents, NumReduce: 2, MaxIter: 3, UseCombiner: comb,
		})
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = res.Centroids
	}
	for i := range outs[0] {
		a, b := outs[0][i].Value.(Point), outs[1][i].Value.(Point)
		for d := range a {
			if math.Abs(a[d]-b[d]) > 1e-6 {
				t.Fatalf("combiner changed baseline centroid %d", i)
			}
		}
	}
}

func TestMRConvergenceCheckJob(t *testing.T) {
	env, err := enginetest.New(2)
	if err != nil {
		t.Fatal(err)
	}
	points, cents := Generate(DataConfig{Users: 200, Dim: 3, K: 3, Seed: 26})
	if err := env.FS.WriteFile("/km/points", env.At(), points, PointOps()); err != nil {
		t.Fatal(err)
	}
	res, err := RunMR(env.MR, MRConfig{
		Name: "km-conv", PointsPath: "/km/points", WorkDir: "/km/work",
		Centroids: cents, NumReduce: 2, MaxIter: 50, MoveThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("baseline check job never detected convergence")
	}
	if res.Iterations >= 50 {
		t.Fatalf("ran to the bound: %d", res.Iterations)
	}
	// The check job ran each iteration: stats carry its wall time.
	for _, st := range res.Stats {
		if st.CheckWall <= 0 {
			t.Fatalf("iteration %d has no check job time", st.Iteration)
		}
	}
}

func TestNearestTieBreaksLowestKey(t *testing.T) {
	cents := []kv.Pair{
		{Key: int64(0), Value: Point{0}},
		{Key: int64(1), Value: Point{2}},
	}
	if Nearest(cents, Point{1}) != 0 {
		t.Fatal("tie should go to the lowest key")
	}
}

// TestIMROnTCPWithCombiner pushes Point and PartialSum through the real
// socket transport, broadcast mode included.
func TestIMROnTCPWithCombiner(t *testing.T) {
	spec := cluster.Uniform(2)
	m := metrics.NewSet()
	fs := dfs.New(dfs.Config{BlockSize: 1 << 16, Replication: 2}, spec.IDs(), m)
	eng, err := core.NewEngine(fs, transport.NewTCPNetwork(), spec, m, core.Options{Timeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	points, cents := Generate(DataConfig{Users: 100, Dim: 3, K: 3, Seed: 61})
	if err := WriteInputs(fs, "worker-0", points, cents, "/km/points", "/km/cents"); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(IMRJob(IMRConfig{
		Name: "km-tcp", StaticPath: "/km/points", StatePath: "/km/cents",
		MaxIter: 3, UseCombiner: true,
	}))
	if err != nil {
		t.Fatal(err)
	}
	want := Reference(points, cents, 3)
	got := map[any]any{}
	for _, part := range fs.List(res.OutputPath + "/") {
		recs, err := fs.ReadFile(part, "worker-0")
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			got[r.Key] = r.Value
		}
	}
	centroidsEqual(t, got, want, 1e-6)
}

func TestPointsSaveLoadRoundtrip(t *testing.T) {
	points, _ := Generate(DataConfig{Users: 40, Dim: 3, K: 2, Seed: 8})
	var buf bytes.Buffer
	if err := SavePoints(&buf, points); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPoints(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(points) {
		t.Fatalf("%d points, want %d", len(got), len(points))
	}
	for i := range points {
		if got[i].Key != points[i].Key {
			t.Fatalf("point %d key changed", i)
		}
		a, b := points[i].Value.(Point), got[i].Value.(Point)
		for d := range a {
			if math.Abs(a[d]-b[d]) > 1e-12 {
				t.Fatalf("point %d dim %d: %v vs %v", i, d, a[d], b[d])
			}
		}
	}
}

func TestLoadPointsErrors(t *testing.T) {
	cases := []string{
		"",             // empty
		"noid",         // no tab
		"x\t1,2",       // bad id
		"1\t1,zebra",   // bad value
		"1\t1,2\n2\t1", // dim mismatch
	}
	for _, c := range cases {
		if _, err := LoadPoints(bytes.NewBufferString(c)); err == nil {
			t.Errorf("LoadPoints(%q) should fail", c)
		}
	}
}

func TestRandomInitCentroids(t *testing.T) {
	points, _ := Generate(DataConfig{Users: 50, Dim: 2, K: 3, Seed: 12})
	cents := RandomInitCentroids(points, 4, 1)
	if len(cents) != 4 {
		t.Fatalf("%d centroids", len(cents))
	}
	for i, c := range cents {
		if c.Key.(int64) != int64(i) {
			t.Fatalf("centroid keys must be 0..k-1, got %v", c.Key)
		}
		if len(c.Value.(Point)) != 2 {
			t.Fatalf("bad centroid dims")
		}
	}
	// Mutating a centroid must not touch the source point (deep copy).
	cents[0].Value.(Point)[0] = 12345
	for _, p := range points {
		if p.Value.(Point)[0] == 12345 {
			t.Fatal("centroid aliases a point")
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p1, c1 := Generate(DataConfig{Users: 50, Dim: 2, K: 3, Seed: 9})
	p2, c2 := Generate(DataConfig{Users: 50, Dim: 2, K: 3, Seed: 9})
	for i := range p1 {
		a, b := p1[i].Value.(Point), p2[i].Value.(Point)
		if a[0] != b[0] || a[1] != b[1] {
			t.Fatal("same seed, different points")
		}
	}
	for i := range c1 {
		a, b := c1[i].Value.(Point), c2[i].Value.(Point)
		if a[0] != b[0] {
			t.Fatal("same seed, different centroids")
		}
	}
}

// TestAuxOnTCPMatchesChannels runs K-means with the auxiliary
// convergence phase over real sockets, so every auxiliary output reaches
// the master as a binary frame, and over channels: both runs converge to
// bit-identical centroids after the same number of iterations. One main
// task keeps the reduce's float sums in one order on both networks; the
// iteration the auxiliary verdict stops at must not depend on the order
// its messages reach the master in.
func TestAuxOnTCPMatchesChannels(t *testing.T) {
	points, cents := Generate(DataConfig{Users: 300, Dim: 3, K: 4, Seed: 23})
	run := func(net transport.Network) ([]byte, int) {
		spec := cluster.Uniform(2)
		m := metrics.NewSet()
		fs := dfs.New(dfs.Config{BlockSize: 1 << 16, Replication: 2}, spec.IDs(), m)
		eng, err := core.NewEngine(fs, net, spec, m, core.Options{Timeout: 60 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteInputs(fs, "worker-0", points, cents, "/km/points", "/km/cents"); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(IMRJob(IMRConfig{
			Name: "km-aux-net", StaticPath: "/km/points", StatePath: "/km/cents",
			MaxIter: 50, MoveThreshold: 1, NumTasks: 1,
		}))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatal("aux phase did not stop the job")
		}
		var out []kv.Pair
		for _, part := range fs.List(res.OutputPath + "/") {
			recs, err := fs.ReadFile(part, "worker-0")
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, recs...)
		}
		PointOps().SortPairs(out)
		enc, ok := kv.AppendPairs(nil, out)
		if !ok {
			t.Fatal(kv.Unencodable(out))
		}
		return enc, res.Iterations
	}
	chanOut, chanIters := run(transport.NewChanNetwork())
	tcpOut, tcpIters := run(transport.NewTCPNetwork())
	if !bytes.Equal(tcpOut, chanOut) {
		t.Fatalf("centroids over TCP %x, over channels %x", tcpOut, chanOut)
	}
	if tcpIters != chanIters {
		t.Fatalf("stopped after %d iterations over TCP, %d over channels", tcpIters, chanIters)
	}
}
