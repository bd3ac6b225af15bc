package matpower

import (
	"math"
	"testing"
	"time"

	"imapreduce/internal/cluster"
	"imapreduce/internal/core"
	"imapreduce/internal/dfs"
	"imapreduce/internal/enginetest"
	"imapreduce/internal/metrics"
	"imapreduce/internal/transport"
)

func TestPackUnpack(t *testing.T) {
	cases := [][2]int32{{0, 0}, {1, 2}, {1000, 999}, {1 << 20, 1<<20 + 1}}
	for _, c := range cases {
		i, j := Unpack(Pack(c[0], c[1]))
		if i != c[0] || j != c[1] {
			t.Fatalf("pack/unpack (%d,%d) -> (%d,%d)", c[0], c[1], i, j)
		}
	}
}

func TestDensePow(t *testing.T) {
	m := &Dense{N: 2, V: []float64{1, 1, 0, 1}}
	p := m.Pow(3)
	// [[1,1],[0,1]]^3 = [[1,3],[0,1]]
	want := []float64{1, 3, 0, 1}
	for i := range want {
		if math.Abs(p.V[i]-want[i]) > 1e-12 {
			t.Fatalf("pow: %v", p.V)
		}
	}
	if q := m.Pow(1); q != m {
		t.Fatal("Pow(1) should be identity on the input")
	}
}

func TestIMRMatrixPower(t *testing.T) {
	env, err := enginetest.New(3)
	if err != nil {
		t.Fatal(err)
	}
	const n, iters = 12, 3 // result = M^(iters+1)
	m := Random(n, 31)
	if err := WriteInputs(env.FS, env.At(), m, "/mp/static", "/mp/state"); err != nil {
		t.Fatal(err)
	}
	res, err := env.Core.Run(IMRJob(IMRConfig{
		Name: "mp", StaticPath: "/mp/static", StatePath: "/mp/state", MaxIter: iters,
	}))
	if err != nil {
		t.Fatal(err)
	}
	want := m.Pow(iters + 1)
	out, err := env.ReadDir(res.OutputPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n*n {
		t.Fatalf("%d entries, want %d", len(out), n*n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			got := out[Pack(int32(i), int32(j))].(float64)
			if math.Abs(got-want.At(i, j)) > 1e-9 {
				t.Fatalf("(%d,%d): engine %v, reference %v", i, j, got, want.At(i, j))
			}
		}
	}
}

func TestMRMatrixPower(t *testing.T) {
	env, err := enginetest.New(2)
	if err != nil {
		t.Fatal(err)
	}
	const n, iters = 10, 2
	m := Random(n, 32)
	if err := env.FS.WriteFile("/mp/m", env.At(), StatePairs(m), EntryOps()); err != nil {
		t.Fatal(err)
	}
	res, err := RunMR(env.MR, "mp-mr", "/mp/m", m, "/mp/work", 2, iters)
	if err != nil {
		t.Fatal(err)
	}
	want := m.Pow(iters + 1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			got := res.Result[Pack(int32(i), int32(j))]
			if math.Abs(got-want.At(i, j)) > 1e-9 {
				t.Fatalf("(%d,%d): baseline %v, reference %v", i, j, got, want.At(i, j))
			}
		}
	}
	if len(res.Walls) != iters {
		t.Fatalf("wall stats: %d", len(res.Walls))
	}
}

// TestIMROnTCP pushes the Row/Col/Entry record types through the real
// socket transport (kv codec round trip).
func TestIMROnTCP(t *testing.T) {
	spec := cluster.Uniform(2)
	m := metrics.NewSet()
	fs := dfs.New(dfs.Config{BlockSize: 1 << 16, Replication: 2}, spec.IDs(), m)
	eng, err := core.NewEngine(fs, transport.NewTCPNetwork(), spec, m, core.Options{Timeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	const n, iters = 6, 2
	mtx := Random(n, 41)
	if err := WriteInputs(fs, "worker-0", mtx, "/mp/static", "/mp/state"); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(IMRJob(IMRConfig{
		Name: "mp-tcp", StaticPath: "/mp/static", StatePath: "/mp/state", MaxIter: iters,
	}))
	if err != nil {
		t.Fatal(err)
	}
	want := mtx.Pow(iters + 1)
	out := map[int64]float64{}
	for _, part := range fs.List(res.OutputPath + "/") {
		recs, err := fs.ReadFile(part, "worker-0")
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			out[r.Key.(int64)] = r.Value.(float64)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if math.Abs(out[Pack(int32(i), int32(j))]-want.At(i, j)) > 1e-9 {
				t.Fatalf("tcp run diverged at (%d,%d)", i, j)
			}
		}
	}
}

func TestEnginesAgree(t *testing.T) {
	const n, iters = 8, 2
	m := Random(n, 33)

	envA, err := enginetest.New(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteInputs(envA.FS, envA.At(), m, "/mp/static", "/mp/state"); err != nil {
		t.Fatal(err)
	}
	resA, err := envA.Core.Run(IMRJob(IMRConfig{
		Name: "mp-a", StaticPath: "/mp/static", StatePath: "/mp/state", MaxIter: iters,
	}))
	if err != nil {
		t.Fatal(err)
	}
	outA, _ := envA.ReadDir(resA.OutputPath)

	envB, err := enginetest.New(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := envB.FS.WriteFile("/mp/m", envB.At(), StatePairs(m), EntryOps()); err != nil {
		t.Fatal(err)
	}
	resB, err := RunMR(envB.MR, "mp-b", "/mp/m", m, "/mp/work", 2, iters)
	if err != nil {
		t.Fatal(err)
	}
	for k, a := range outA {
		if math.Abs(a.(float64)-resB.Result[k.(int64)]) > 1e-9 {
			t.Fatalf("engines disagree at %v", k)
		}
	}
}
