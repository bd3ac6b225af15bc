package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"testing"
	"time"

	"imapreduce/internal/leaktest"
)

// Every goroutine a run starts — task pairs, TCP readers, the service's
// scheduler, the generator's waiters — must be gone when it returns.
func TestMain(m *testing.M) { leaktest.VerifyTestMain(m) }

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// update rewrites BENCHMARK.json from the catalogue:
// go test -run TestSpecMatchesCatalogue -update
var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the catalogue")

// specFile is BENCHMARK.json: exactly the keys the builder's contract
// names.
type specFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []WorkloadDef `json:"workloads"`
	EndToEnd   []specMetric  `json:"end_to_end"`
	PerLayer   []specMetric  `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func buildSpec() specFile {
	s := specFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, d := range endToEnd {
		b := d.Bound
		s.EndToEnd = append(s.EndToEnd, specMetric{d.Name, d.Unit, d.Better, &b})
	}
	for _, d := range perLayer {
		s.PerLayer = append(s.PerLayer, specMetric{d.Name, d.Unit, d.Better, nil})
	}
	return s
}

// TestSpecMatchesCatalogue keeps BENCHMARK.json and the catalogue one
// definition, and checks the catalogue against the contract's limits.
func TestSpecMatchesCatalogue(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		data, err := json.MarshalIndent(buildSpec(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var onDisk specFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if want := buildSpec(); !reflect.DeepEqual(onDisk, want) {
		t.Fatalf("BENCHMARK.json differs from the catalogue; regenerate it with `go test -run TestSpecMatchesCatalogue -update`")
	}

	seen := make(map[string]bool)
	check := func(kind, name, unit string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside the contract's alphabet", kind, name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s %s: unit %q is outside the contract's alphabet", kind, name, unit)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloads {
		check("workload", w.Name, "")
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check("end-to-end metric", d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g, want (0, 0.25]", d.Name, d.Bound)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric in seconds, lower is better")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, d := range perLayer {
		check("per-layer metric", d.Name, d.Unit)
		if d.Layer == "" || d.Moves == "" {
			t.Errorf("%s: the interaction table needs its layer and what it moves", d.Name)
		}
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", runSeconds)
	}
}

// TestWorkloadsToySize runs every workload at a toy size, untraced and
// traced, and asserts that each run emits exactly the catalogue's metric
// names for its kind, each with its unit, and correct outputs.
func TestWorkloadsToySize(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				stop := leaktest.Watchdog(t, 2*time.Minute)
				defer stop()
				spec := runSpec{workload: w.Name, seed: 7, seconds: 0.4, trace: traced, size: toySize}
				if traced {
					spec.outDir = t.TempDir()
				}
				res, err := runWorkload(context.Background(), spec)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d notes=%v", res.Correct, res.Attempted, res.Failed, res.Notes)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				var want, got []string
				for _, d := range defs {
					want = append(want, d.Name)
				}
				for n, m := range res.Metrics {
					got = append(got, n)
					if m.Unit != metricDefs[n].Unit || !unitRE.MatchString(m.Unit) {
						t.Errorf("%s: unit %q, catalogue says %q", n, m.Unit, metricDefs[n].Unit)
					}
					if !traced && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s is %v; it must never be 0", n, m.Value)
					}
				}
				slices.Sort(want)
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Errorf("emitted metrics %v, catalogue has %v", got, want)
				}
				if _, err := res.contractLine(); err != nil {
					t.Error(err)
				}
				if traced {
					for _, suffix := range []string{".layers.txt", ".trace.json", ".spans.json"} {
						if st, err := os.Stat(filepath.Join(spec.outDir, w.Name+suffix)); err != nil || st.Size() == 0 {
							t.Errorf("traced run left no %s (%v)", suffix, err)
						}
					}
				}
			})
		}
	}
}

// TestLayersSeparate checks the predictions that make the workloads
// worth having: sockets carry bytes only where there are sockets, the
// baseline engine writes far more to the DFS than the iterative one, and
// the traced TCP job yields a factor decomposition.
func TestLayersSeparate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three workloads end to end")
	}
	layer := func(workload string) map[string]Metric {
		t.Helper()
		res, err := runWorkload(context.Background(), runSpec{workload: workload, seed: 3, seconds: 0.4, trace: true, size: toySize})
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics
	}
	tcp, chain, small := layer(wlPagerankTCP), layer(wlMRChain), layer(wlSSSPChan)
	if tcp["transport.tcp_bytes_per_iter"].Value <= 0 {
		t.Error("pagerank-tcp moved no bytes over TCP")
	}
	for name, m := range map[string]map[string]Metric{wlMRChain: chain, wlSSSPChan: small} {
		if v := m["transport.tcp_bytes_per_iter"].Value; v != 0 {
			t.Errorf("%s: transport.tcp_bytes_per_iter = %v, want 0", name, v)
		}
	}
	// 4x at full size (12.6 MB against 1.8 MB per iteration); the toy
	// jobs are so short that the one-time static write weighs more.
	if c, p := chain["dfs.write_bytes_per_iter"].Value, tcp["dfs.write_bytes_per_iter"].Value; c < 2*p {
		t.Errorf("dfs.write_bytes_per_iter: mrchain %v is not 2x pagerank-tcp's %v", c, p)
	}
	// 0.99 at full size; a toy job is over in milliseconds, so the
	// master's untraced gaps weigh more and only sanity is asserted.
	if v := tcp["core.decomp_coverage"].Value; v < 0.5 || v > 1.5 {
		t.Errorf("core.decomp_coverage on pagerank-tcp = %v, want about 1", v)
	}
}

// TestQuartilesMatchPython pins the quartile rule to
// statistics.quantiles(xs, n=4), the rule the driver judges spread with.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 20, 40}, 10, 20, 40},
		{[]float64{3, 5}, 2.5, 4, 5.5},
		{[]float64{1, 1, 2, 3, 5, 8, 13}, 1, 3, 8},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p := tailOf(xs); p != 99 || v != 1980 {
		t.Errorf("2000 samples: tail p%v = %v, want p99 = 1980", p, v)
	}
	if _, p := tailOf(xs[:38]); p != 100 {
		t.Errorf("38 samples support no percentile with ten beyond it; got p%v", p)
	}
	if _, p := tailOf(xs[:40]); p != 75 {
		t.Errorf("40 samples: got p%v, want p75", p)
	}
}

func TestJudge(t *testing.T) {
	lower := MetricDef{Name: "job_ms", Better: "lower", Bound: 0.07}
	higher := MetricDef{Name: "medges_per_s", Better: "higher", Bound: 0.07}
	steady := func(med float64) Dist { return Dist{N: 5, Median: med, Q1: med * 0.99, Q3: med * 1.01} }
	cases := []struct {
		def  MetricDef
		a, b Dist
		want string
	}{
		{lower, steady(100), steady(100.5), verdictUnchanged},
		{lower, steady(100), steady(110), verdictWorse},
		{lower, steady(100), steady(95), verdictImproved},
		{higher, steady(100), steady(90), verdictWorse},
		{higher, steady(100), steady(105), verdictImproved},
		{lower, steady(100), Dist{N: 5, Median: 100, Q1: 90, Q3: 110}, verdictUnresolved},
		{MetricDef{Name: "setup_s", Better: "lower", Bound: 0.07}, steady(100), Dist{N: 5, Median: 100, Q1: 90, Q3: 110}, verdictUnchanged},
		{lower, Dist{N: 1, Median: 100, Q1: 100, Q3: 100}, steady(100), verdictUnresolved},
	}
	for _, c := range cases {
		if _, got := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v -> %v) = %s, want %s", c.def.Name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}

// TestSeededGraphKeepsShape: another seed changes the data, never the
// amount of work.
func TestSeededGraphKeepsShape(t *testing.T) {
	cfg := ssspGraphCfg(fullSize)
	base, _ := seededGraph(cfg, 0)
	a, _ := seededGraph(cfg, 5)
	again, _ := seededGraph(cfg, 5)
	if !reflect.DeepEqual(a, again) {
		t.Fatal("the same seed gave two different graphs")
	}
	if !reflect.DeepEqual(a.Off, base.Off) {
		t.Fatal("a seed changed the degree sequence")
	}
	if reflect.DeepEqual(a.Dst, base.Dst) || reflect.DeepEqual(a.W, base.W) {
		t.Fatal("a seed left targets or weights unchanged")
	}
	for u := 0; u < a.N; u++ {
		dst, _ := a.Neighbors(int32(u))
		for i, v := range dst {
			if int(v) == u || (i > 0 && dst[i-1] >= v) {
				t.Fatalf("node %d: adjacency %v has a self loop, a duplicate or is unsorted", u, dst)
			}
		}
	}
}

func TestCompareFiles(t *testing.T) {
	set := func(scale float64) SetFile {
		var sf SetFile
		for _, w := range workloads {
			for run := 0; run < 5; run++ {
				r := RunResult{Workload: w.Name, Metrics: map[string]Metric{}}
				for _, d := range endToEnd {
					v := 100 + float64(run)*0.1
					if d.Name == "job_ms" {
						v *= scale
					}
					r.Metrics[d.Name] = Metric{Value: v, Unit: d.Unit}
				}
				sf.Runs = append(sf.Runs, r)
			}
		}
		return sf
	}
	dir := t.TempDir()
	write := func(name string, sf SetFile) string {
		data, err := json.Marshal(sf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", set(1)), write("same.json", set(1)), write("slow.json", set(1.5))
	if clean, err := compareFiles(io.Discard, a, same); err != nil || !clean {
		t.Errorf("identical sets: clean=%v err=%v", clean, err)
	}
	if clean, err := compareFiles(io.Discard, a, slow); err != nil || clean {
		t.Errorf("50%% slower job_ms: clean=%v err=%v, want a worse row", clean, err)
	}
}
