package mapreduce

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"imapreduce/internal/cluster"
	"imapreduce/internal/dfs"
	"imapreduce/internal/kv"
	"imapreduce/internal/metrics"
)

// testEnv bundles an engine over a fresh DFS.
func testEnv(t *testing.T, workers int, opts Options) (*Engine, *dfs.DFS, *metrics.Set) {
	t.Helper()
	spec := cluster.Uniform(workers)
	m := metrics.NewSet()
	fs := dfs.New(dfs.Config{BlockSize: 1 << 12, Replication: 2}, spec.IDs(), m)
	e, err := NewEngine(fs, spec, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e, fs, m
}

func stringOps() kv.Ops { return kv.OpsFor[string, any](nil) }

// writeWords stores a word-count style input: (int64 line, string text).
func writeWords(t *testing.T, fs *dfs.DFS, path string, lines []string) {
	t.Helper()
	ops := kv.OpsFor[int64, string](nil)
	recs := make([]kv.Pair, len(lines))
	for i, l := range lines {
		recs[i] = kv.Pair{Key: int64(i), Value: l}
	}
	if err := fs.WriteFile(path, "worker-0", recs, ops); err != nil {
		t.Fatal(err)
	}
}

func wordCountJob(input, output string, combine bool) *Job {
	j := &Job{
		Name:   "wordcount",
		Input:  []string{input},
		Output: output,
		Map: func(key, value any, emit kv.Emit) error {
			for _, w := range strings.Fields(value.(string)) {
				emit(w, int64(1))
			}
			return nil
		},
		Reduce: func(key any, values []any, emit kv.Emit) error {
			var sum int64
			for _, v := range values {
				sum += v.(int64)
			}
			emit(key, sum)
			return nil
		},
		NumReduce: 3,
		Ops:       kv.OpsFor[string, int64](nil),
	}
	if combine {
		j.Combine = j.Reduce
	}
	return j
}

func readCounts(t *testing.T, fs *dfs.DFS, dir string) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	for _, part := range fs.List(dir + "/") {
		recs, err := fs.ReadFile(part, "worker-0")
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			out[r.Key.(string)] += r.Value.(int64)
		}
	}
	return out
}

func TestWordCount(t *testing.T) {
	e, fs, _ := testEnv(t, 3, Options{LocalityAware: true})
	writeWords(t, fs, "/in", []string{
		"a b c", "a a b", "c d", "e", "a d d",
	})
	res, err := e.Submit(wordCountJob("/in", "/out", false))
	if err != nil {
		t.Fatal(err)
	}
	counts := readCounts(t, fs, "/out")
	want := map[string]int64{"a": 4, "b": 2, "c": 2, "d": 3, "e": 1}
	for k, v := range want {
		if counts[k] != v {
			t.Errorf("count[%s] = %d, want %d", k, counts[k], v)
		}
	}
	if res.OutputRecords != len(want) {
		t.Errorf("OutputRecords = %d, want %d", res.OutputRecords, len(want))
	}
	if res.ShuffleBytes <= 0 {
		t.Error("no shuffle bytes recorded")
	}
}

func TestCombinerReducesShuffle(t *testing.T) {
	lines := make([]string, 200)
	for i := range lines {
		lines[i] = "x y z x y x"
	}
	e1, fs1, _ := testEnv(t, 2, Options{})
	writeWords(t, fs1, "/in", lines)
	plain, err := e1.Submit(wordCountJob("/in", "/out", false))
	if err != nil {
		t.Fatal(err)
	}
	e2, fs2, _ := testEnv(t, 2, Options{})
	writeWords(t, fs2, "/in", lines)
	combined, err := e2.Submit(wordCountJob("/in", "/out", true))
	if err != nil {
		t.Fatal(err)
	}
	if combined.ShuffleBytes >= plain.ShuffleBytes {
		t.Fatalf("combiner did not reduce shuffle: %d vs %d", combined.ShuffleBytes, plain.ShuffleBytes)
	}
	c1 := readCounts(t, fs1, "/out")
	c2 := readCounts(t, fs2, "/out")
	for k, v := range c1 {
		if c2[k] != v {
			t.Fatalf("combiner changed results: %s %d vs %d", k, c1[k], c2[k])
		}
	}
}

func TestMapTaskPerBlock(t *testing.T) {
	e, fs, m := testEnv(t, 2, Options{})
	lines := make([]string, 400) // with 4 KiB blocks this spans several blocks
	for i := range lines {
		lines[i] = strings.Repeat("word ", 20)
	}
	writeWords(t, fs, "/in", lines)
	splits, _ := fs.Splits("/in")
	if len(splits) < 2 {
		t.Fatalf("test premise broken: %d splits", len(splits))
	}
	if _, err := e.Submit(wordCountJob("/in", "/out", false)); err != nil {
		t.Fatal(err)
	}
	if got := m.Get(metrics.TasksLaunched); got != int64(len(splits)+3) {
		t.Fatalf("tasks launched %d, want %d map + 3 reduce", got, len(splits))
	}
}

func TestLocalityPreference(t *testing.T) {
	spec := cluster.Uniform(4)
	m := metrics.NewSet()
	// Single replica: a locality-aware run should read every split
	// locally, a locality-blind run mostly remotely.
	fs := dfs.New(dfs.Config{BlockSize: 1 << 10, Replication: 1}, spec.IDs(), m)
	lines := make([]string, 200)
	for i := range lines {
		lines[i] = strings.Repeat("w ", 30)
	}
	writeWords(t, fs, "/in", lines)

	e, _ := NewEngine(fs, spec, m, Options{LocalityAware: true})
	if _, err := e.Submit(wordCountJob("/in", "/out1", false)); err != nil {
		t.Fatal(err)
	}
	localRemote := m.Get(metrics.DFSReadRemote)

	e2, _ := NewEngine(fs, spec, m, Options{LocalityAware: false})
	if _, err := e2.Submit(wordCountJob("/in", "/out2", false)); err != nil {
		t.Fatal(err)
	}
	blindRemote := m.Get(metrics.DFSReadRemote) - localRemote
	if localRemote >= blindRemote {
		t.Fatalf("locality-aware remote reads (%d) should be below blind ones (%d)", localRemote, blindRemote)
	}
}

func TestTaskRetryOnInjectedFailure(t *testing.T) {
	var failures atomic.Int64
	e, fs, m := testEnv(t, 2, Options{})
	e.failTask = func(job, kind string, task, attempt int) bool {
		if kind == "map" && task == 0 && attempt == 1 {
			failures.Add(1)
			return true
		}
		return false
	}
	writeWords(t, fs, "/in", []string{"a b", "b c"})
	if _, err := e.Submit(wordCountJob("/in", "/out", false)); err != nil {
		t.Fatal(err)
	}
	if failures.Load() != 1 {
		t.Fatalf("injector fired %d times", failures.Load())
	}
	if m.Get(metrics.TaskRetries) != 1 {
		t.Fatalf("retries = %d, want 1", m.Get(metrics.TaskRetries))
	}
	counts := readCounts(t, fs, "/out")
	if counts["b"] != 2 {
		t.Fatalf("retry corrupted results: %v", counts)
	}
}

func TestReduceRetry(t *testing.T) {
	e, fs, m := testEnv(t, 2, Options{})
	e.failTask = func(job, kind string, task, attempt int) bool {
		return kind == "reduce" && attempt == 1
	}
	writeWords(t, fs, "/in", []string{"a b c d e f"})
	if _, err := e.Submit(wordCountJob("/in", "/out", false)); err != nil {
		t.Fatal(err)
	}
	if m.Get(metrics.TaskRetries) != 3 { // one per reduce task
		t.Fatalf("retries = %d, want 3", m.Get(metrics.TaskRetries))
	}
	counts := readCounts(t, fs, "/out")
	if len(counts) != 6 {
		t.Fatalf("results wrong after reduce retries: %v", counts)
	}
}

func TestJobFailsAfterMaxAttempts(t *testing.T) {
	e, fs, _ := testEnv(t, 2, Options{})
	e.failTask = func(job, kind string, task, attempt int) bool {
		return kind == "map" && task == 0
	}
	writeWords(t, fs, "/in", []string{"a"})
	_, err := e.Submit(wordCountJob("/in", "/out", false))
	if want := fmt.Sprintf("map task 0 failed after %d attempts", maxAttempts); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

func TestUserMapErrorFailsJob(t *testing.T) {
	e, fs, _ := testEnv(t, 2, Options{})
	writeWords(t, fs, "/in", []string{"a"})
	job := wordCountJob("/in", "/out", false)
	job.Map = func(key, value any, emit kv.Emit) error {
		return fmt.Errorf("boom")
	}
	if _, err := e.Submit(job); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestInitTimeMeasured(t *testing.T) {
	spec := cluster.Uniform(2)
	spec.JobInitOverhead = 30 * time.Millisecond
	spec.TaskStartOverhead = 5 * time.Millisecond
	m := metrics.NewSet()
	fs := dfs.New(dfs.Config{BlockSize: 1 << 20, Replication: 1}, spec.IDs(), m)
	writeWords(t, fs, "/in", []string{"a b c"})
	e, _ := NewEngine(fs, spec, m, Options{})
	res, err := e.Submit(wordCountJob("/in", "/out", false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Init < 35*time.Millisecond {
		t.Fatalf("Init = %v, want >= 35ms (job init + task start)", res.Init)
	}
	if res.Wall < res.Init {
		t.Fatalf("Wall %v < Init %v", res.Wall, res.Init)
	}
}

func TestJobValidation(t *testing.T) {
	e, fs, _ := testEnv(t, 1, Options{})
	writeWords(t, fs, "/in", []string{"a"})
	good := wordCountJob("/in", "/out", false)
	bad := []*Job{
		{},
		{Name: "x", Input: []string{"/in"}, Output: "/o", Reduce: good.Reduce, NumReduce: 1, Ops: good.Ops}, // no map
		{Name: "x", Input: []string{"/in"}, Output: "/o", Map: good.Map, MapSrc: func(string, any, any, kv.Emit) error { return nil },
			Reduce: good.Reduce, NumReduce: 1, Ops: good.Ops}, // both maps
		{Name: "x", Input: []string{"/in"}, Output: "/o", Map: good.Map, NumReduce: 1, Ops: good.Ops},                    // no reduce
		{Name: "x", Input: []string{"/in"}, Output: "/o", Map: good.Map, Reduce: good.Reduce, Ops: good.Ops},             // no partitions
		{Name: "x", Input: []string{"/in"}, Output: "/o", Map: good.Map, Reduce: good.Reduce, NumReduce: 1},              // no ops
		{Name: "x", Input: nil, Output: "/o", Map: good.Map, Reduce: good.Reduce, NumReduce: 1, Ops: good.Ops},           // no input
		{Name: "x", Input: []string{"/in"}, Output: "", Map: good.Map, Reduce: good.Reduce, NumReduce: 1, Ops: good.Ops}, // no output
	}
	for i, j := range bad {
		if _, err := e.Submit(j); err == nil {
			t.Errorf("bad job %d accepted", i)
		}
	}
	if _, err := e.Submit(good); err != nil {
		t.Fatalf("good job rejected: %v", err)
	}
}

// TestZeroOpsNamesOpsFor: the refusal of a job without Ops says where
// Ops come from.
func TestZeroOpsNamesOpsFor(t *testing.T) {
	e, fs, _ := testEnv(t, 1, Options{})
	writeWords(t, fs, "/in", []string{"a"})
	job := wordCountJob("/in", "/out", false)
	job.Ops = kv.Ops{}
	if _, err := e.Submit(job); err == nil || !strings.Contains(err.Error(), "kv.OpsFor") {
		t.Fatalf("zero Ops: Submit error %v, want one naming kv.OpsFor", err)
	}
}

func TestWordCountOnDiskBackedDFS(t *testing.T) {
	spec := cluster.Uniform(2)
	m := metrics.NewSet()
	fs := dfs.New(dfs.Config{BlockSize: 1 << 10, Replication: 2, SpillDir: t.TempDir()}, spec.IDs(), m)
	e, err := NewEngine(fs, spec, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, 50)
	for i := range lines {
		lines[i] = "spill test words spill"
	}
	writeWords(t, fs, "/in", lines)
	if _, err := e.Submit(wordCountJob("/in", "/out", true)); err != nil {
		t.Fatal(err)
	}
	counts := readCounts(t, fs, "/out")
	if counts["spill"] != 100 || counts["test"] != 50 {
		t.Fatalf("disk-backed counts wrong: %v", counts)
	}
}

func TestJobSurvivesDatanodeFailure(t *testing.T) {
	// The input's primary replica holder dies before the job runs; map
	// tasks must read from surviving replicas.
	e, fs, _ := testEnv(t, 3, Options{LocalityAware: true})
	writeWords(t, fs, "/in", []string{"a b c", "c d", "a a"})
	fs.FailNode("worker-0")
	if _, err := e.Submit(wordCountJob("/in", "/out", false)); err != nil {
		t.Fatal(err)
	}
	counts := readCounts(t, fs, "/out")
	if counts["a"] != 3 || counts["c"] != 2 {
		t.Fatalf("wrong counts after datanode failure: %v", counts)
	}
}

func TestMissingInput(t *testing.T) {
	e, _, _ := testEnv(t, 1, Options{})
	if _, err := e.Submit(wordCountJob("/nope", "/out", false)); err == nil {
		t.Fatal("expected error for missing input")
	}
}
