package mapreduce

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"testing"
	"time"
	"unsafe"

	"imapreduce/internal/cluster"
	"imapreduce/internal/dfs"
	"imapreduce/internal/kv"
)

// orderJob's map turns input record (i, i) into perRecord pairs over
// orderKeys keys, each valued with its emit number i*perRecord+j, which
// grows in map-task, then emit, order. Its reduce — and, when combine is
// set, its combiner — folds a key's values into a fingerprint of the order
// it received them in.
func orderJob(input, output string, perRecord int64, combine bool) *Job {
	const orderKeys = 40
	fold := func(key any, values []any, emit kv.Emit) error {
		var h int64
		for _, v := range values {
			h = h*1_000_003 + v.(int64) // wraps; any reordering shows
		}
		emit(key, h)
		return nil
	}
	j := &Job{
		Name:   "order",
		Input:  []string{input},
		Output: output,
		Map: func(key, value any, emit kv.Emit) error {
			base := value.(int64) * perRecord
			for n := base; n < base+perRecord; n++ {
				emit(n%orderKeys, n)
			}
			return nil
		},
		Reduce:    fold,
		NumReduce: 2,
		Ops:       kv.OpsFor[int64, int64](nil),
	}
	if combine {
		j.Combine = fold
	}
	return j
}

// writeSeq stores records (i, i) for i in [0, n).
func writeSeq(t *testing.T, fs *dfs.DFS, path string, n int) {
	t.Helper()
	recs := make([]kv.Pair, n)
	for i := range recs {
		recs[i] = kv.Pair{Key: int64(i), Value: int64(i)}
	}
	if err := fs.WriteFile(path, "worker-0", recs, kv.OpsFor[int64, int64](nil)); err != nil {
		t.Fatal(err)
	}
}

// applyRef groups pairs by key, values in arrival order, and applies fn
// to the groups in key order.
func applyRef(t *testing.T, fn ReduceFunc, pairs []kv.Pair) []kv.Pair {
	t.Helper()
	byKey := map[int64][]any{}
	var keys []int64
	for _, p := range pairs {
		k := p.Key.(int64)
		if _, ok := byKey[k]; !ok {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], p.Value)
	}
	slices.Sort(keys)
	var out []kv.Pair
	for _, k := range keys {
		if err := fn(k, byKey[k], func(k, v any) { out = append(out, kv.Pair{Key: k, Value: v}) }); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// singleSliceRef is what job must write: each split's map output kept in
// one slice per partition — combined per split when the job has a
// combiner — and appended split after split, then grouped and reduced.
// It also returns the fewest records one split sent one partition.
func singleSliceRef(t *testing.T, fs *dfs.DFS, job *Job) (map[int64]int64, int) {
	t.Helper()
	splits, err := fs.Splits(job.Input[0])
	if err != nil {
		t.Fatal(err)
	}
	shuffled := make([][]kv.Pair, job.NumReduce)
	fewest := math.MaxInt
	for _, s := range splits {
		recs, err := fs.ReadSplit(s, "worker-0")
		if err != nil {
			t.Fatal(err)
		}
		local := make([][]kv.Pair, job.NumReduce)
		for _, r := range recs {
			if err := job.Map(r.Key, r.Value, func(k, v any) {
				p := job.Ops.Partition(k, job.NumReduce)
				local[p] = append(local[p], kv.Pair{Key: k, Value: v})
			}); err != nil {
				t.Fatal(err)
			}
		}
		for p := range local {
			fewest = min(fewest, len(local[p]))
			if job.Combine != nil {
				local[p] = applyRef(t, job.Combine, local[p])
			}
			shuffled[p] = append(shuffled[p], local[p]...)
		}
	}
	out := map[int64]int64{}
	for p := range shuffled {
		for _, r := range applyRef(t, job.Reduce, shuffled[p]) {
			out[r.Key.(int64)] = r.Value.(int64)
		}
	}
	return out, fewest
}

// TestSpillRunsKeepShuffleOrder: with more than three spill runs per
// partition in every map task, a reduce still receives each key's values
// in map-task, then emit, order — with and without a combiner — and the
// distance job of an iterative chain (a MapSrc job) measures what a
// single-slice shuffle measures.
func TestSpillRunsKeepShuffleOrder(t *testing.T) {
	for _, combine := range []bool{false, true} {
		t.Run(fmt.Sprintf("combine=%v", combine), func(t *testing.T) {
			spec := cluster.Uniform(3)
			fs := dfs.New(dfs.Config{BlockSize: 512, Replication: 2}, spec.IDs(), nil) // 32 records a block
			writeSeq(t, fs, "/in", 96)
			e, err := NewEngine(fs, spec, nil, Options{LocalityAware: true})
			if err != nil {
				t.Fatal(err)
			}
			job := orderJob("/in", "/out", 500, combine)
			want, fewest := singleSliceRef(t, fs, job)
			if fewest <= 3*spillRun {
				t.Fatalf("test premise broken: a map task sends a partition only %d records", fewest)
			}
			if _, err := e.Submit(job); err != nil {
				t.Fatal(err)
			}
			got := map[int64]int64{}
			for _, part := range fs.List("/out/") {
				recs, err := fs.ReadFile(part, "worker-0")
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range recs {
					got[r.Key.(int64)] = r.Value.(int64)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%d keys out, want %d", len(got), len(want))
			}
			for k, w := range want {
				if got[k] != w {
					t.Fatalf("key %d: fingerprint %d, want %d: values arrived out of order", k, got[k], w)
				}
			}
		})
	}

	t.Run("distance", func(t *testing.T) {
		// Key k starts at k and halves every iteration, so iteration i's
		// distance is S/2^i with S the sum of the keys — exact in float64
		// whatever the summation order. Every part file is one block, so
		// each distance-job map task sends its whole part to one
		// partition.
		const n, numReduce = 16000, 2
		spec := cluster.Uniform(2)
		fs := dfs.New(dfs.Config{BlockSize: 1 << 30, Replication: 1}, spec.IDs(), nil)
		ops := kv.OpsFor[int64, float64](nil)
		recs := make([]kv.Pair, n)
		for i := range recs {
			recs[i] = kv.Pair{Key: int64(i), Value: float64(i)}
		}
		if err := fs.WriteFile("/state", "worker-0", recs, ops); err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(fs, spec, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		s := float64(n * (n - 1) / 2)
		res, err := RunIterativeCtx(context.Background(), e, IterSpec{
			Name: "halve", Input: "/state", WorkDir: "/work",
			Map: func(key, value any, emit kv.Emit) error { emit(key, value); return nil },
			Reduce: func(key any, values []any, emit kv.Emit) error {
				emit(key, values[0].(float64)/2)
				return nil
			},
			NumReduce:     numReduce,
			Ops:           ops,
			DistThreshold: s / 20, // S/16 at iteration 4, S/32 at 5
			Distance:      func(_, prev, curr any) float64 { return math.Abs(prev.(float64) - curr.(float64)) },
			KeepOutputs:   true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged || res.Iterations != 5 {
			t.Fatalf("converged=%v after %d iterations, want true after 5", res.Converged, res.Iterations)
		}
		for _, st := range res.Stats[1:] {
			if want := s / float64(int64(1)<<st.Iteration); st.Distance != want {
				t.Fatalf("iteration %d: distance %v, want %v", st.Iteration, st.Distance, want)
			}
		}
		for r := 0; r < numReduce; r++ {
			st, err := fs.StatFile(fmt.Sprintf("%s/part-%d", res.OutputPath, r))
			if err != nil {
				t.Fatal(err)
			}
			if st.Blocks != 1 || st.Records <= 3*spillRun {
				t.Fatalf("test premise broken: part %d has %d records in %d blocks", r, st.Records, st.Blocks)
			}
		}
		out, err := fs.ReadFile(res.OutputPath+"/part-0", "worker-0")
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range out {
			if want := float64(p.Key.(int64)) / 32; p.Value != want {
				t.Fatalf("key %v: %v after 5 halvings, want %v", p.Key, p.Value, want)
			}
		}
	})
}

// fewestAllocs is testing.AllocsPerRun's count for f with the collector
// off, the fewest of five measurements. The count is process-wide: a
// collection empties fmt's sync.Pool, whose refill would count, and task
// attempts other tests' jobs left running (an attempt of a canceled job
// finishing late) allocate beside f; both only ever add.
func fewestAllocs(f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := math.Inf(1)
	for i := 0; i < 5; i++ {
		least = min(least, testing.AllocsPerRun(5, f))
	}
	return least
}

// TestMapAttemptAllocs gates the map side: beyond what the user map boxes
// (nothing here — its keys and values are boxed up front), a cold map
// attempt allocates its spill runs, at most ⌈emitted/spillRun⌉ +
// NumReduce, and a constant few headers, whatever it emits. A warm one —
// on a scratch its predecessor's runs went back to — allocates the
// headers alone.
func TestMapAttemptAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	if size := unsafe.Sizeof(run{}); size > 64<<10 {
		t.Fatalf("a spill run is %d bytes, more than the eight pages spillRun is sized for", size)
	}
	const numReduce, perRecord = 3, 1000
	keys := make([]any, 64)
	for i := range keys {
		keys[i] = int64(i)
	}
	var one any = int64(1)
	job := &Job{
		Name: "allocs",
		Map: func(_, value any, emit kv.Emit) error {
			for j := 0; j < perRecord; j++ {
				emit(keys[j%len(keys)], one)
			}
			return nil
		},
		NumReduce: numReduce,
		Ops:       kv.OpsFor[int64, int64](nil),
	}
	spec := cluster.Uniform(1)
	fs := dfs.New(dfs.Config{BlockSize: 1 << 30, Replication: 1}, spec.IDs(), nil)
	e, err := NewEngine(fs, spec, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	slot := make(chan struct{}, 1)
	for _, records := range []int{10, 70} {
		path := fmt.Sprintf("/in-%d", records)
		writeSeq(t, fs, path, records)
		splits, err := fs.Splits(path)
		if err != nil {
			t.Fatal(err)
		}
		attempt := func(sc *scratch) mapResult {
			mr, err := e.runMapAttempt(job, splits[0], "worker-0", 1, 0, slot, time.Now(), sc)
			if err != nil {
				t.Fatal(err)
			}
			return mr
		}
		emitted := records * perRecord
		if mr := attempt(new(scratch)); mr.parts[0].n+mr.parts[1].n+mr.parts[2].n != emitted {
			t.Fatalf("map output holds %d records, want %d", mr.parts[0].n+mr.parts[1].n+mr.parts[2].n, emitted)
		}
		const fixed = 8 // parts, partBytes, the emit closure, the counters
		bound := (emitted+spillRun-1)/spillRun + numReduce + fixed
		cold := new(scratch) // its runs never come back
		a := fewestAllocs(func() { attempt(cold) })
		t.Logf("%d records emitted, cold: %v allocations, bound %d", emitted, a, bound)
		if a > float64(bound) {
			t.Errorf("a cold map attempt emitting %d records allocates %v times, want at most %d", emitted, a, bound)
		}
		const warmBound = 5 // the headers of the cold bound
		warm := new(scratch)
		w := fewestAllocs(func() {
			mr := attempt(warm)
			for p := range mr.parts {
				warm.putRuns(&mr.parts[p])
			}
		})
		t.Logf("%d records emitted, warm: %v allocations, bound %d", emitted, w, warmBound)
		if w > warmBound {
			t.Errorf("a warm map attempt emitting %d records allocates %v times, want at most %d", emitted, w, warmBound)
		}
	}
}

// TestReduceAttemptAllocs gates the reduce side: a cold reduce attempt
// allocates its scratch — the fetch buffer, the output slice, the
// grouping scratch — and the part file's one block, each once, at its
// final size, so its allocation count does not depend on how many
// records it reduces. A warm one, on a scratch its predecessor returned,
// allocates the block and a few headers alone.
func TestReduceAttemptAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const maps, keys = 4, 500
	job := &Job{
		Name:      "allocs",
		Output:    "/out",
		Reduce:    func(key any, values []any, emit kv.Emit) error { emit(key, values[0]); return nil },
		NumReduce: 1,
		Ops:       kv.OpsFor[int64, int64](nil),
	}
	spec := cluster.Uniform(1)
	fs := dfs.New(dfs.Config{BlockSize: 1 << 30, Replication: 1}, spec.IDs(), nil)
	e, err := NewEngine(fs, spec, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	boxed := make([]any, keys)
	for i := range boxed {
		boxed[i] = int64(i)
	}
	slot := make(chan struct{}, 1)
	cold, warm := map[int]float64{}, map[int]float64{}
	for _, perMap := range []int{1000, 9000} { // one run a map, and five
		results := make([]mapResult, maps)
		mapSide := new(scratch)
		for m := range results {
			results[m] = mapResult{worker: "worker-0", parts: make([]spill, 1), partBytes: make([]int64, 1)}
			for i := 0; i < perMap; i++ {
				results[m].parts[0].add(kv.Pair{Key: boxed[i%keys], Value: boxed[i%keys]}, mapSide)
			}
		}
		attempt := func(sc *scratch) {
			if n, _, _, _, err := e.runReduceAttempt(job, 0, 1, "worker-0", results, slot, sc); err != nil || n != keys {
				t.Fatalf("reduce wrote %d records (err %v), want %d", n, err, keys)
			}
		}
		cold[perMap] = fewestAllocs(func() { attempt(new(scratch)) })
		sc := new(scratch)
		warm[perMap] = fewestAllocs(func() { attempt(sc) })
	}
	for _, counts := range []map[int]float64{cold, warm} {
		if counts[1000] != counts[9000] {
			t.Errorf("a reduce attempt allocates %v times over 4×1000 records and %v over 4×9000: something grows", counts[1000], counts[9000])
		}
	}
	t.Logf("allocations per reduce attempt: cold %v, warm %v", cold, warm)
	const most, warmMost = 24, 11
	if cold[9000] > most {
		t.Errorf("a cold reduce attempt allocates %v times, want at most %d", cold[9000], most)
	}
	if warm[9000] > warmMost {
		t.Errorf("a warm reduce attempt allocates %v times, want at most %d", warm[9000], warmMost)
	}
}
