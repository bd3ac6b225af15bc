package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"imapreduce/internal/kv"
)

// TestMergeJoinMatchesHashJoin is the property the merge join must keep:
// over random partitions the user map is handed exactly the (key, state,
// static) triples a hash table built from the static file in file order
// would have produced, in every iteration. The inputs cover what breaks
// a cursor: state in shuffled order (the first iteration reads it in DFS
// order), state keys the static data lacks and static keys no state
// carries, static keys written twice (the last record wins), a static
// file with no records — on one task pair and on four (par1 and par4: the
// data split into that many static and state partitions), streamed and
// whole-iteration map input. The same job with string keys is rejected
// with ErrKeyType before it starts: the column loops key by int64.
func TestMergeJoinMatchesHashJoin(t *testing.T) {
	guard(t, 2*time.Minute)
	kinds := []struct {
		name string
		key  func(i int) any
		ops  kv.Ops
	}{
		{"int64", func(i int) any { return int64(i) }, f64Ops()},
		{"string", func(i int) any { return fmt.Sprintf("k%05d", i) }, kv.OpsFor[string, float64](nil)},
	}
	const iters = 3
	for _, kind := range kinds {
		for _, par := range []int{1, 4} {
			for _, syncMap := range []bool{false, true} {
				for seed := int64(0); seed < 3; seed++ {
					name := fmt.Sprintf("%s/par%d/sync%v/seed%d", kind.name, par, syncMap, seed)
					t.Run(name, func(t *testing.T) {
						rng := rand.New(rand.NewSource(seed))
						const universe = 1500
						var static, state []kv.Pair
						if seed > 0 { // seed 0: every static partition is empty
							for i := 0; i < universe; i++ {
								for c := rng.Intn(4); c > 0 && c < 3; c-- { // 0, 1 or 2 records
									static = append(static, kv.Pair{Key: kind.key(i), Value: rng.Float64()})
								}
							}
						}
						for i := 0; i < universe; i++ {
							if rng.Intn(4) > 0 {
								state = append(state, kv.Pair{Key: kind.key(i), Value: float64(1000 * i)})
							}
						}
						rng.Shuffle(len(static), func(i, j int) { static[i], static[j] = static[j], static[i] })
						rng.Shuffle(len(state), func(i, j int) { state[i], state[j] = state[j], state[i] })

						idx := map[any]any{} // the hash join this replaces
						for _, p := range static {
							idx[p.Key] = p.Value
						}
						var want []string
						for it := 0; it < iters; it++ {
							for _, p := range state {
								want = append(want, fmt.Sprint(p.Key, p.Value.(float64)+float64(it), idx[p.Key]))
							}
						}

						v := newEnv(t, 2, Options{})
						if err := v.fs.WriteFile("/static", "worker-0", static, kind.ops); err != nil {
							t.Fatal(err)
						}
						if err := v.fs.WriteFile("/state", "worker-0", state, kind.ops); err != nil {
							t.Fatal(err)
						}
						var mu sync.Mutex
						var got []string
						res, err := v.e.Run(&Job{
							Name: "join", StatePath: "/state", StaticPath: "/static",
							Map: func(key, state, static any, emit kv.Emit) error {
								mu.Lock()
								got = append(got, fmt.Sprint(key, state, static))
								mu.Unlock()
								emit(key, state)
								return nil
							},
							// The iteration is readable off the state: +1 a round.
							Reduce:          func(key any, states []any) (any, error) { return states[0].(float64) + 1, nil },
							MaxIter:         iters,
							NumTasks:        par,
							SyncMap:         syncMap,
							BufferThreshold: 200, // several chunks per iteration
							Ops:             kind.ops,
						})
						if kind.name == "string" {
							if !errors.Is(err, ErrKeyType) || res != nil || len(got) > 0 {
								t.Fatalf("a string-keyed job ran: error %v, %d map calls", err, len(got))
							}
							return
						}
						if err != nil {
							t.Fatal(err)
						}
						slices.Sort(want)
						slices.Sort(got)
						if !slices.Equal(got, want) {
							t.Fatalf("map saw %d triples, hash join gives %d; first difference: %s",
								len(got), len(want), firstDiff(got, want))
						}
					})
				}
			}
		}
	}
}

func firstDiff(got, want []string) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("got %q, want %q", got[i], want[i])
		}
	}
	return "one is a prefix of the other"
}

// shuffledState writes n records key i -> i+1 in a shuffled file order,
// so every load of the previous-state run has sorting to do.
func (v *env) shuffledState(t *testing.T, path string, n int) {
	t.Helper()
	recs := make([]kv.Pair, n)
	for i := range recs {
		recs[i] = kv.Pair{Key: int64(i), Value: float64(i + 1)}
	}
	rand.New(rand.NewSource(7)).Shuffle(n, func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	if err := v.fs.WriteFile(path, v.spec.IDs()[0], recs, f64Ops()); err != nil {
		t.Fatal(err)
	}
}

// TestPrevStateKeepsAbsentKey: the previous-state run is a union. A key
// the maps stop emitting takes no part in that iteration's distance, and
// reaches the final output with the last value it had.
func TestPrevStateKeepsAbsentKey(t *testing.T) {
	v := newEnv(t, 2, Options{})
	const n, dropped = 10, int64(7)
	v.shuffledState(t, "/state", n)
	job := halvingJob("halve-skip", 3, 0)
	job.Distance = func(key, prev, curr any) float64 { return prev.(float64) - curr.(float64) }
	job.Map = func(key, state, static any, emit kv.Emit) error {
		if key == dropped && state.(float64) < float64(dropped+1) {
			return nil // from iteration 2 on
		}
		emit(key, state)
		return nil
	}
	res, err := v.e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	// Iteration i moves key k by (k+1)/2^i; all of it is exact in float64.
	for i, it := range res.PerIter {
		want := 0.0
		for k := 0; k < n; k++ {
			if i == 0 || int64(k) != dropped {
				want += float64(k+1) / float64(int(2)<<i)
			}
		}
		if it.Dist != want {
			t.Errorf("iteration %d distance %v, want %v", it.Iter, it.Dist, want)
		}
	}
	out := v.readOutput(t, res.OutputPath)
	if len(out) != n {
		t.Fatalf("%d keys in the output, want %d", len(out), n)
	}
	for k, val := range out {
		want := float64(k+1) / 8
		if k == dropped {
			want = float64(k+1) / 2
		}
		if val != want {
			t.Errorf("key %d = %v, want %v", k, val, want)
		}
	}
}

// TestRollbackReloadsPrevState: after a recovery the previous-state run
// is rebuilt from the checkpoint, and every distance measured from there
// on equals the uninterrupted run's.
func TestRollbackReloadsPrevState(t *testing.T) {
	guard(t, time.Minute)
	const n, iters = 24, 8
	run := func(name string, failAt int) *Result {
		var eng *Engine
		var once sync.Once
		v := newEnv(t, 3, Options{OnIteration: func(it IterInfo) {
			if failAt > 0 && it.Iter >= failAt {
				once.Do(func() { _ = eng.FailWorker("worker-1") })
			}
		}})
		eng = v.e
		v.shuffledState(t, "/state", n)
		job := slowHalvingJob(name, iters, 2)
		job.Distance = func(key, prev, curr any) float64 { return prev.(float64) - curr.(float64) }
		res, err := v.e.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	calm, rolled := run("halve-calm", 0), run("halve-rolled", 3)
	if rolled.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", rolled.Recoveries)
	}
	if len(rolled.PerIter) != iters || len(calm.PerIter) != iters {
		t.Fatalf("%d and %d iterations reported, want %d", len(rolled.PerIter), len(calm.PerIter), iters)
	}
	for i := range calm.PerIter {
		if rolled.PerIter[i].Dist != calm.PerIter[i].Dist {
			t.Errorf("iteration %d: distance %v after the rollback, %v without", i+1, rolled.PerIter[i].Dist, calm.PerIter[i].Dist)
		}
	}
}

// TestJoinSteadyStateAllocs gates the two joins' allocation-flat steady
// state on the boxed loops, over keys past 255, which Go cannot box
// without allocating: a warm mapState over a key-ordered input — each map
// call handed its static record's key box — and a warm merge pass of the
// previous-state run, which keeps its keys' boxes, allocate nothing.
func TestJoinSteadyStateAllocs(t *testing.T) {
	const n = 4096
	ops := f64Ops()
	pairs := make([]kv.Pair, n)
	for i := range pairs {
		pairs[i] = kv.Pair{Key: int64(i), Value: float64(i)}
	}
	mt := &mapTask{numReduce: 1, job: &Job{Ops: ops, Map: func(key, state, static any, emit kv.Emit) error {
		if static == nil || key.(int64) != static.(kv.Pair).Key {
			return fmt.Errorf("key %v joined with %v", key, static)
		}
		return nil
	}}}
	l := boxedDef{}.mapLoops(mt)
	static := make([]kv.Pair, n) // each static value the record itself
	for i, p := range pairs {
		static[i] = kv.Pair{Key: p.Key, Value: p}
	}
	if err := l.setStatic(static); err != nil {
		t.Fatal(err)
	}
	in, err := l.unbox(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(20, func() {
		if err := l.mapState(in); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("warm mapState allocates %v times per %d records, want 0", a, n)
	}

	prev := colRun[any]{boxed: true}
	if err := prev.load(slices.Clone(pairs)); err != nil {
		t.Fatal(err)
	}
	pass := func() {
		for _, p := range pairs {
			_, box, had := prev.find(p.Key.(int64))
			if !had || box != p.Key {
				t.Fatal("key missing from the previous state, or its box not kept")
			}
			prev.put(p.Key.(int64), box, p.Value, had)
		}
		prev.end()
	}
	pass() // sizes the second columns
	if a := testing.AllocsPerRun(20, pass); a != 0 {
		t.Errorf("warm previous-state merge allocates %v times per %d records, want 0", a, n)
	}
}
