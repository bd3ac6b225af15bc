package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"imapreduce/internal/cluster"
	"imapreduce/internal/dfs"
	"imapreduce/internal/kv"
)

// spreadSpec is a PageRank-shaped chain over n keys: key k keeps half of
// its state and sends the other half to the key its static data names,
// and the reduce sums what a key receives in arrival order, so a value
// lost, repeated or reordered by the shuffle changes the output bits.
// Keys at or above n are padding, dropped by the first reduce. With
// arrive set, each partition's reduce waits at its first padding key
// until every partition's reduce has reached its own, so the first job
// holds one reduce scratch per partition at once.
func spreadSpec(name string, n, numReduce int, arrive *sync.WaitGroup) IterSpec {
	ops := kv.OpsFor[int64, IterValue](nil)
	once := make([]sync.Once, numReduce)
	return IterSpec{
		Name:    name,
		Input:   "/init",
		WorkDir: "/" + name,
		Map: func(key, value any, emit kv.Emit) error {
			v := value.(IterValue)
			half := v.State.(float64) / 2
			emit(key, IterValue{State: half, Static: v.Static})
			if to := v.Static.(int64); to >= 0 {
				emit(to, half)
			}
			return nil
		},
		Reduce: func(key any, values []any, emit kv.Emit) error {
			if key.(int64) >= int64(n) {
				if arrive != nil {
					once[ops.Partition(key, numReduce)].Do(func() { arrive.Done(); arrive.Wait() })
				}
				return nil
			}
			var sum float64
			var carrier IterValue
			found := false
			for _, v := range values {
				switch x := v.(type) {
				case float64:
					sum += x
				case IterValue:
					carrier, found = x, true
					sum += x.State.(float64)
				}
			}
			if !found {
				return fmt.Errorf("key %v: no carrier among %d values", key, len(values))
			}
			emit(key, IterValue{State: sum, Static: carrier.Static})
			return nil
		},
		NumReduce:     numReduce,
		Ops:           ops,
		MaxIter:       4,
		DistThreshold: 1e-300, // checks run, and never stop the chain
		Distance: func(_, prev, curr any) float64 {
			return math.Abs(prev.(IterValue).State.(float64) - curr.(IterValue).State.(float64))
		},
	}
}

// writeSpreadInput stores spreadSpec's input: keys below n with state
// 1/(k+1) sending to (7k+3) mod n, then padding keys that send nowhere.
func writeSpreadInput(t *testing.T, fs *dfs.DFS, n, padding int) {
	t.Helper()
	recs := make([]kv.Pair, n+padding)
	for k := range recs {
		v := IterValue{State: 0.0, Static: int64(-1)}
		if k < n {
			v = IterValue{State: 1 / float64(k+1), Static: int64((7*k + 3) % n)}
		}
		recs[k] = kv.Pair{Key: int64(k), Value: v}
	}
	if err := fs.WriteFile("/init", "worker-0", recs, kv.OpsFor[int64, IterValue](nil)); err != nil {
		t.Fatal(err)
	}
}

// checkLists fails unless every run and reduce scratch in sc's lists is
// there once and holds no reference, and returns the lists' lengths.
func checkLists(t *testing.T, sc *scratch) (runs, reduces int) {
	t.Helper()
	sc.mu.Lock()
	defer sc.mu.Unlock()
	seenRun := map[*run]bool{}
	for _, r := range sc.runs {
		if seenRun[r] {
			t.Fatal("a run is in the free list twice")
		}
		seenRun[r] = true
		if r.next != nil {
			t.Fatal("a free run still links to another")
		}
		for i, p := range r.recs {
			if p.Key != nil || p.Value != nil {
				t.Fatalf("a free run still holds record %d: %v", i, p)
			}
		}
	}
	seenRed := map[*reduceScratch]bool{}
	for _, rs := range sc.reduces {
		if seenRed[rs] {
			t.Fatal("a reduce scratch is in the free list twice")
		}
		seenRed[rs] = true
		if len(rs.fetched) != 0 || len(rs.out) != 0 {
			t.Fatalf("a free reduce scratch has %d fetched and %d output records", len(rs.fetched), len(rs.out))
		}
		for _, buf := range [][]kv.Pair{rs.fetched[:cap(rs.fetched)], rs.out[:cap(rs.out)]} {
			for i, p := range buf {
				if p.Key != nil || p.Value != nil {
					t.Fatalf("a free reduce scratch still holds record %d: %v", i, p)
				}
			}
		}
	}
	return len(sc.runs), len(sc.reduces)
}

// TestChainRecyclesShuffleBuffers: the jobs of a chain, its convergence
// checks included, share one scratch. The first job carries padding
// that later jobs do not, so it has the largest output and the most
// reduces at once; every later job must then take all its spill runs
// and reduce scratch from what earlier jobs returned, allocating none.
func TestChainRecyclesShuffleBuffers(t *testing.T) {
	allocs := func(n, padding, numReduce, iters int) (runs, reduces int) {
		spec := cluster.Uniform(numReduce)
		fs := dfs.New(dfs.Config{BlockSize: 1 << 30, Replication: 1}, spec.IDs(), nil)
		e, err := NewEngine(fs, spec, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		writeSpreadInput(t, fs, n, padding)
		var arrive sync.WaitGroup
		arrive.Add(numReduce)
		chain := spreadSpec("recycle", n, numReduce, &arrive)
		chain.MaxIter = iters
		sc := new(scratch)
		res, err := e.runIterative(context.Background(), chain, sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != iters || (iters >= 2 && res.Stats[iters-1].Distance <= 0) {
			t.Fatalf("%d iterations, last distance %v: the checks did not run", res.Iterations, res.Stats[len(res.Stats)-1].Distance)
		}
		freeRuns, freeReduces := checkLists(t, sc)
		if freeRuns != sc.newRuns || freeReduces != sc.newReduces {
			t.Fatalf("%d of %d runs and %d of %d reduce scratch came back", freeRuns, sc.newRuns, freeReduces, sc.newReduces)
		}
		return sc.newRuns, sc.newReduces
	}
	const n, padding, numReduce = 2000, 20000, 2
	runs1, reduces1 := allocs(n, padding, numReduce, 1)
	runs4, reduces4 := allocs(n, padding, numReduce, 4)
	t.Logf("allocated by the first job: %d runs, %d reduce scratch; by a 4-iteration chain with checks: %d, %d",
		runs1, reduces1, runs4, reduces4)
	if reduces1 != numReduce {
		t.Fatalf("test premise broken: the first job held %d reduce scratch, want %d", reduces1, numReduce)
	}
	if runs4 != runs1 || reduces4 != reduces1 {
		t.Errorf("jobs after the first allocated %d spill runs and %d reduce scratch, want none",
			runs4-runs1, reduces4-reduces1)
	}

	// The checks draw from the same lists: with one reducer and no
	// padding an iteration's map output fits one run, while a check maps
	// the two iterations' part files in two tasks, a run each.
	if runs, _ := allocs(1000, 0, 1, 1); runs != 1 {
		t.Fatalf("test premise broken: an iteration took %d runs, want 1", runs)
	}
	if runs, _ := allocs(1000, 0, 1, 4); runs != 2 {
		t.Errorf("a chain whose checks need two runs allocated %d, want 2", runs)
	}
}

// TestChainScratchIsolation: a retried reduce, a chain canceled inside
// its reduce wave and two chains at once on one engine each keep their
// chain's scratch to themselves. A retried chain writes what a clean one
// writes; a canceled one returns the cause and never hands back a run
// its abandoned attempts may still read; no run or reduce scratch is
// returned twice or with a reference left in it.
func TestChainScratchIsolation(t *testing.T) {
	const n, numReduce = 3000, 2
	e, fs, _ := testEnv(t, 2, Options{})
	writeSpreadInput(t, fs, n, 0)
	sums := func(dir string) [numReduce]uint32 {
		t.Helper()
		var s [numReduce]uint32
		for r := range s {
			sum, err := fs.Checksum(fmt.Sprintf("%s/part-%d", dir, r))
			if err != nil {
				t.Fatal(err)
			}
			s[r] = sum
		}
		return s
	}
	clean, err := RunIterativeCtx(context.Background(), e, spreadSpec("clean", n, numReduce, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := sums(clean.OutputPath)
	allBack := func(t *testing.T, sc *scratch) {
		t.Helper()
		if runs, reduces := checkLists(t, sc); runs != sc.newRuns || reduces != sc.newReduces {
			t.Fatalf("%d of %d runs and %d of %d reduce scratch came back", runs, sc.newRuns, reduces, sc.newReduces)
		}
	}

	t.Run("retry", func(t *testing.T) {
		var failed atomic.Int64
		e.failTask = func(job, kind string, task, attempt int) bool {
			if job == "retry-iter-002" && kind == "reduce" && attempt == 1 {
				failed.Add(1)
				return true
			}
			return false
		}
		defer func() { e.failTask = nil }()
		sc := new(scratch)
		res, err := e.runIterative(context.Background(), spreadSpec("retry", n, numReduce, nil), sc)
		if err != nil {
			t.Fatal(err)
		}
		if failed.Load() != numReduce {
			t.Fatalf("injector fired %d times, want %d", failed.Load(), numReduce)
		}
		if got := sums(res.OutputPath); got != want {
			t.Fatalf("output checksums %v after retries, want %v", got, want)
		}
		allBack(t, sc)
	})

	t.Run("cancel", func(t *testing.T) {
		ctx, cancel := context.WithCancelCause(context.Background())
		cause := errors.New("canceled by the test")
		release := make(chan struct{})
		e.failTask = func(job, kind string, task, attempt int) bool {
			if job == "cancel-iter-002" && kind == "reduce" {
				cancel(cause)
				<-release // read the runs only after the chain has returned
			}
			return false
		}
		defer func() { e.failTask = nil }()
		sc := new(scratch)
		_, err := e.runIterative(ctx, spreadSpec("cancel", n, numReduce, nil), sc)
		close(release)
		if !errors.Is(err, cause) {
			t.Fatalf("err = %v, want it to wrap %v", err, cause)
		}
		// The abandoned attempts go on to write their parts and return
		// their reduce scratch; iteration 2's runs stay out.
		deadline := time.Now().Add(10 * time.Second)
		for {
			written := len(fs.List("/cancel/iter-002/")) == numReduce
			sc.mu.Lock()
			back := len(sc.reduces) == sc.newReduces
			sc.mu.Unlock()
			if written && back {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("the abandoned reduce attempts did not finish")
			}
			time.Sleep(time.Millisecond)
		}
		if runs, _ := checkLists(t, sc); runs >= sc.newRuns {
			t.Fatalf("%d of %d runs are free: the canceled job's runs came back", runs, sc.newRuns)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		scs := []*scratch{new(scratch), new(scratch)}
		outs := make([]string, len(scs))
		errs := make([]error, len(scs))
		var wg sync.WaitGroup
		for i, sc := range scs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := e.runIterative(context.Background(), spreadSpec(fmt.Sprintf("both-%d", i), n, numReduce, nil), sc)
				if err == nil {
					outs[i] = res.OutputPath
				}
				errs[i] = err
			}()
		}
		wg.Wait()
		for i, sc := range scs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if got := sums(outs[i]); got != want {
				t.Fatalf("chain %d: output checksums %v beside another chain, want %v", i, got, want)
			}
			allBack(t, sc)
		}
	})
}
