package kv

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// randValue draws one wire-encodable value, covering every arena-boxed
// scalar shape, the string intern path, the slice fallback path, and
// (shallowly) nested pair lists.
func randValue(rng *rand.Rand, depth int) any {
	switch rng.Intn(12) {
	case 0:
		return nil
	case 1:
		return rng.Intn(2) == 1
	case 2:
		return int(rng.Int63()) - (1 << 40)
	case 3:
		return int32(rng.Int31() - (1 << 20))
	case 4:
		return rng.Int63() - (1 << 50)
	case 5:
		return rng.Uint64()
	case 6:
		return float32(rng.NormFloat64())
	case 7:
		return rng.NormFloat64()
	case 8:
		return strings.Repeat("s", rng.Intn(64)) + fmt.Sprint(rng.Int63())
	case 9:
		out := make([]float64, rng.Intn(4))
		for i := range out {
			out[i] = rng.NormFloat64()
		}
		return out
	case 10:
		if depth > 0 {
			return randPairs(rng, rng.Intn(3), depth-1)
		}
		return int64(7)
	default:
		return int64(rng.Intn(1 << 20))
	}
}

func randPairs(rng *rand.Rand, n, depth int) []Pair {
	out := make([]Pair, n)
	for i := range out {
		out[i] = Pair{Key: randValue(rng, 0), Value: randValue(rng, depth)}
	}
	return out
}

// TestDecodePairsSlabRoundTrip checks the arena decode against the
// allocating decode across many rounds that reuse one released slab —
// the reuse-after-release corruption check: round k's decode must be
// unaffected by rounds 1..k-1 having used (and released) the same
// arena blocks.
func TestDecodePairsSlabRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := AcquireSlab()
	for round := 0; round < 200; round++ {
		src := randPairs(rng, rng.Intn(300), 1)
		enc, ok := AppendPairs(nil, src)
		if !ok {
			t.Fatalf("round %d: encode refused", round)
		}
		want, wn, err := DecodePairs(enc)
		if err != nil {
			t.Fatalf("round %d: reference decode: %v", round, err)
		}
		got, gn, err := DecodePairsSlab(enc, s)
		if err != nil {
			t.Fatalf("round %d: slab decode: %v", round, err)
		}
		if gn != wn {
			t.Fatalf("round %d: consumed %d bytes, reference consumed %d", round, gn, wn)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: slab decode diverges:\n got %v\nwant %v", round, got, want)
		}
		s.Release()
		s = AcquireSlab()
	}
	s.Release()
}

// TestSlabReleaseKeepsValues checks the release rule: pairs copied out
// of a slab-decoded chunk must stay valid after the slab is recycled and
// reused by later decodes that overwrite its pair block.
func TestSlabReleaseKeepsValues(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := randPairs(rng, 500, 1)
	enc, ok := AppendPairs(nil, src)
	if !ok {
		t.Fatal("encode refused")
	}
	want, _, err := DecodePairs(enc)
	if err != nil {
		t.Fatal(err)
	}

	s := AcquireSlab()
	decoded, _, err := DecodePairsSlab(enc, s)
	if err != nil {
		t.Fatal(err)
	}
	// The accumulator pattern: copy the Pair structs out, then release
	// the chunk's slab.
	kept := append([]Pair(nil), decoded...)
	s.Release()

	// Grind the recycled slab through decodes that trample the pair
	// block and fill fresh value arenas.
	for i := 0; i < 50; i++ {
		s = AcquireSlab()
		if _, _, err := DecodePairsSlab(enc, s); err != nil {
			t.Fatal(err)
		}
		s.Release()
	}

	if !reflect.DeepEqual(kept, want) {
		t.Fatalf("retained values corrupted after slab reuse:\n got %v\nwant %v", kept, want)
	}
}

// TestSlabDoubleReleasePanics pins the ownership contract: releasing a
// slab twice is a bug, not a silent double-free into the pool.
func TestSlabDoubleReleasePanics(t *testing.T) {
	s := AcquireSlab()
	s.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second release did not panic")
		}
	}()
	s.Release()
}

// TestSlabPoolStress hammers the shared slab pool from concurrent
// goroutines, each doing full decode/verify/release cycles — run under
// -race this checks the handoff discipline end to end.
func TestSlabPoolStress(t *testing.T) {
	const workers = 8
	iters := 300
	if testing.Short() {
		iters = 50
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				src := randPairs(rng, 1+rng.Intn(200), 1)
				enc, ok := AppendPairs(nil, src)
				if !ok {
					errs <- fmt.Errorf("encode refused")
					return
				}
				want, _, err := DecodePairs(enc)
				if err != nil {
					errs <- err
					return
				}
				s := AcquireSlab()
				got, _, err := DecodePairsSlab(enc, s)
				if err != nil {
					errs <- err
					s.Release()
					return
				}
				if !reflect.DeepEqual(got, want) {
					errs <- fmt.Errorf("worker %d iter %d: decode diverges", seed, i)
					s.Release()
					return
				}
				s.Release()
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestDecodePairsAllocBudget is the CI gate on the receive path's
// steady-state allocation count: a full 4096-pair scalar decode through
// a recycled slab reuses the pair block and allocates only the few value
// arena blocks the previous Release handed to the collector (occasional
// pool misses after a GC are amortized across the runs). The heap decode
// measured 6132 allocs for the same input.
func TestDecodePairsAllocBudget(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race sweep")
	}
	const budget = 8.0
	enc, ok := AppendPairs(nil, benchPairs(4096, 512))
	if !ok {
		t.Fatal("encode refused")
	}
	// Warm the pool so the measured runs see steady state.
	s := AcquireSlab()
	if _, _, err := DecodePairsSlab(enc, s); err != nil {
		t.Fatal(err)
	}
	s.Release()
	allocs := testing.AllocsPerRun(20, func() {
		s := AcquireSlab()
		ps, _, err := DecodePairsSlab(enc, s)
		if err != nil || len(ps) != 4096 {
			panic(fmt.Sprintf("decode failed: %v (%d pairs)", err, len(ps)))
		}
		s.Release()
	})
	if allocs > budget {
		t.Fatalf("slab decode of 4096 pairs: %.1f allocs/op, budget %.0f", allocs, budget)
	}
}

func BenchmarkDecodePairsSlab(b *testing.B) {
	buf, _ := AppendPairs(nil, benchPairs(1<<12, 1<<12))
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := AcquireSlab()
		if _, _, err := DecodePairsSlab(buf, s); err != nil {
			b.Fatal(err)
		}
		s.Release()
	}
}
