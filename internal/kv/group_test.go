package kv

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// referenceGroups is the specification of grouping: a stable sort of the
// pairs by key, cut at every key change. Group.Key is the first-seen
// boxed key, values keep arrival order.
func referenceGroups[K cmp.Ordered](pairs []Pair) []Group {
	sorted := slices.Clone(pairs)
	slices.SortStableFunc(sorted, func(a, b Pair) int { return cmp.Compare(a.Key.(K), b.Key.(K)) })
	var out []Group
	for i, p := range sorted {
		if i == 0 || sorted[i-1].Key.(K) != p.Key.(K) {
			out = append(out, Group{Key: p.Key})
		}
		g := &out[len(out)-1]
		g.Values = append(g.Values, p.Value)
	}
	return out
}

// checkGroups compares a grouping with the reference, group by group.
func checkGroups[K cmp.Ordered](t *testing.T, label string, pairs []Pair, got []Group) {
	t.Helper()
	want := referenceGroups[K](pairs)
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || !reflect.DeepEqual(got[i].Values, want[i].Values) {
			t.Fatalf("%s: group %d = {%v %v}, want {%v %v}", label, i,
				got[i].Key, got[i].Values, want[i].Key, want[i].Values)
		}
	}
}

// intKeyPairs builds n pairs whose keys are drawn by pick and whose
// values record arrival order.
func intKeyPairs[K cmp.Ordered](n int, pick func(i int) K) []Pair {
	out := make([]Pair, n)
	for i := range out {
		out[i] = Pair{Key: pick(i), Value: i}
	}
	return out
}

// TestGroupIntsMatchesStableSort is the property integer grouping must
// keep on every route: for every builtin integer key type, every key
// distribution (dense, sparse, negative, the extremes of the type, all
// equal, all distinct) and sizes from one pair to both sides of the hash
// probe's threshold (where sparse keys change route), the result equals
// a stable sort + cut, and the input is left alone.
func TestGroupIntsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	sizes := []int{1, 2, 31, 257, fewKeysMinPairs - 1, fewKeysMinPairs, 1500}
	extremes := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	dists := []struct {
		name string
		pick func(n, i int) int64
	}{
		{"dense", func(n, i int) int64 { return int64(rng.Intn(n/2 + 1)) }},
		{"dense-negative", func(n, i int) int64 { return int64(rng.Intn(n+1)) - int64(n/2) }},
		{"sparse", func(n, i int) int64 { return int64(rng.Uint64()) }},
		{"sparse-few", func(n, i int) int64 { return int64(rng.Intn(5)) << 50 }},
		{"extremes", func(n, i int) int64 { return extremes[rng.Intn(len(extremes))] }},
		{"all-equal", func(n, i int) int64 { return -7 }},
		{"all-distinct", func(n, i int) int64 { return int64(n-i) * 3 }},
	}
	for _, n := range sizes {
		for _, d := range dists {
			label := fmt.Sprintf("%s/n=%d", d.name, n)
			run := func(pairs []Pair, ops Ops, check func(label string, pairs []Pair, got []Group)) {
				orig := slices.Clone(pairs)
				check(label, pairs, GroupPairs(pairs, ops))
				if !reflect.DeepEqual(orig, pairs) {
					t.Fatalf("%s: grouping reordered its input", label)
				}
			}
			keys := make([]int64, n)
			for i := range keys {
				keys[i] = d.pick(n, i)
			}
			run(intKeyPairs(n, func(i int) int64 { return keys[i] }), OpsFor[int64, int](nil),
				func(l string, p []Pair, g []Group) { checkGroups[int64](t, l+"/int64", p, g) })
			run(intKeyPairs(n, func(i int) int { return int(keys[i]) }), OpsFor[int, int](nil),
				func(l string, p []Pair, g []Group) { checkGroups[int](t, l+"/int", p, g) })
			run(intKeyPairs(n, func(i int) int32 { return int32(keys[i] >> 32) }), OpsFor[int32, int](nil),
				func(l string, p []Pair, g []Group) { checkGroups[int32](t, l+"/int32", p, g) })
			// Reinterpreted as uint64 the negative keys land above 2^63:
			// they must sort last, not first.
			run(intKeyPairs(n, func(i int) uint64 { return uint64(keys[i]) }), OpsFor[uint64, int](nil),
				func(l string, p []Pair, g []Group) { checkGroups[uint64](t, l+"/uint64", p, g) })
		}
	}
}

// TestGroupComparedMatchesStableSort covers the non-integer typed path
// (hash probe on few keys, comparison sort otherwise) through the same
// scratch-carrying entry point.
func TestGroupComparedMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ops := OpsFor[string, int](nil)
	for _, shape := range []struct{ n, keys int }{{10, 4}, {700, 20}, {700, 500}} {
		pairs := intKeyPairs(shape.n, func(int) string { return fmt.Sprintf("k%04d", rng.Intn(shape.keys)) })
		checkGroups[string](t, fmt.Sprintf("string/n=%d/keys=%d", shape.n, shape.keys), pairs, GroupPairs(pairs, ops))
	}
}

// TestGrouperReuse pins the Grouper contract: consecutive calls with
// different sizes, shapes and key types are each correct; a result does
// not survive the next call (its values array is the reused scratch);
// Reset drops the references the scratch held.
func TestGrouperReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ops := OpsFor[int64, int](nil)
	var g Grouper

	big := intKeyPairs(900, func(int) int64 { return int64(rng.Intn(40)) })
	first := g.Group(big, ops)
	checkGroups[int64](t, "first", big, first)
	firstVals := first[0].Values

	// Smaller and sparse: the sort route over the same scratch.
	small := intKeyPairs(300, func(int) int64 { return int64(rng.Uint64()) })
	checkGroups[int64](t, "second", small, g.Group(small, ops))
	// The first result is documented invalid now: its windows alias the
	// shared array the second call just refilled.
	if &firstVals[0] != &g.vals[0] {
		t.Fatal("second call did not reuse the values array")
	}

	// Larger again, a handful of pairs, another key type: all through
	// the same Grouper.
	checkGroups[int64](t, "third", big, g.Group(big, ops))
	tiny := intKeyPairs(5, func(i int) int64 { return int64(i % 2) })
	checkGroups[int64](t, "tiny", tiny, g.Group(tiny, ops))
	strs := intKeyPairs(50, func(i int) string { return fmt.Sprint(i % 7) })
	checkGroups[string](t, "strings", strs, g.Group(strs, OpsFor[string, int](nil)))

	g.Reset()
	for _, v := range g.vals[:cap(g.vals)] {
		if v != nil {
			t.Fatal("Reset left a value reference in the scratch")
		}
	}
	for _, gr := range g.groups[:cap(g.groups)] {
		if gr.Key != nil || gr.Values != nil {
			t.Fatal("Reset left a group header in the scratch")
		}
	}
	checkGroups[int64](t, "after reset", big, g.Group(big, ops))
}

// TestGrouperSteadyStateAllocs gates the allocation-flat claim: once a
// Grouper has seen an input size, grouping that size again allocates
// nothing — on the counting scatter (dense keys) and on the sort (sparse
// keys, below the hash probe's threshold).
func TestGrouperSteadyStateAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race sweep")
	}
	ops := OpsFor[int64, float64](nil)
	for _, shape := range []struct {
		n      int
		stride int64
	}{{1 << 12, 1}, {fewKeysMinPairs - 1, 1 << 40}} {
		pairs := benchPairs(shape.n, shape.n/4)
		for i := range pairs {
			pairs[i].Key = pairs[i].Key.(int64) * shape.stride
		}
		var g Grouper
		g.Group(pairs, ops)
		if allocs := testing.AllocsPerRun(20, func() { g.Group(pairs, ops) }); allocs != 0 {
			t.Errorf("n=%d stride %d: %v allocs per steady-state Group call, want 0", shape.n, shape.stride, allocs)
		}
	}
}
