package jobs

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestPageRankReduceAllocsOnlyResult gates the registry PageRank's
// sorted-sum reduce, which runs once per key per iteration: sorting the
// contributions must not allocate, so the reduce allocates only the box
// of the sum it returns. The sum is the one over the ascending contributions,
// whatever order they arrive in.
func TestPageRankReduceAllocsOnlyResult(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	job, err := Build("pagerank", nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	contribs := make([]any, 64)
	ascending := make([]float64, len(contribs))
	for i := range contribs {
		ascending[i] = rng.Float64() * 1e-3
		contribs[i] = ascending[i]
	}
	sort.Float64s(ascending)
	var want float64
	for _, c := range ascending {
		want += c
	}

	states := make([]any, len(contribs))
	var got any
	allocs := testing.AllocsPerRun(100, func() {
		copy(states, contribs)
		if got, err = job.Reduce(int64(7), states); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("the PageRank reduce allocates %v times a call, want 1 (its result box)", allocs)
	}
	if got.(float64) != want {
		t.Errorf("sum %v, want %v (the ascending-order sum)", got, want)
	}
}

// TestPageRankTypedReduceAllocsNothing is the typed twin of
// TestPageRankReduceAllocsOnlyResult: the reduce the column loops call
// takes and returns unboxed floats, so a call allocates nothing at all,
// and it sums the ascending contributions whatever their order.
func TestPageRankTypedReduceAllocsNothing(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	spec, err := pagerankSpec(nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	contribs := make([]float64, 64)
	for i := range contribs {
		contribs[i] = rng.Float64() * 1e-3
	}
	ascending := slices.Clone(contribs)
	sort.Float64s(ascending)
	var want float64
	for _, c := range ascending {
		want += c
	}
	shares := make([]float64, len(contribs))
	var got float64
	allocs := testing.AllocsPerRun(100, func() {
		copy(shares, contribs)
		if got, err = spec.Reduce(7, shares); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("the typed PageRank reduce allocates %v times a call, want 0", allocs)
	}
	if got != want {
		t.Errorf("sum %v, want %v (the ascending-order sum)", got, want)
	}
}
