package main

import (
	"math"
	"sort"
)

// Dist summarises one timing's samples: the count, the median, the
// quartiles, and the highest percentile that still has at least ten
// samples beyond it (the only tail a sample of this size supports).
type Dist struct {
	N       int     `json:"n"`
	Median  float64 `json:"median"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"`
}

// summarize computes a Dist over xs (which it sorts in place).
func summarize(xs []float64) Dist {
	if len(xs) == 0 {
		return Dist{}
	}
	sort.Float64s(xs)
	q1, med, q3 := quartiles(xs)
	tail, pct := tailOf(xs)
	return Dist{N: len(xs), Median: med, Q1: q1, Q3: q3, Tail: tail, TailPct: pct}
}

// quartiles returns the three cut points of an ascending-sorted sample
// exactly as Python's statistics.quantiles(xs, n=4) does (the exclusive
// method), because that is the rule the repeatability criterion is
// checked with. A single sample is its own quartiles.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	n := len(sorted)
	if n == 1 {
		return sorted[0], sorted[0], sorted[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median sorts xs in place and returns its median (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	_, m, _ := quartiles(xs)
	return m
}

// tailPercentiles are the candidate tails, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tailOf returns the highest candidate percentile (nearest rank) with at
// least ten samples beyond it, falling back to the maximum — reported as
// percentile 100 — when the sample supports none.
func tailOf(sorted []float64) (value, pct float64) {
	n := len(sorted)
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if rank >= 1 && n-rank >= 10 {
			return sorted[rank-1], p
		}
	}
	return sorted[n-1], 100
}

// percentile is the nearest-rank p-quantile (p in 0..100) of an
// ascending-sorted sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// spreadShare is the interquartile distance as a share of the median —
// the run-to-run spread the bounds are judged against.
func spreadShare(q1, med, q3 float64) float64 {
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}
