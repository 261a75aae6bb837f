package main

import (
	"math"
	"slices"
	"time"
)

// samples is a raw latency record in nanoseconds. The benchmark keeps
// every sample rather than bucketing: a run holds at most a few hundred
// thousand, and exact quantiles have no lower resolution bound.
type samples []int64

// add appends the time since t0 to s and to *total.
func (s samples) add(t0 time.Time, total *int64) samples {
	d := int64(time.Since(t0))
	*total += d
	return append(s, d)
}

// quantile returns the q-quantile (nearest rank) of v, or 0 for an
// empty v. v is sorted in place.
func quantile[T int64 | float64](v []T, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	if !slices.IsSorted(v) {
		slices.Sort(v)
	}
	i := min(max(int(math.Ceil(q*float64(len(v))))-1, 0), len(v)-1)
	return float64(v[i])
}

// timerResolution measures the smallest non-zero step of the monotonic
// clock and the cost of one time.Now/time.Since pair, both in
// nanoseconds. Every span the benchmark reports is orders of magnitude
// longer than either; the stamp records them so a reader can check.
func timerResolution() (stepNS, overheadNS float64) {
	const rounds = 200
	steps := make([]int64, 0, rounds)
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		for {
			if d := time.Since(t0); d > 0 {
				steps = append(steps, int64(d))
				break
			}
		}
	}
	const pairs = 20000
	t0 := time.Now()
	var sink time.Duration
	for i := 0; i < pairs; i++ {
		sink += time.Since(time.Now())
	}
	_ = sink
	overhead := float64(time.Since(t0)) / pairs
	return quantile(steps, 0.5), overhead
}
