package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a p99 over fewer than 1000 samples would be set by fewer
// than ten observations and is not reported as a p99.
const minBeyond = 10

// rank is the 1-based nearest rank of the q-quantile among n samples:
// the smallest rank with at least a q share of the samples at or below
// it. The epsilon keeps q*n that should be whole (0.99*1000) from
// rounding up past it.
func rank(n int, q float64) int {
	return max(1, min(n, int(math.Ceil(q*float64(n)-1e-9))))
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), q)-1]
}

// beyond counts the samples above the nearest-rank q-quantile among n.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// tailQuantile picks the highest of the candidate quantiles that leaves
// at least minBeyond samples above it among n, and reports whether one
// qualified. With too few samples for any candidate it returns 1 (the
// maximum), which the reports label as such.
func tailQuantile(n int) (q float64, ok bool) {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9, 0.5} {
		if beyond(n, q) >= minBeyond {
			return q, true
		}
	}
	return 1, false
}

// median returns the middle value of unsorted samples (the mean of the
// two middle values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sortedMillis converts durations to sorted milliseconds.
func sortedMillis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	slices.Sort(out)
	return out
}

// growing reports whether an in-flight count sampled over a ladder slot
// grew: the mean of the last quarter of the samples exceeds the mean of
// the first quarter by more than slack requests. A backlog that holds
// steady, however deep, does not count as growing; one that builds for
// the whole slot does.
func growing(inFlight []int, slack float64) bool {
	n := len(inFlight) / 4
	if n == 0 {
		return false
	}
	mean := func(xs []int) float64 {
		var s float64
		for _, x := range xs {
			s += float64(x)
		}
		return s / float64(len(xs))
	}
	return mean(inFlight[len(inFlight)-n:])-mean(inFlight[:n]) > slack
}
