package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// quantile returns the q-quantile of sorted xs by the nearest-rank rule.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

// tail returns the highest of the candidate percentiles that has at least
// minTail samples beyond it, with its value: p99 needs 1000 samples, p90
// 100, p50 20. ok is false when even the median has too few.
func tail(sorted []float64) (q, v float64, ok bool) {
	for _, q := range []float64{0.99, 0.9, 0.5} {
		if beyond(len(sorted), q) >= minTail {
			return q, quantile(sorted, q), true
		}
	}
	return 0, math.NaN(), false
}

// beyond counts the samples ranked above the nearest-rank q-quantile.
func beyond(n int, q float64) int {
	k := int(math.Ceil(q * float64(n)))
	if k < 1 {
		k = 1
	}
	return n - k
}

// millis converts latencies to sorted milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
