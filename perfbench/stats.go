package main

import (
	"math"
	"sort"
)

// minTail is the sample-count rule for reported percentiles: a percentile
// is only trustworthy when at least this many samples lie beyond it.
const minTail = 10

// percentile returns the q-quantile (0 ≤ q ≤ 1) of sorted by nearest
// rank, or 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median sorts a copy of xs and returns its middle value (the mean of the
// two middle values for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailOK reports whether the q-quantile of n samples has at least minTail
// samples beyond it.
func tailOK(n int, q float64) bool {
	return float64(n)*(1-q) >= minTail-1e-9
}

// highestPercentile returns the highest of the standard reporting
// percentiles (p99.9, p99, p95, p90, p50) that n samples support under the
// sample-count rule, or 0 when even the median has fewer than minTail
// samples beyond it.
func highestPercentile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.90, 0.50} {
		if tailOK(n, q) {
			return q
		}
	}
	return 0
}

// interval is a closed time interval in nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of [lo, hi] the union of ivs covers. Intervals
// may nest, overlap, or extend past the window; each instant counts once.
func covered(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	var curS, curE int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curS, curE, open = iv.start, iv.end, true
		case iv.start <= curE:
			curE = max(curE, iv.end)
		default:
			total += curE - curS
			curS, curE = iv.start, iv.end
		}
	}
	if open {
		total += curE - curS
	}
	return total
}
