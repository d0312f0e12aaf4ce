package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest sample with at least p% of the samples at or below
// it. sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	return sorted[nearestRank(len(sorted), p)-1]
}

// nearestRank is the 1-based nearest-rank position of the p-th percentile
// among n samples. The small slack keeps an exact product such as 99.9% of
// 10000 from rounding up a rank through floating-point error.
func nearestRank(n int, p float64) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// samplesBeyond is how many of n samples lie strictly above the nearest-rank
// p-th percentile's position.
func samplesBeyond(n int, p float64) int { return n - nearestRank(n, p) }

// tailPercentiles are the candidates for "the highest percentile that has at
// least ten samples beyond it", highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// supportedTail returns the highest candidate percentile of n samples that
// still has at least ten samples beyond it, or 50 when none has: below that
// a tail figure is one or two outliers, not a percentile.
func supportedTail(n int) float64 {
	for _, p := range tailPercentiles {
		if samplesBeyond(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// dist summarises one set of timings. Tail is the supported tail percentile
// (see supportedTail); P95 is always the nearest-rank p95 and is only to be
// trusted when Tail >= 95.
type dist struct {
	N       int     `json:"samples"`
	P50     float64 `json:"p50"`
	P95     float64 `json:"p95"`
	Max     float64 `json:"max"`
	Tail    float64 `json:"tail_percentile"`
	TailVal float64 `json:"tail_value"`
}

// summarize sorts a copy of xs and summarises it. An empty input gives the
// zero dist.
func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	tail := supportedTail(len(s))
	return dist{
		N:       len(s),
		P50:     percentile(s, 50),
		P95:     percentile(s, 95),
		Max:     s[len(s)-1],
		Tail:    tail,
		TailVal: percentile(s, tail),
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median is the conventional median (mean of the two middle values for an
// even count), used for repeated set-up times and run sets, where the
// samples are few and nearest-rank would bias high.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method), so the
// spreads compare prints are the spreads the driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// spreadShare is the inter-quartile distance as a share of the median.
func spreadShare(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(m)
}
