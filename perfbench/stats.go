package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a tail read from fewer is noise.
const minBeyond = 10

// dist is a set of latency samples.
type dist []time.Duration

// rank returns the nearest-rank index of quantile q in n sorted samples.
func rank(q float64, n int) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return max(0, min(i, n-1))
}

// tailRank is the index of the reported tail: quantile q (e.g. 0.99)
// when at least minBeyond samples lie above it, else the highest rank
// that still leaves minBeyond above. With too few samples for any such
// rank it falls back to the median.
func tailRank(q float64, n int) int {
	i := rank(q, n)
	if n-1-i >= minBeyond {
		return i
	}
	if n > minBeyond {
		return n - 1 - minBeyond
	}
	return rank(0.5, n)
}

// summary is a latency distribution reduced to what the report prints.
type summary struct {
	N     int
	P50   time.Duration
	Tail  time.Duration
	TailQ float64 // the quantile Tail actually reports
}

func summarize(d dist, q float64) summary {
	if len(d) == 0 {
		return summary{}
	}
	s := append(dist(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	t := tailRank(q, len(s))
	return summary{
		N:     len(s),
		P50:   s[rank(0.5, len(s))],
		Tail:  s[t],
		TailQ: float64(t+1) / float64(len(s)),
	}
}

// ratio is num/den with a zero base reported as 0 rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// median of xs (mean of the middle pair for even counts).
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

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
