package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile of xs (0 when empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := rank(q, len(s)) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// beyond is how many of n samples lie above the nearest-rank q-quantile:
// a percentile is reported as supported only with at least 10 beyond it.
func beyond(n int, q float64) int {
	return n - rank(q, n)
}

// rank is the nearest rank of the q-quantile among n samples, ceil(q*n),
// with q*n's rounding error removed (0.9*100 is 90.00000000000001).
func rank(q float64, n int) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// median returns the middle value of xs, the mean of the two middle
// values for an even count (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// frac returns num/den, or 0 when den is 0.
func frac(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
