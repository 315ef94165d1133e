package main

import (
	"math"
	"sort"
)

// orderStat returns the exact q-quantile of xs as the order statistic of
// rank ceil(q·n) (nearest rank), and how many samples lie beyond it.
func orderStat(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := max(int(math.Ceil(q*float64(len(s)))), 1)
	return s[k-1], len(s) - k
}

// median is the midpoint median (the mean of the two middle values for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
