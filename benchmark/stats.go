package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the nearest-rank q-quantile of sorted values: the
// ⌈q·n⌉-th smallest. p50 of [1 2 3 4] is 2, as in cmd/riploadgen.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	return sorted[i]
}

// median is the middle value (the mean of the two middle values for an
// even count), as Python's statistics.median gives it.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := slices.Sorted(slices.Values(values))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) computes them (the default
// "exclusive" method), which is how the benchmark's agreement rule
// measures spread. It needs at least two values.
func quartiles(values []float64) (q1, q3 float64) {
	if len(values) < 2 {
		return math.NaN(), math.NaN()
	}
	s := slices.Sorted(slices.Values(values))
	ld := len(s)
	m := ld + 1
	at := func(i int) float64 {
		const n = 4
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q3 := quartiles(values)
	return (q3 - q1) / math.Abs(median(values))
}

// sortedIn converts durations to sorted floats in the given unit.
func sortedIn(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	slices.Sort(out)
	return out
}

// mean is the arithmetic mean (NaN for no values).
func mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}
