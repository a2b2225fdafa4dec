package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		sorted []float64
		q      float64
		want   float64
	}{
		{[]float64{1, 2, 3, 4}, 0.50, 2}, // ⌈0.5·4⌉ = 2nd, not the 3rd
		{[]float64{1, 2, 3, 4}, 0.99, 4},
		{[]float64{1, 2, 3, 4}, 0.25, 1},
		{[]float64{7}, 0.99, 7},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9, 9},
	}
	for _, c := range cases {
		if got := percentile(c.sorted, c.q); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.sorted, c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(values, n=4), the rule the benchmark's spread is
// judged by.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		values []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25}, // order does not matter
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 5, 5}, 5, 5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.values)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.values, q1, q3, c.q1, c.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %g, want 1", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "nets_per_s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		a, b []float64
		m    specMetric
		want string
	}{
		{steady, steady, lower, "same"},
		{steady, []float64{120, 121, 119, 120, 120}, lower, "worse"},
		{steady, []float64{80, 81, 79, 80, 80}, lower, "better"},
		{steady, []float64{80, 81, 79, 80, 80}, higher, "worse"},
		{steady, []float64{50, 150, 80, 120, 100}, lower, "unresolved"},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("verdict(%v → %v, %s) = %s, want %s", c.a, c.b, c.m.Better, got, c.want)
		}
	}
}
