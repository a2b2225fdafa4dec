// Package ordertest checks that the orderings the solvers sort and merge
// by are strict weak orders, the contract slices.SortFunc and every
// incremental skyline rely on. A comparator that breaks it — the classic
// case is a pruning order written as "c less, or d less" — sorts
// inconsistently and silently drops Pareto points.
package ordertest

import (
	"math"
	"math/rand"
	"testing"
)

// Value draws one key for a comparator sample: mostly −0, +0 and the
// integers 1–4, so exact ties, signed-zero ties and runs that agree on a
// leading key are common, and sometimes an arbitrary real in [0, 4).
func Value(rng *rand.Rand) float64 {
	switch k := rng.Intn(8); {
	case k == 0:
		return math.Copysign(0, -1)
	case k < 6:
		return float64(k - 1)
	}
	return 4 * rng.Float64()
}

// StrictWeak checks less over every pair and triple of xs: irreflexive,
// asymmetric and transitive, with transitive incomparability (so equal
// elements form equivalence classes). Samples should force exact ties,
// signed zeros and runs that agree on leading keys; the check is
// O(len(xs)³).
func StrictWeak[T any](t testing.TB, name string, xs []T, less func(a, b T) bool) {
	t.Helper()
	inc := func(a, b T) bool { return !less(a, b) && !less(b, a) }
	for _, a := range xs {
		if less(a, a) {
			t.Fatalf("%s: not irreflexive: %+v < itself", name, a)
		}
		for _, b := range xs {
			if less(a, b) && less(b, a) {
				t.Fatalf("%s: not asymmetric: %+v and %+v are each less than the other", name, a, b)
			}
			for _, c := range xs {
				if less(a, b) && less(b, c) && !less(a, c) {
					t.Fatalf("%s: not transitive: %+v < %+v < %+v but not %+v < %+v", name, a, b, c, a, c)
				}
				if inc(a, b) && inc(b, c) && !inc(a, c) {
					t.Fatalf("%s: incomparability not transitive: %+v ~ %+v ~ %+v", name, a, b, c)
				}
			}
		}
	}
}

// Cmp checks a three-way comparator: cmp(a, b) < 0 is a strict weak
// order (StrictWeak), and cmp(b, a) always has the opposite sign of
// cmp(a, b).
func Cmp[T any](t testing.TB, name string, xs []T, cmp func(a, b T) int) {
	t.Helper()
	sign := func(v int) int {
		switch {
		case v < 0:
			return -1
		case v > 0:
			return 1
		}
		return 0
	}
	for _, a := range xs {
		for _, b := range xs {
			if sign(cmp(a, b)) != -sign(cmp(b, a)) {
				t.Fatalf("%s: cmp(%+v, %+v) = %d but cmp of the swapped pair = %d", name, a, b, cmp(a, b), cmp(b, a))
			}
		}
	}
	StrictWeak(t, name, xs, func(a, b T) bool { return cmp(a, b) < 0 })
}
