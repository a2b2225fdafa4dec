package bus

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/rip-eda/rip/internal/ordertest"
)

// TestCostLessStrictWeak checks that Cost.Less, the order the chain DP
// picks assignments by, is a strict weak order on tie-heavy costs
// with signed-zero widths.
func TestCostLessStrictWeak(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 10; trial++ {
		var costs []Cost
		for i := 0; i < 40; i++ {
			costs = append(costs, Cost{Infeasible: rng.Intn(3), Width: ordertest.Value(rng)})
		}
		ordertest.StrictWeak(t, "Cost.Less", costs, Cost.Less)
	}
}

// TestSolveExactMatchesBruteForce pins the chain DP against all 3ⁿ
// assignments on tie-heavy random groups of 1 to 7 tracks: widths on a
// 10 u grid (so every sum is exact), infeasible factors, and half the
// groups made of one shared table. SolveExact's cost must be the optimum
// and the cost of its own assignment, and its assignment the first
// optimum in Plain < Staggered < Shielded order with the tracks read from
// the last one to the first.
func TestSolveExactMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	trials := 5000
	if testing.Short() {
		trials = 1000
	}
	for trial := range trials {
		mm := []float64{1.5, 2}[rng.Intn(2)]
		table := func() Table {
			w := make(map[float64]float64)
			for _, mf := range MFValues(mm) {
				w[mf] = float64(10 * rng.Intn(6))
				if rng.Intn(8) == 0 {
					w[mf] = math.Inf(1)
				}
			}
			return Table{Width: w, ShieldCost: float64(10 * rng.Intn(4))}
		}
		n := 1 + rng.Intn(7)
		tables := make([]Table, n)
		shared := table()
		for i := range tables {
			if trial%2 == 0 {
				tables[i] = shared
			} else {
				tables[i] = table()
			}
		}

		var best []Decision
		var bestC Cost
		d := make([]Decision, n)
		for code := range int(math.Pow(3, float64(n))) {
			// The last track is the most significant digit.
			for i, c := 0, code; i < n; i, c = i+1, c/3 {
				d[i] = Decision(c % 3)
			}
			if c := Total(mm, tables, d); best == nil || c.Less(bestC) {
				best, bestC = slices.Clone(d), c
			}
		}
		got, gotC := SolveExact(mm, tables)
		if gotC != bestC || Total(mm, tables, got) != gotC || !slices.Equal(got, best) {
			t.Fatalf("trial %d (mm %g, %d tracks): SolveExact %v at %+v (its total %+v), want %v at %+v",
				trial, mm, n, got, gotC, Total(mm, tables, got), best, bestC)
		}
	}
}
