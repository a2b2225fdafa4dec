package bus

import (
	"math/rand"
	"testing"

	"github.com/rip-eda/rip/internal/ordertest"
)

// TestCostLessStrictWeak checks that Cost.Less, the order both bus
// solvers pick assignments by, is a strict weak order on tie-heavy costs
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
