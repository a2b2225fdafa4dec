package tree

import (
	"math"
	"math/rand"
	"testing"

	"github.com/rip-eda/rip/internal/ordertest"
)

// TestCmpSoptStrictWeak checks pruneS's sort order in both width modes on
// tie-heavy samples with signed zeros and unconstrained (+Inf) required
// times.
func TestCmpSoptStrictWeak(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 10; trial++ {
		var opts []sopt
		for i := 0; i < 40; i++ {
			q := ordertest.Value(rng)
			if rng.Intn(8) == 0 {
				q = math.Inf(1)
			}
			opts = append(opts, sopt{c: ordertest.Value(rng), q: q, w: ordertest.Value(rng), buf: -1, kids: int32(i)})
		}
		for _, width := range []bool{true, false} {
			ordertest.Cmp(t, "cmpSopt", opts, func(a, b sopt) int { return cmpSopt(a, b, width) })
		}
	}
}
