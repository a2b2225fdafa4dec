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

// TestCmpRootOptStrictWeak checks InsertFront's root order on tie-heavy
// slack, width and index samples with signed zeros.
func TestCmpRootOptStrictWeak(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		var roots []rootOpt
		for i := 0; i < 40; i++ {
			roots = append(roots, rootOpt{slack: -ordertest.Value(rng), w: ordertest.Value(rng), idx: int32(rng.Intn(4))})
		}
		ordertest.Cmp(t, "cmpRootOpt", roots, cmpRootOpt)
	}
}
