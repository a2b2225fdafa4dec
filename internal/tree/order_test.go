package tree

import (
	"math"
	"math/rand"
	"testing"

	"github.com/rip-eda/rip/internal/ordertest"
)

// TestCmpSoptStrictWeak checks the order every tree prune streams in —
// pruneS's sort, the two-way buffer-site merge's and each run of the
// width-aware child merge — in both width modes on tie-heavy samples with
// signed zeros and unconstrained (+Inf) required times.
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

// TestHeadLessStrictWeak checks the width-aware merge's heap order — the
// head options' cmpSopt order, exact ties to the earlier run — on
// tie-heavy runs with signed zeros and unconstrained required times.
func TestHeadLessStrictWeak(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	s := NewSolver()
	for trial := 0; trial < 10; trial++ {
		s.gen = s.gen[:0]
		var heads []runHead
		for i := 0; i < 40; i++ {
			q := ordertest.Value(rng)
			if rng.Intn(8) == 0 {
				q = math.Inf(1)
			}
			s.gen = append(s.gen, sopt{c: ordertest.Value(rng), q: q, w: ordertest.Value(rng), buf: int32(i), kids: int32(rng.Intn(4))})
			heads = append(heads, runHead{i: int32(i), end: int32(i + 1 + rng.Intn(3))})
		}
		ordertest.StrictWeak(t, "headLess", heads, s.headLess)
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
