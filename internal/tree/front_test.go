package tree

import (
	"fmt"
	"math"
	"testing"

	"github.com/rip-eda/rip/internal/repeater"
	"github.com/rip-eda/rip/internal/tech"
)

// TestInsertFrontMatchesReference pins InsertFront's lookup contract
// against the preserved pre-Solver DP rather than against the kernel
// itself. On the zero-RAT clone, −MaxSlack() must equal MinArrival, and
// for budgets T swept across the front, the point Front.At(−T) picks must
// match a reference min-width solve on CloneWithRAT(T): the same
// feasibility, total width and buffers, and the same slack to within
// 1e-12 relative (the clone's required times shift every q by T, which
// rounds differently). The corpus is the random differential trees and
// the mirror trees, whose tied siblings make representatives visible.
func TestInsertFrontMatchesReference(t *testing.T) {
	type instance struct {
		name string
		tr   *Tree
		opts Options
		// points caps the front points checked, evenly spaced (0: all),
		// where reference solves are slow.
		points int
	}
	var cases []instance
	ts := tech.T180()
	for ti, tr := range diffTrees(t, 16) {
		for _, widths := range [][]float64{{80, 160, 240, 320, 400}, {20, 40, 60, 80, 100, 150, 200, 300}} {
			cases = append(cases, instance{fmt.Sprintf("tree %d lib %v", ti, widths), tr,
				Options{Library: lib(t, widths...), Tech: ts, DriverWidth: 240}, 16})
		}
	}
	for _, tc := range []*tech.Technology{tech.T180(), tech.T130(), tech.T90(), tech.T65()} {
		for _, shape := range []struct{ fan, depth int }{{2, 3}, {3, 2}} {
			tr := mirrorTree(t, tc, shape.fan, shape.depth)
			for _, step := range []float64{40, 10} {
				// A reference solve of a 2×3 mirror tree on the 10u
				// library takes about half a second; the 3×2 ones cover
				// that library.
				points := 12
				if step == 10 {
					if shape.fan == 2 {
						continue
					}
					points = 4
				}
				l, err := repeater.Range(10, 400, step)
				if err != nil {
					t.Fatal(err)
				}
				cases = append(cases, instance{fmt.Sprintf("%s mirror %dx%d lib %d", tc.Name, shape.fan, shape.depth, l.Size()), tr,
					Options{Library: l, Tech: tc, DriverWidth: 240}, points})
			}
		}
	}

	s := NewSolver()
	for _, c := range cases {
		front, _, err := s.InsertFront(c.tr.CloneWithRAT(0), c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(front) == 0 {
			t.Fatalf("%s: empty front", c.name)
		}
		tmin, _, err := s.MinArrival(c.tr, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if -front.MaxSlack() != tmin {
			t.Fatalf("%s: −MaxSlack() %.17g != MinArrival %.17g", c.name, -front.MaxSlack(), tmin)
		}

		// Budgets: just past every point's arrival (up to the case's
		// cap), the midpoint to the next point, and one below the fastest
		// point, which no placement meets.
		arrival := func(k int) float64 { return -front[k].Slack }
		budgets := []float64{arrival(0) * (1 - 1e-9)}
		step := 1
		if c.points > 0 {
			step = max(1, len(front)/c.points)
		}
		for k := 0; k < len(front); k += step {
			budgets = append(budgets, arrival(k)*(1+1e-12))
			if k+1 < len(front) {
				budgets = append(budgets, (arrival(k)+arrival(k+1))/2)
			}
		}
		for _, budget := range budgets {
			label := fmt.Sprintf("%s at %.17g", c.name, budget)
			ref, err := referenceInsert(c.tr.CloneWithRAT(budget), c.opts)
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			idx, ok := front.At(-budget)
			if ok != ref.Feasible {
				t.Fatalf("%s: front feasible %v, reference %v", label, ok, ref.Feasible)
			}
			if !ok {
				continue
			}
			p := front[idx]
			if p.TotalWidth != ref.TotalWidth {
				t.Fatalf("%s: front width %g, reference %g", label, p.TotalWidth, ref.TotalWidth)
			}
			if len(p.Buffers) != len(ref.Buffers) {
				t.Fatalf("%s: front places %v, reference %v", label, p.Buffers, ref.Buffers)
			}
			for id, w := range ref.Buffers {
				if p.Buffers[id] != w {
					t.Fatalf("%s: front places %v, reference %v", label, p.Buffers, ref.Buffers)
				}
			}
			if slack := budget + p.Slack; math.Abs(slack-ref.Slack) > 1e-12*math.Abs(budget) {
				t.Fatalf("%s: front slack %.17g, reference %.17g", label, slack, ref.Slack)
			}
		}
	}
}
