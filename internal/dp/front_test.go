package dp

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/rip-eda/rip/internal/delay"
)

// TestSolveFrontMatchesReference pins SolveFront's lookup contract against
// the preserved pre-Solver DP rather than against the kernel itself:
// Front[0].Delay must equal the reference's MinDelay result bit for bit,
// and Front.At(T) must pick what a reference MinPower solve at T picks
// (feasibility, delay and total width) at every point's delay, between
// points, and below the front.
func TestSolveFrontMatchesReference(t *testing.T) {
	type instance struct {
		name string
		ev   *delay.Evaluator
		opts Options
	}
	// The corpus repeats one candidate space across budgets; SolveFront
	// ignores the budget, so each space is checked once.
	var cases []instance
	seen := make(map[string]bool)
	for _, c := range corpusInstances(t) {
		key := fmt.Sprintf("%p %v %v %v", c.ev, c.opts.Library, c.opts.Pitch, c.opts.Positions)
		if !seen[key] {
			seen[key] = true
			cases = append(cases, instance{c.name, c.ev, c.opts})
		}
	}
	trials := 300
	if testing.Short() {
		trials = 60
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < trials; i++ {
		ev, opts := randomInstance(t, rng)
		cases = append(cases, instance{fmt.Sprintf("random %d", i), ev, opts})
	}

	s := NewSolver()
	for _, c := range cases {
		front, _, err := s.SolveFront(c.ev, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(front) == 0 {
			t.Fatalf("%s: empty front", c.name)
		}
		md := c.opts
		md.Objective, md.Target = MinDelay, 0
		want, err := solveReference(c.ev, md)
		if err != nil {
			t.Fatalf("%s: reference min-delay: %v", c.name, err)
		}
		if front[0].Delay != want.Delay {
			t.Fatalf("%s: front[0].Delay %.17g != reference min delay %.17g", c.name, front[0].Delay, want.Delay)
		}

		// Budgets: every point's delay (four evenly spaced points on
		// fronts of more than 24 points, whose reference solves are
		// slow), the midpoint to the next point, one just below the
		// fastest point, which no solve meets, and one past the cheapest.
		targets := []float64{front[0].Delay * (1 - 1e-9)}
		step := 1
		if len(front) > 24 {
			step = len(front) / 4
		}
		for k := 0; k < len(front); k += step {
			targets = append(targets, front[k].Delay)
			if k+1 < len(front) {
				targets = append(targets, (front[k].Delay+front[k+1].Delay)/2)
			}
		}
		targets = append(targets, front[len(front)-1].Delay*1.5)
		for _, target := range targets {
			mp := c.opts
			mp.Objective, mp.Target = MinPower, target
			ref, err := solveReference(c.ev, mp)
			if err != nil {
				t.Fatalf("%s at %.17g: reference min-power: %v", c.name, target, err)
			}
			idx, ok := front.At(target)
			if ok != ref.Feasible {
				t.Fatalf("%s at %.17g: front feasible %v, reference %v", c.name, target, ok, ref.Feasible)
			}
			if !ok {
				continue
			}
			if p := front[idx]; p.Delay != ref.Delay || p.TotalWidth != ref.TotalWidth {
				t.Fatalf("%s at %.17g: front point (delay %.17g, width %.17g), reference (%.17g, %.17g)",
					c.name, target, p.Delay, p.TotalWidth, ref.Delay, ref.TotalWidth)
			}
		}
	}
}
