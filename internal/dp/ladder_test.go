package dp

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/netgen"
	"github.com/rip-eda/rip/internal/repeater"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/units"
)

// fpSlack absorbs accumulated float rounding when checking certified
// bounds that are proved in real arithmetic.
const fpSlack = 1e-9

// sameValues compares the parts of two Solutions the ladder guarantees
// bit-identical: feasibility, delay and total width. (Work Stats differ
// by design — the coarse pass folds in — and assignments may differ only
// on exact value ties, where both are equally optimal.)
func sameValues(t *testing.T, name string, got, want Solution) {
	t.Helper()
	if got.Feasible != want.Feasible {
		t.Fatalf("%s: feasible %v, want %v", name, got.Feasible, want.Feasible)
	}
	if got.Delay != want.Delay {
		t.Fatalf("%s: delay %v, want %v", name, got.Delay, want.Delay)
	}
	if got.TotalWidth != want.TotalWidth {
		t.Fatalf("%s: total width %v, want %v", name, got.TotalWidth, want.TotalWidth)
	}
}

// corpusCase is the element type corpusInstances returns.
type corpusCase = struct {
	name string
	ev   *delay.Evaluator
	opts Options
}

// frontSpaceInstances are netgen lines on every built-in node in the
// engine's front space (10u–400u at a 40u step, 200 µm pitch), at 1.3×
// their τmin there: the sweep ripd serves, where placements that tie bit
// for bit on (delay, width) are common.
func frontSpaceInstances(t *testing.T) []corpusCase {
	t.Helper()
	lib40, err := repeater.Range(10, 400, 40)
	if err != nil {
		t.Fatal(err)
	}
	var out []corpusCase
	reg := tech.DefaultRegistry()
	for _, node := range tech.BuiltinNames() {
		tc, _, err := reg.Get(node)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := netgen.DefaultConfig(tc)
		if err != nil {
			t.Fatal(err)
		}
		cfg.MaxSegments = 6
		nets, err := netgen.Corpus(7, 3, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range nets {
			ev, err := delay.NewEvaluator(n, tc)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Library: lib40, Pitch: 200 * units.Micron}
			tmin, err := MinimumDelay(ev, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Objective, opts.Target = MinPower, 1.3*tmin
			out = append(out, corpusCase{node + "/" + n.Name, ev, opts})
		}
	}
	return out
}

// TestLadderMatchesExactCorpus pins the bounded ladder's contract on the
// deterministic corpus and on front-space netgen lines: identical
// feasibility, delay and width, with a still-valid assignment.
func TestLadderMatchesExactCorpus(t *testing.T) {
	s, sl := NewSolver(), NewSolver()
	for _, c := range append(corpusInstances(t), frontSpaceInstances(t)...) {
		lopts := c.opts
		lopts.Ladder = true
		want, wantErr := s.Solve(c.ev, c.opts)
		got, gotErr := sl.Solve(c.ev, lopts)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: error mismatch: %v vs %v", c.name, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		sameValues(t, c.name, got, want)
		if got.Feasible {
			if err := c.ev.Validate(got.Assignment); err != nil {
				t.Fatalf("%s: ladder assignment invalid: %v", c.name, err)
			}
		}
	}
}

// TestLadderMatchesExactRandom is the randomized rendering of the bounded
// ladder differential, including the tie-heavy libraries where
// representative selection is most fragile.
func TestLadderMatchesExactRandom(t *testing.T) {
	trials := 400
	if testing.Short() {
		trials = 80
	}
	rng := rand.New(rand.NewSource(42))
	s, sl := NewSolver(), NewSolver()
	for trial := 0; trial < trials; trial++ {
		ev, opts := randomInstance(t, rng)
		lopts := opts
		lopts.Ladder = true
		want, wantErr := s.Solve(ev, opts)
		got, gotErr := sl.Solve(ev, lopts)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: error mismatch: %v vs %v", trial, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		sameValues(t, "trial", got, want)
		if got.Feasible {
			if err := ev.Validate(got.Assignment); err != nil {
				t.Fatalf("trial %d: ladder assignment invalid: %v", trial, err)
			}
		}
	}
}

// TestSolveFrontIgnoresLadder pins that SolveFront always runs one flat
// sweep: with Ladder set it returns a bit-identical front — values,
// placements, schemes — and identical Stats on the front-space lines,
// classic and coupled.
func TestSolveFrontIgnoresLadder(t *testing.T) {
	cases := frontSpaceInstances(t)
	for _, c := range cases[:1] {
		cpl, err := delay.NewCoupling(c.ev.Tech, delay.AggressorWorst, delay.SchemeModeStaggered)
		if err != nil {
			t.Fatal(err)
		}
		c.name += "/coupled"
		c.opts.Coupling = cpl
		cases = append(cases, c)
	}
	s, sl := NewSolver(), NewSolver()
	for _, c := range cases {
		lopts := c.opts
		lopts.Ladder = true
		want, wst, wantErr := s.SolveFront(c.ev, c.opts)
		got, gst, gotErr := sl.SolveFront(c.ev, lopts)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: error mismatch: %v vs %v", c.name, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: front with Ladder differs from the flat sweep's", c.name)
		}
		if gst != wst {
			t.Fatalf("%s: stats %+v with Ladder, %+v without", c.name, gst, wst)
		}
	}
}
