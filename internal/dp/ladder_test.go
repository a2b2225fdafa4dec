package dp

import (
	"reflect"
	"testing"

	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/netgen"
	"github.com/rip-eda/rip/internal/repeater"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/units"
)

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

// ladderCases are the deterministic corpus and the front-space lines,
// each classic and with worst-aggressor, staggered coupling.
func ladderCases(t *testing.T) []corpusCase {
	t.Helper()
	var out []corpusCase
	for _, c := range append(corpusInstances(t), frontSpaceInstances(t)...) {
		cpl, err := delay.NewCoupling(c.ev.Tech, delay.AggressorWorst, delay.SchemeModeStaggered)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
		c.name += "/coupled"
		c.opts.Coupling = cpl
		out = append(out, c)
	}
	return out
}

// TestLadderMatchesExactCorpus pins that the deprecated Options.Ladder
// changes no bounded or MinDelay solve: with it set, Solve returns the
// same Solution and Stats, classic and coupled, on the deterministic
// corpus and the front-space lines.
func TestLadderMatchesExactCorpus(t *testing.T) {
	s, sl := NewSolver(), NewSolver()
	solve := func(name string, ev *delay.Evaluator, o Options) {
		t.Helper()
		lo := o
		lo.Ladder = true
		want, wantErr := s.Solve(ev, o)
		got, gotErr := sl.Solve(ev, lo)
		if !reflect.DeepEqual(gotErr, wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %v: with Ladder %+v (err %v), without %+v (err %v)", name, o.Objective, got, gotErr, want, wantErr)
		}
	}
	// MinDelay ignores Target, so solve it once per name.
	done := map[string]bool{}
	for _, c := range ladderCases(t) {
		solve(c.name, c.ev, c.opts)
		if done[c.name] {
			continue
		}
		done[c.name] = true
		md := c.opts
		md.Objective = MinDelay
		solve(c.name, c.ev, md)
	}
}

// TestSolveFrontIgnoresLadder pins that SolveFront ignores the deprecated
// Options.Ladder: with it set, it returns the same front and Stats,
// classic and coupled, on the deterministic corpus and the front-space
// lines.
func TestSolveFrontIgnoresLadder(t *testing.T) {
	s, sl := NewSolver(), NewSolver()
	// SolveFront ignores Target, so solve it once per name.
	done := map[string]bool{}
	for _, c := range ladderCases(t) {
		if done[c.name] {
			continue
		}
		done[c.name] = true
		lopts := c.opts
		lopts.Ladder = true
		want, wst, wantErr := s.SolveFront(c.ev, c.opts)
		got, gst, gotErr := sl.SolveFront(c.ev, lopts)
		if !reflect.DeepEqual(gotErr, wantErr) || !reflect.DeepEqual(got, want) || gst != wst {
			t.Fatalf("%s: front with Ladder differs (stats %+v vs %+v, err %v vs %v)", c.name, gst, wst, gotErr, wantErr)
		}
	}
}
