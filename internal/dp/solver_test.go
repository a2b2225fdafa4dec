package dp

import (
	"math/rand"
	"testing"

	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/repeater"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/units"
	"github.com/rip-eda/rip/internal/wire"
)

// corpusInstances enumerates the deterministic instances the dp unit tests
// exercise — the paperish multi-segment net and the zone-heavy net, across
// libraries, pitches and both objectives.
func corpusInstances(t *testing.T) []struct {
	name string
	ev   *delay.Evaluator
	opts Options
} {
	t.Helper()
	zoneLine, err := wire.New([]wire.Segment{
		{Length: 8e-3, ROhmPerM: 8e4, CFPerM: 2.3e-10, Layer: "metal4"},
	}, []wire.Zone{{Start: 1e-3, End: 7e-3}})
	if err != nil {
		t.Fatal(err)
	}
	paperish := evalFor(t, paperishLine(t))
	zoned := evalFor(t, zoneLine)
	tmin, err := MinimumDelay(paperish, Options{Library: lib(t, 10, 10, 40), Pitch: 200 * units.Micron})
	if err != nil {
		t.Fatal(err)
	}

	var out []struct {
		name string
		ev   *delay.Evaluator
		opts Options
	}
	add := func(name string, ev *delay.Evaluator, opts Options) {
		out = append(out, struct {
			name string
			ev   *delay.Evaluator
			opts Options
		}{name, ev, opts})
	}
	for _, mult := range []float64{1.05, 1.1, 1.3, 1.5, 2.0} {
		add("paperish-minpower-g10", paperish, Options{
			Library: lib(t, 10, 10, 40), Pitch: 200 * units.Micron,
			Objective: MinPower, Target: mult * tmin,
		})
		add("paperish-minpower-g40", paperish, Options{
			Library: lib(t, 10, 40, 10), Pitch: 200 * units.Micron,
			Objective: MinPower, Target: mult * tmin,
		})
	}
	add("paperish-mindelay", paperish, Options{Library: lib(t, 10, 10, 40), Pitch: 200 * units.Micron, Objective: MinDelay})
	add("paperish-infeasible", paperish, Options{
		Library: lib(t, 10, 10, 10), Pitch: 200 * units.Micron, Objective: MinPower, Target: 1e-12,
	})
	add("paperish-coarse", paperish, Options{
		Library: lib(t, 80, 80, 5), Pitch: 200 * units.Micron, Objective: MinPower, Target: 1.5 * tmin,
	})
	add("zoned-mindelay", zoned, Options{Library: lib(t, 10, 40, 10), Pitch: 200 * units.Micron, Objective: MinDelay})
	add("zoned-minpower", zoned, Options{
		Library: lib(t, 10, 40, 10), Pitch: 200 * units.Micron, Objective: MinPower, Target: 2 * tmin,
	})

	// Both sides of the width lattice's guard (see prune.go): the engine's
	// front library on its dense 10u lattice, and two g = 1 libraries whose
	// sparse lattices send many levels back to the sorted classes.
	engine, err := repeater.Range(10, 400, 40)
	if err != nil {
		t.Fatal(err)
	}
	add("paperish-engine-mindelay", paperish, Options{Library: engine, Pitch: 200 * units.Micron, Objective: MinDelay})
	for _, l := range []struct {
		name string
		lib  repeater.Library
	}{
		{"engine", engine},
		{"g1-7-400", libOf(t, 7, 400)},
		{"g1-primes", libOf(t, 11, 53, 97, 131, 173, 211, 257, 293, 331, 397)},
	} {
		opts := Options{Library: l.lib, Pitch: 200 * units.Micron}
		ltmin, err := MinimumDelay(paperish, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Objective, opts.Target = MinPower, 1.3*ltmin
		add("paperish-"+l.name+"-minpower", paperish, opts)
	}
	return out
}

// libOf builds a library from explicit widths.
func libOf(t *testing.T, widths ...float64) repeater.Library {
	t.Helper()
	l, err := repeater.NewLibrary(widths)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestSolverMatchesReferenceCorpus differences the rewritten kernel against
// the preserved pre-Solver implementation on the deterministic corpus: the
// outputs must agree bit-exactly, including the work stats.
func TestSolverMatchesReferenceCorpus(t *testing.T) {
	s := NewSolver()
	for _, c := range corpusInstances(t) {
		got, gotErr := s.Solve(c.ev, c.opts)
		want, wantErr := solveReference(c.ev, c.opts)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: error mismatch: %v vs %v", c.name, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		diffSolutions(t, c.name, got, want)
	}
}

// randomInstance builds one randomized net + DP options pair. Instances
// deliberately mix multi-segment lines, forbidden zones, explicit and
// pitch-generated candidates, both objectives, and occasionally duplicate
// library widths quantized to a coarse grid (tie-heavy pruning).
func randomInstance(tb testing.TB, rng *rand.Rand) (*delay.Evaluator, Options) {
	tb.Helper()
	nseg := 1 + rng.Intn(4)
	segs := make([]wire.Segment, nseg)
	for i := range segs {
		segs[i] = wire.Segment{
			Length:   (0.5 + 2.5*rng.Float64()) * 1e-3,
			ROhmPerM: (4 + rng.Float64()*6) * 1e4,
			CFPerM:   (1.5 + 1.2*rng.Float64()) * 1e-10,
		}
	}
	var zones []wire.Zone
	total := 0.0
	for _, s := range segs {
		total += s.Length
	}
	if rng.Intn(3) == 0 {
		start := total * (0.2 + 0.4*rng.Float64())
		end := start + total*0.2*rng.Float64()
		zones = append(zones, wire.Zone{Start: start, End: end})
	}
	line, err := wire.New(segs, zones)
	if err != nil {
		tb.Fatal(err)
	}
	ev, err := delay.NewEvaluator(&wire.Net{
		Name: "rand", Line: line,
		DriverWidth:   40 + rng.Float64()*300,
		ReceiverWidth: 20 + rng.Float64()*100,
	}, tech.T180())
	if err != nil {
		tb.Fatal(err)
	}

	nw := 1 + rng.Intn(8)
	ws := make([]float64, nw)
	for i := range ws {
		if rng.Intn(2) == 0 {
			// Coarse grid: duplicates and shared Co·w classes are likely.
			ws[i] = float64(1+rng.Intn(6)) * 60
		} else {
			ws[i] = 10 + rng.Float64()*390
		}
	}
	libr, err := repeater.NewLibrary(ws)
	if err != nil {
		tb.Fatal(err)
	}

	opts := Options{Library: libr}
	if rng.Intn(2) == 0 {
		opts.Pitch = (150 + 400*rng.Float64()) * units.Micron
	} else {
		ncand := 1 + rng.Intn(7)
		for i := 0; i < ncand; i++ {
			x := total * rng.Float64()
			if line.Legal(x) {
				opts.Positions = append(opts.Positions, x)
			}
		}
		if len(opts.Positions) == 0 {
			opts.Pitch = 300 * units.Micron
			opts.Positions = nil
		}
	}
	if rng.Intn(4) == 0 {
		opts.Objective = MinDelay
	} else {
		opts.Objective = MinPower
		opts.Target = ev.MinUnbuffered() * (0.2 + 1.1*rng.Float64())
	}
	return ev, opts
}

// TestSolverMatchesReferenceRandom differences the kernel against the
// reference on ≥1000 randomized nets (the acceptance bar for the rewrite).
func TestSolverMatchesReferenceRandom(t *testing.T) {
	trials := 1200
	if testing.Short() {
		trials = 200
	}
	rng := rand.New(rand.NewSource(2005))
	s := NewSolver()
	for trial := 0; trial < trials; trial++ {
		ev, opts := randomInstance(t, rng)
		got, gotErr := s.Solve(ev, opts)
		want, wantErr := solveReference(ev, opts)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: error mismatch: %v vs %v", trial, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		diffSolutions(t, "trial", got, want)
		if got.Feasible {
			// The kernel's incremental delay must also match a full
			// re-evaluation of its own assignment.
			if err := ev.Validate(got.Assignment); err != nil {
				t.Fatalf("trial %d: illegal assignment: %v", trial, err)
			}
		}
	}
}

// TestSolverMatchesReferenceWithDuplicatePositions checks the explicit
// position path (validation errors included) agrees with the reference.
func TestSolverValidationErrorsMatchReference(t *testing.T) {
	ev := evalFor(t, paperishLine(t))
	good := lib(t, 10, 40, 10)
	cases := []Options{
		{Pitch: 200 * units.Micron, Objective: MinPower, Target: 1e-9},               // empty library
		{Library: good, Pitch: 200 * units.Micron, Objective: MinPower},              // missing target
		{Library: good, Objective: MinDelay},                                         // no positions or pitch
		{Library: good, Positions: []float64{4e-3}, Objective: MinDelay},             // inside zone
		{Library: good, Positions: []float64{1e-3, 1e-3}, Objective: MinDelay},       // duplicate
		{Library: good, Positions: []float64{2e-3, 1e-3, 3e-3}, Objective: MinDelay}, // unsorted but valid
	}
	s := NewSolver()
	for i, opts := range cases {
		_, gotErr := s.Solve(ev, opts)
		_, wantErr := solveReference(ev, opts)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("case %d: error mismatch: %v vs %v", i, gotErr, wantErr)
		}
		if gotErr != nil && wantErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("case %d: error text %q != reference %q", i, gotErr, wantErr)
		}
	}
}

// TestSolverReuseAcrossInstances checks one Solver solving very different
// instances back to back (the pipeline's coarse→fine shape) stays exact.
func TestSolverReuseAcrossInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSolver()
	// Interleave two instance streams through one Solver and fresh
	// reference runs; scratch bleed-through between solves would show up
	// as a mismatch on the second stream.
	for trial := 0; trial < 60; trial++ {
		ev, opts := randomInstance(t, rng)
		for pass := 0; pass < 2; pass++ {
			got, gotErr := s.Solve(ev, opts)
			want, wantErr := solveReference(ev, opts)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("trial %d pass %d: error mismatch: %v vs %v", trial, pass, gotErr, wantErr)
			}
			if gotErr == nil {
				diffSolutions(t, "reuse", got, want)
			}
		}
	}
}

// TestSolveIntoReusesAssignmentBuffers pins the zero-allocation contract:
// steady-state SolveInto on a warm Solver performs no heap allocations,
// including reconstruction into the reused Solution.
func TestSolveIntoZeroAllocSteadyState(t *testing.T) {
	ev := evalFor(t, paperishLine(t))
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"minpower", Options{Library: lib(t, 10, 40, 10), Pitch: 200 * units.Micron, Objective: MinPower, Target: 2e-9}},
		{"mindelay", Options{Library: lib(t, 10, 40, 10), Pitch: 200 * units.Micron, Objective: MinDelay}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSolver()
			var sol Solution
			for i := 0; i < 3; i++ { // warm the arenas
				if err := s.SolveInto(&sol, ev, tc.opts); err != nil {
					t.Fatal(err)
				}
			}
			if !sol.Feasible {
				t.Fatal("warmup solve must be feasible")
			}
			allocs := testing.AllocsPerRun(10, func() {
				if err := s.SolveInto(&sol, ev, tc.opts); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state SolveInto allocated %.1f times per run, want 0", allocs)
			}
		})
	}
}

// TestSolveFrontAllocs pins SolveFront's allocation profile: a warm solve
// allocates the Front, one array shared by every point's positions and
// widths and, when coupled, one shared by their schemes — at most 4
// objects however many points and repeaters the front holds. Each point's
// slices are capped at their length, so an append to one point's slice
// never writes into the next point's.
func TestSolveFrontAllocs(t *testing.T) {
	cev, copts := coupledRandomInstance(t, rand.New(rand.NewSource(3)))
	cpl, err := delay.NewCoupling(cev.Tech, delay.AggressorWorst, delay.SchemeModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	copts.Coupling = cpl
	for _, tc := range []struct {
		name string
		ev   *delay.Evaluator
		opts Options
	}{
		{"classic", evalFor(t, paperishLine(t)), Options{Library: lib(t, 10, 40, 10), Pitch: 200 * units.Micron}},
		{"coupled", cev, copts},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSolver()
			front, _, err := s.SolveFront(tc.ev, tc.opts) // also warms the arenas
			if err != nil {
				t.Fatal(err)
			}
			if len(front) < 2 {
				t.Fatalf("instance has a %d-point front, want several", len(front))
			}
			for i, p := range front {
				a := p.Assignment
				if cap(a.Positions) != len(a.Positions) || cap(a.Widths) != len(a.Widths) || cap(p.Schemes) != len(p.Schemes) {
					t.Fatalf("point %d: slices not capped at their length", i)
				}
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, _, err := s.SolveFront(tc.ev, tc.opts); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 4 {
				t.Fatalf("warm SolveFront allocated %.1f times per run, want ≤ 4", allocs)
			}
		})
	}
}

// TestSolveIsolatesResults ensures Solve's returned Solutions are safe to
// retain: a later solve on the same (pooled) Solver must not mutate them.
func TestSolveIsolatesResults(t *testing.T) {
	ev := evalFor(t, paperishLine(t))
	opts := Options{Library: lib(t, 10, 40, 10), Pitch: 200 * units.Micron, Objective: MinDelay}
	s := NewSolver()
	first, err := s.Solve(ev, opts)
	if err != nil {
		t.Fatal(err)
	}
	snapPos := append([]float64(nil), first.Assignment.Positions...)
	snapW := append([]float64(nil), first.Assignment.Widths...)
	if _, err := s.Solve(ev, Options{Library: lib(t, 80, 80, 5), Pitch: 400 * units.Micron, Objective: MinDelay}); err != nil {
		t.Fatal(err)
	}
	for i := range snapPos {
		if first.Assignment.Positions[i] != snapPos[i] || first.Assignment.Widths[i] != snapW[i] {
			t.Fatal("a later solve mutated a previously returned Solution")
		}
	}
}
