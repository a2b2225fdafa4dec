package dp

import (
	"math"
	"math/rand"
	"testing"

	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/repeater"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/units"
	"github.com/rip-eda/rip/internal/wire"
)

// fpSlack absorbs accumulated float rounding when checking certified
// bounds that are proved in real arithmetic.
const fpSlack = 1e-9

// couplingScenarios enumerates every (aggressor, mode) pair a coupled
// solve accepts.
func couplingScenarios(t *testing.T) []*delay.Coupling {
	t.Helper()
	var out []*delay.Coupling
	for _, agg := range []delay.Aggressor{delay.AggressorWorst, delay.AggressorBest, delay.AggressorQuiet} {
		for _, mode := range []delay.SchemeMode{delay.SchemePlainOnly, delay.SchemeModeStaggered, delay.SchemeModeShielded, delay.SchemeModeAuto} {
			cpl, err := delay.NewCoupling(tech.T180(), agg, mode)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, cpl)
		}
	}
	return out
}

// diffCoupledZeroCc checks a coupled solve of a zero-coupling net against
// the classic solver: identical feasibility, delay, width and assignment,
// bit for bit, with every interval priced plain.
func diffCoupledZeroCc(t *testing.T, name string, got, want Solution) {
	t.Helper()
	if got.Feasible != want.Feasible {
		t.Fatalf("%s: feasible %v, want %v", name, got.Feasible, want.Feasible)
	}
	if !got.Feasible {
		return
	}
	if got.Delay != want.Delay {
		t.Fatalf("%s: delay %.17g != uncoupled %.17g", name, got.Delay, want.Delay)
	}
	if got.TotalWidth != want.TotalWidth {
		t.Fatalf("%s: total width %.17g != uncoupled %.17g", name, got.TotalWidth, want.TotalWidth)
	}
	if len(got.Assignment.Positions) != len(want.Assignment.Positions) {
		t.Fatalf("%s: %d repeaters, uncoupled %d", name, len(got.Assignment.Positions), len(want.Assignment.Positions))
	}
	for i := range got.Assignment.Positions {
		if got.Assignment.Positions[i] != want.Assignment.Positions[i] ||
			got.Assignment.Widths[i] != want.Assignment.Widths[i] {
			t.Fatalf("%s: repeater %d (%g, %g) != uncoupled (%g, %g)", name, i,
				got.Assignment.Positions[i], got.Assignment.Widths[i],
				want.Assignment.Positions[i], want.Assignment.Widths[i])
		}
	}
	for i, sch := range got.Schemes {
		if sch != delay.SchemePlain {
			t.Fatalf("%s: interval %d chose %s on a zero-coupling net", name, i, delay.SchemeName(sch))
		}
	}
	if got.StaggerLen != 0 || got.ShieldLen != 0 {
		t.Fatalf("%s: nonzero scheme lengths (%g, %g) on a zero-coupling net", name, got.StaggerLen, got.ShieldLen)
	}
}

// TestCoupledZeroCcMatchesUncoupledCorpus is the zero-coupling
// differential oracle on the deterministic corpus: with every segment's
// coupling capacitance zero, a coupled solve under any aggressor and any
// scheme mode must reproduce the classic solver bit for bit — the plain
// scheme's arithmetic is the same expressions, staggered duplicates are
// killed plain-first, and shielded options are strictly dominated. Both
// the bounded solver and the front solver are differenced.
func TestCoupledZeroCcMatchesUncoupledCorpus(t *testing.T) {
	scens := couplingScenarios(t)
	s, sc := NewSolver(), NewSolver()
	// Fronts ignore Objective/Target, so instances repeated across target
	// multipliers would difference identical fronts; do fronts once per
	// instance name. The aggressor only scales the (zero) coupling terms,
	// so the front sweep fixes aggressor=worst and varies the scheme mode.
	frontDone := map[string]bool{}
	for _, c := range corpusInstances(t) {
		want, wantErr := s.Solve(c.ev, c.opts)
		for _, cpl := range scens {
			// At cc=0 the aggressor only scales zero terms, so non-worst
			// aggressors are the same arithmetic; difference them once
			// (auto mode) and sweep the modes under worst.
			if cpl.Aggressor != delay.AggressorWorst && cpl.Mode != delay.SchemeModeAuto {
				continue
			}
			name := c.name + "/" + cpl.Aggressor.String() + "/" + cpl.Mode.String()
			copts := c.opts
			copts.Coupling = cpl
			got, gotErr := sc.Solve(c.ev, copts)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s: error mismatch: %v vs %v", name, gotErr, wantErr)
			}
			if gotErr == nil {
				diffCoupledZeroCc(t, name, got, want)
			}
		}

		if frontDone[c.name] {
			continue
		}
		frontDone[c.name] = true
		wf, _, wantFErr := s.SolveFront(c.ev, c.opts)
		for _, cpl := range scens {
			if cpl.Aggressor != delay.AggressorWorst {
				continue
			}
			name := c.name + "/" + cpl.Aggressor.String() + "/" + cpl.Mode.String()
			copts := c.opts
			copts.Coupling = cpl
			gf, _, gotFErr := sc.SolveFront(c.ev, copts)
			if (gotFErr == nil) != (wantFErr == nil) {
				t.Fatalf("%s front: error mismatch: %v vs %v", name, gotFErr, wantFErr)
			}
			if gotFErr != nil {
				continue
			}
			if len(gf) != len(wf) {
				t.Fatalf("%s front: %d points, uncoupled %d", name, len(gf), len(wf))
			}
			for i := range gf {
				if gf[i].Delay != wf[i].Delay || gf[i].TotalWidth != wf[i].TotalWidth {
					t.Fatalf("%s front point %d: (%.17g, %.17g) != uncoupled (%.17g, %.17g)",
						name, i, gf[i].Delay, gf[i].TotalWidth, wf[i].Delay, wf[i].TotalWidth)
				}
				for j, sch := range gf[i].Schemes {
					if sch != delay.SchemePlain {
						t.Fatalf("%s front point %d interval %d chose %s on a zero-coupling net",
							name, i, j, delay.SchemeName(sch))
					}
				}
			}
		}
	}
}

// coupledRandomInstance draws a random coupled net + options pair: the
// randomInstance distribution with per-segment coupling densities of the
// same order as the ground capacitance, always on pitch-generated
// candidates (the grid the scheme vector is defined over).
func coupledRandomInstance(tb testing.TB, rng *rand.Rand) (*delay.Evaluator, Options) {
	tb.Helper()
	nseg := 1 + rng.Intn(4)
	segs := make([]wire.Segment, nseg)
	for i := range segs {
		segs[i] = wire.Segment{
			Length:   (0.5 + 2.5*rng.Float64()) * 1e-3,
			ROhmPerM: (4 + rng.Float64()*6) * 1e4,
			CFPerM:   (1.5 + 1.2*rng.Float64()) * 1e-10,
			CcFPerM:  (0.5 + 1.5*rng.Float64()) * 1e-10,
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
		Name: "randcc", Line: line,
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
	return ev, Options{Library: libr, Pitch: (150 + 400*rng.Float64()) * units.Micron}
}

// TestCoupledZeroCcMatchesUncoupledRandom is the randomized rendering of
// the zero-coupling differential, on the randomInstance distribution
// (whose segments carry no coupling capacitance).
func TestCoupledZeroCcMatchesUncoupledRandom(t *testing.T) {
	trials := 500
	if testing.Short() {
		trials = 100
	}
	scens := couplingScenarios(t)
	rng := rand.New(rand.NewSource(905))
	s, sc := NewSolver(), NewSolver()
	for trial := 0; trial < trials; trial++ {
		ev, opts := randomInstance(t, rng)
		cpl := scens[rng.Intn(len(scens))]
		copts := opts
		copts.Coupling = cpl
		want, wantErr := s.Solve(ev, opts)
		got, gotErr := sc.Solve(ev, copts)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: error mismatch: %v vs %v", trial, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		diffCoupledZeroCc(t, "trial", got, want)
	}
}

// TestCoupledCostDominatesUncoupled pins the other half of figure 9's
// premise: crosstalk only costs. At the same absolute budget, the
// coupled optimum — even with shielding or staggering on the menu —
// never beats the classic ground-only optimum, because every coupled
// candidate's delay dominates its uncoupled twin's (MF ≥ 0, shields
// restore the ground-only delay but pay ShieldUPerM in the objective).
// "Shielded power ≥ unshielded power at equal budget", as a property
// over random coupled nets.
func TestCoupledCostDominatesUncoupled(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 30
	}
	tc := tech.T180()
	rng := rand.New(rand.NewSource(907))
	s, sc := NewSolver(), NewSolver()
	for trial := 0; trial < trials; trial++ {
		ev, opts := coupledRandomInstance(t, rng)
		// The budget must be feasible uncoupled (it is: coupled τmin
		// dominates uncoupled τmin), and may or may not be coupled-feasible.
		uncTMin, err := s.MinimumDelay(ev, opts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		target := uncTMin * (1.1 + rng.Float64())
		uopts := opts
		uopts.Objective = MinPower
		uopts.Target = target
		unc, err := s.Solve(ev, uopts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !unc.Feasible {
			continue
		}
		for _, mode := range []delay.SchemeMode{delay.SchemePlainOnly, delay.SchemeModeStaggered, delay.SchemeModeShielded, delay.SchemeModeAuto} {
			cpl, err := delay.NewCoupling(tc, delay.AggressorWorst, mode)
			if err != nil {
				t.Fatal(err)
			}
			copts := uopts
			copts.Coupling = cpl
			sol, err := sc.Solve(ev, copts)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, mode, err)
			}
			if !sol.Feasible {
				continue
			}
			if sol.Cost < unc.TotalWidth*(1-fpSlack) {
				t.Fatalf("trial %d: coupled %s cost %g beats uncoupled width %g at the same budget",
					trial, mode, sol.Cost, unc.TotalWidth)
			}
		}
	}
}

// TestCoupledSchemeLattice pins the structural property of the allowed
// scheme sets on random coupled nets: every mode's allowed set contains
// plain and auto contains everything, so widening the set can only
// improve the optimum — minimum delay never rises, and at a fixed budget
// the DP cost never rises (in particular "staggered ≤ pessimistic",
// figure 9's premise). It also pins the aggressor ordering best ≤ quiet
// ≤ worst for plain wires and the shielding cost accounting.
func TestCoupledSchemeLattice(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 30
	}
	tc := tech.T180()
	rng := rand.New(rand.NewSource(906))
	s := NewSolver()
	newCpl := func(agg delay.Aggressor, mode delay.SchemeMode) *delay.Coupling {
		cpl, err := delay.NewCoupling(tc, agg, mode)
		if err != nil {
			t.Fatal(err)
		}
		return cpl
	}
	for trial := 0; trial < trials; trial++ {
		ev, opts := coupledRandomInstance(t, rng)

		// Aggressor ordering on plain wires: MF 0 ≤ 1 ≤ 2.
		tmin := map[delay.Aggressor]float64{}
		for _, agg := range []delay.Aggressor{delay.AggressorWorst, delay.AggressorBest, delay.AggressorQuiet} {
			copts := opts
			copts.Coupling = newCpl(agg, delay.SchemePlainOnly)
			d, err := s.MinimumDelay(ev, copts)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, agg, err)
			}
			tmin[agg] = d
		}
		if !(tmin[delay.AggressorBest] <= tmin[delay.AggressorQuiet]*(1+fpSlack)) ||
			!(tmin[delay.AggressorQuiet] <= tmin[delay.AggressorWorst]*(1+fpSlack)) {
			t.Fatalf("trial %d: aggressor τmin ordering violated: best %g quiet %g worst %g",
				trial, tmin[delay.AggressorBest], tmin[delay.AggressorQuiet], tmin[delay.AggressorWorst])
		}

		// Scheme-set lattice under the pessimistic aggressor.
		mode := func(m delay.SchemeMode) Options {
			copts := opts
			copts.Coupling = newCpl(delay.AggressorWorst, m)
			return copts
		}
		dPlain, err := s.MinimumDelay(ev, mode(delay.SchemePlainOnly))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, m := range []delay.SchemeMode{delay.SchemeModeStaggered, delay.SchemeModeShielded, delay.SchemeModeAuto} {
			d, err := s.MinimumDelay(ev, mode(m))
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, m, err)
			}
			if !(d <= dPlain*(1+fpSlack)) {
				t.Fatalf("trial %d: τmin under %s mode %g exceeds plain-only %g", trial, m, d, dPlain)
			}
		}

		// Fixed budget: superset cost never rises, and a solution's Cost
		// decomposes into repeater width plus priced shielding.
		target := dPlain * (1.05 + rng.Float64())
		costs := map[delay.SchemeMode]Solution{}
		for _, m := range []delay.SchemeMode{delay.SchemePlainOnly, delay.SchemeModeStaggered, delay.SchemeModeShielded, delay.SchemeModeAuto} {
			copts := mode(m)
			copts.Objective = MinPower
			copts.Target = target
			sol, err := s.Solve(ev, copts)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, m, err)
			}
			costs[m] = sol
			if !sol.Feasible {
				continue
			}
			wantCost := sol.TotalWidth + tc.ShieldUPerM*sol.ShieldLen
			if math.Abs(sol.Cost-wantCost) > fpSlack*(1+math.Abs(wantCost)) {
				t.Fatalf("trial %d %s: cost %g != width %g + shield %g", trial, m, sol.Cost, sol.TotalWidth, tc.ShieldUPerM*sol.ShieldLen)
			}
			if sol.ShieldLen > 0 && m != delay.SchemeModeShielded && m != delay.SchemeModeAuto {
				t.Fatalf("trial %d %s: shielding used under a mode that forbids it", trial, m)
			}
			if sol.StaggerLen > 0 && m != delay.SchemeModeStaggered && m != delay.SchemeModeAuto {
				t.Fatalf("trial %d %s: staggering used under a mode that forbids it", trial, m)
			}
		}
		plain := costs[delay.SchemePlainOnly]
		for _, m := range []delay.SchemeMode{delay.SchemeModeStaggered, delay.SchemeModeShielded, delay.SchemeModeAuto} {
			sol := costs[m]
			if plain.Feasible && !sol.Feasible {
				t.Fatalf("trial %d: plain-only feasible but %s mode is not", trial, m)
			}
			if plain.Feasible && sol.Cost > plain.Cost*(1+fpSlack) {
				t.Fatalf("trial %d: %s mode cost %g exceeds plain-only %g", trial, m, sol.Cost, plain.Cost)
			}
		}
		auto := costs[delay.SchemeModeAuto]
		for _, m := range []delay.SchemeMode{delay.SchemeModeStaggered, delay.SchemeModeShielded} {
			if costs[m].Feasible && auto.Cost > costs[m].Cost*(1+fpSlack) {
				t.Fatalf("trial %d: auto cost %g exceeds %s mode %g", trial, auto.Cost, m, costs[m].Cost)
			}
		}
	}
}

// TestCoupledDelayMatchesCoupledTotal re-evaluates every coupled DP
// solution through the independent delay.CoupledTotal walk: the solver's
// incrementally accumulated delay and the from-scratch evaluation of its
// (assignment, schemes) pair must agree to rounding.
func TestCoupledDelayMatchesCoupledTotal(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 50
	}
	scens := couplingScenarios(t)
	rng := rand.New(rand.NewSource(907))
	s := NewSolver()
	for trial := 0; trial < trials; trial++ {
		ev, opts := coupledRandomInstance(t, rng)
		cpl := scens[rng.Intn(len(scens))]
		opts.Coupling = cpl
		if rng.Intn(2) == 0 {
			opts.Objective = MinDelay
		} else {
			opts.Objective = MinPower
			tmin, err := s.MinimumDelay(ev, opts)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			opts.Target = tmin * (1.02 + rng.Float64())
		}
		sol, err := s.Solve(ev, opts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !sol.Feasible {
			continue
		}
		pts := append([]float64{0}, ev.Line.AppendLegalPositions(nil, opts.Pitch)...)
		pts = append(pts, ev.Line.Length())
		if len(sol.Schemes) != len(pts)-1 {
			t.Fatalf("trial %d: %d schemes for %d grid intervals", trial, len(sol.Schemes), len(pts)-1)
		}
		d, err := ev.CoupledTotal(pts, sol.Schemes, cpl, sol.Assignment)
		if err != nil {
			t.Fatalf("trial %d: CoupledTotal: %v", trial, err)
		}
		if math.Abs(d-sol.Delay) > fpSlack*sol.Delay {
			t.Fatalf("trial %d: DP delay %.17g but CoupledTotal %.17g", trial, sol.Delay, d)
		}
		if opts.Objective == MinPower && sol.Delay > opts.Target {
			t.Fatalf("trial %d: delay %g exceeds target %g", trial, sol.Delay, opts.Target)
		}
		gotStag, gotShield := delay.SchemeLengths(pts, sol.Schemes)
		if gotStag != sol.StaggerLen || gotShield != sol.ShieldLen {
			t.Fatalf("trial %d: scheme lengths (%g, %g) != reported (%g, %g)",
				trial, gotStag, gotShield, sol.StaggerLen, sol.ShieldLen)
		}
	}
}

// TestCoupledFrontAnswersBudgets pins the front/bounded equivalence under
// coupling: Front.At(T) must select the same (delay, cost, schemes) a
// fresh bounded MinPower solve at Target=T picks, for targets swept
// across the front's range — the contract the engine's front-native cache
// rides on, now with the scheme dimension in play.
func TestCoupledFrontAnswersBudgets(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 15
	}
	scens := couplingScenarios(t)
	rng := rand.New(rand.NewSource(908))
	s, sb := NewSolver(), NewSolver()
	for trial := 0; trial < trials; trial++ {
		ev, opts := coupledRandomInstance(t, rng)
		cpl := scens[rng.Intn(len(scens))]
		opts.Coupling = cpl
		front, _, err := s.SolveFront(ev, opts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(front) == 0 {
			continue
		}
		for i := range front {
			if i > 0 && !(front[i].Delay > front[i-1].Delay && front[i].Cost < front[i-1].Cost) {
				t.Fatalf("trial %d: front not a strict skyline at %d", trial, i)
			}
		}
		lo, hi := front[0].Delay, front[len(front)-1].Delay
		for k := 0; k < 8; k++ {
			target := lo + (hi-lo)*rng.Float64()*1.1
			idx, ok := front.At(target)
			bopts := opts
			bopts.Objective = MinPower
			bopts.Target = target
			sol, err := sb.Solve(ev, bopts)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if ok != sol.Feasible {
				t.Fatalf("trial %d target %g: front ok=%v but bounded feasible=%v", trial, target, ok, sol.Feasible)
			}
			if !ok {
				continue
			}
			p := front[idx]
			if p.Delay != sol.Delay || p.Cost != sol.Cost {
				t.Fatalf("trial %d target %g: front (%.17g, %.17g) != bounded (%.17g, %.17g)",
					trial, target, p.Delay, p.Cost, sol.Delay, sol.Cost)
			}
			if len(p.Schemes) != len(sol.Schemes) {
				t.Fatalf("trial %d target %g: %d front schemes, %d bounded", trial, target, len(p.Schemes), len(sol.Schemes))
			}
			for j := range p.Schemes {
				if p.Schemes[j] != sol.Schemes[j] {
					t.Fatalf("trial %d target %g interval %d: front %s != bounded %s",
						trial, target, j, delay.SchemeName(p.Schemes[j]), delay.SchemeName(sol.Schemes[j]))
				}
			}
		}
	}
}
