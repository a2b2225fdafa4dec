package dp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/repeater"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/units"
	"github.com/rip-eda/rip/internal/wire"
)

// evalFor builds an evaluator over the given line with standard terminals.
func evalFor(t *testing.T, line *wire.Line) *delay.Evaluator {
	t.Helper()
	ev, err := delay.NewEvaluator(&wire.Net{Name: "t", Line: line, DriverWidth: 120, ReceiverWidth: 60}, tech.T180())
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// paperishLine is an 8mm three-segment global wire with a forbidden zone.
func paperishLine(t *testing.T) *wire.Line {
	t.Helper()
	line, err := wire.New([]wire.Segment{
		{Length: 2.5e-3, ROhmPerM: 8e4, CFPerM: 2.3e-10, Layer: "metal4"},
		{Length: 3.0e-3, ROhmPerM: 6e4, CFPerM: 2.1e-10, Layer: "metal5"},
		{Length: 2.5e-3, ROhmPerM: 8e4, CFPerM: 2.3e-10, Layer: "metal4"},
	}, []wire.Zone{{Start: 3.4e-3, End: 5.0e-3}})
	if err != nil {
		t.Fatal(err)
	}
	return line
}

func lib(t *testing.T, min, step float64, n int) repeater.Library {
	t.Helper()
	l, err := repeater.Uniform(min, step, n)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestSolveInputValidation(t *testing.T) {
	ev := evalFor(t, paperishLine(t))
	good := lib(t, 10, 40, 10)
	if _, err := Solve(ev, Options{Pitch: 200 * units.Micron, Objective: MinPower, Target: 1e-9}); err == nil {
		t.Error("empty library should fail")
	}
	if _, err := Solve(ev, Options{Library: good, Pitch: 200 * units.Micron, Objective: MinPower}); err == nil {
		t.Error("missing target should fail")
	}
	if _, err := Solve(ev, Options{Library: good, Objective: MinDelay}); err == nil {
		t.Error("missing positions and pitch should fail")
	}
	if _, err := Solve(ev, Options{Library: good, Positions: []float64{4e-3}, Objective: MinDelay}); err == nil {
		t.Error("candidate inside forbidden zone should fail")
	}
	if _, err := Solve(ev, Options{Library: good, Positions: []float64{1e-3, 1e-3}, Objective: MinDelay}); err == nil {
		t.Error("duplicate candidates should fail")
	}
}

func TestMinDelayBeatsUnbuffered(t *testing.T) {
	ev := evalFor(t, paperishLine(t))
	tmin, err := MinimumDelay(ev, Options{Library: lib(t, 10, 10, 40), Pitch: 200 * units.Micron})
	if err != nil {
		t.Fatal(err)
	}
	if !(tmin < ev.MinUnbuffered()) {
		t.Errorf("buffering should beat the raw wire: τmin %g vs %g", tmin, ev.MinUnbuffered())
	}
	if !(tmin > 0) {
		t.Errorf("τmin must be positive, got %g", tmin)
	}
}

func TestSolutionRespectsConstraints(t *testing.T) {
	ev := evalFor(t, paperishLine(t))
	tmin, err := MinimumDelay(ev, Options{Library: lib(t, 10, 10, 40), Pitch: 200 * units.Micron})
	if err != nil {
		t.Fatal(err)
	}
	target := 1.3 * tmin
	sol, err := Solve(ev, Options{
		Library:   lib(t, 10, 20, 10),
		Pitch:     200 * units.Micron,
		Objective: MinPower,
		Target:    target,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatal("expected a feasible solution at 1.3·τmin")
	}
	// The assignment must validate (ordering, zones) and its re-evaluated
	// delay must match the DP's incremental computation.
	if err := ev.Validate(sol.Assignment); err != nil {
		t.Fatalf("DP produced an illegal assignment: %v", err)
	}
	full := ev.Total(sol.Assignment)
	if math.Abs(full-sol.Delay)/full > 1e-9 {
		t.Errorf("incremental delay %g != full evaluation %g", sol.Delay, full)
	}
	if sol.Delay > target {
		t.Errorf("delay %g exceeds target %g", sol.Delay, target)
	}
	if math.Abs(sol.TotalWidth-sol.Assignment.TotalWidth()) > 1e-12 {
		t.Error("TotalWidth mismatch")
	}
	for _, x := range sol.Assignment.Positions {
		if ev.Line.InZone(x) {
			t.Errorf("repeater at %g inside forbidden zone", x)
		}
	}
}

func TestInfeasibleTarget(t *testing.T) {
	ev := evalFor(t, paperishLine(t))
	sol, err := Solve(ev, Options{
		Library:   lib(t, 10, 10, 10),
		Pitch:     200 * units.Micron,
		Objective: MinPower,
		Target:    1e-12, // 1 ps: impossible for an 8mm wire
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Feasible {
		t.Error("1 ps target should be infeasible")
	}
}

func TestSmallLibraryCausesViolationsTightTarget(t *testing.T) {
	// The zone-I effect of Figure 7(a): with max width 100u the DP cannot
	// meet very tight targets that a richer library can.
	ev := evalFor(t, paperishLine(t))
	rich, err := MinimumDelay(ev, Options{Library: lib(t, 10, 10, 40), Pitch: 200 * units.Micron})
	if err != nil {
		t.Fatal(err)
	}
	target := 1.05 * rich
	small, err := Solve(ev, Options{
		Library:   lib(t, 10, 10, 10), // 10..100u: no large repeaters
		Pitch:     200 * units.Micron,
		Objective: MinPower,
		Target:    target,
	})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Solve(ev, Options{
		Library:   lib(t, 10, 40, 10), // 10..370u
		Pitch:     200 * units.Micron,
		Objective: MinPower,
		Target:    target,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !big.Feasible {
		t.Fatal("370u library should meet 1.05·τmin")
	}
	if small.Feasible && small.TotalWidth < big.TotalWidth {
		t.Log("note: small library met the tight target on this net (acceptable, zone-I is statistical)")
	}
}

func TestMonotoneTargetWidths(t *testing.T) {
	// Looser targets can only need less (or equal) total width.
	ev := evalFor(t, paperishLine(t))
	tmin, err := MinimumDelay(ev, Options{Library: lib(t, 10, 10, 40), Pitch: 200 * units.Micron})
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, mult := range []float64{1.1, 1.3, 1.5, 1.8, 2.0} {
		sol, err := Solve(ev, Options{
			Library:   lib(t, 10, 20, 10),
			Pitch:     200 * units.Micron,
			Objective: MinPower,
			Target:    mult * tmin,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Feasible {
			continue
		}
		if sol.TotalWidth > prev+1e-9 {
			t.Errorf("width grew with looser target at %g·τmin: %g > %g", mult, sol.TotalWidth, prev)
		}
		prev = sol.TotalWidth
	}
}

func TestAgainstBruteForceMinPower(t *testing.T) {
	// Small instances: DP must match exhaustive enumeration exactly.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		nseg := 1 + rng.Intn(3)
		segs := make([]wire.Segment, nseg)
		for i := range segs {
			segs[i] = wire.Segment{
				Length:   (1 + 2*rng.Float64()) * 1e-3,
				ROhmPerM: (5 + rng.Float64()*5) * 1e4,
				CFPerM:   (1.8 + rng.Float64()) * 1e-10,
			}
		}
		line, err := wire.New(segs, nil)
		if err != nil {
			t.Fatal(err)
		}
		ev := evalFor(t, line)
		ncand := 2 + rng.Intn(3) // 2..4 candidates
		positions := make([]float64, 0, ncand)
		for i := 0; i < ncand; i++ {
			positions = append(positions, line.Length()*(float64(i)+0.5)/float64(ncand))
		}
		libw := []float64{40, 120, 280}[:1+rng.Intn(3)]
		l, err := repeater.NewLibrary(libw)
		if err != nil {
			t.Fatal(err)
		}
		target := ev.MinUnbuffered() * (0.3 + rng.Float64()*0.7)
		opts := Options{Library: l, Positions: positions, Objective: MinPower, Target: target}
		got, err := Solve(ev, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := BruteForce(ev, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Feasible != want.Feasible {
			t.Fatalf("trial %d: feasibility mismatch: dp %v brute %v", trial, got.Feasible, want.Feasible)
		}
		if !got.Feasible {
			continue
		}
		if math.Abs(got.TotalWidth-want.TotalWidth) > 1e-9 {
			t.Fatalf("trial %d: width %g != brute %g", trial, got.TotalWidth, want.TotalWidth)
		}
	}
}

func TestAgainstBruteForceMinDelay(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		line, err := wire.Uniform((3+4*rng.Float64())*1e-3, 8e4, 2.3e-10, "m4")
		if err != nil {
			t.Fatal(err)
		}
		ev := evalFor(t, line)
		positions := []float64{line.Length() * 0.25, line.Length() * 0.5, line.Length() * 0.75}
		l, err := repeater.NewLibrary([]float64{60, 140, 260})
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Library: l, Positions: positions, Objective: MinDelay}
		got, err := Solve(ev, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := BruteForce(ev, opts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Delay-want.Delay)/want.Delay > 1e-9 {
			t.Fatalf("trial %d: delay %g != brute %g", trial, got.Delay, want.Delay)
		}
	}
}

func TestZoneExclusionEndToEnd(t *testing.T) {
	// A line that is mostly forbidden zone: DP candidates must avoid it and
	// solutions must still exist.
	line, err := wire.New([]wire.Segment{
		{Length: 8e-3, ROhmPerM: 8e4, CFPerM: 2.3e-10, Layer: "metal4"},
	}, []wire.Zone{{Start: 1e-3, End: 7e-3}})
	if err != nil {
		t.Fatal(err)
	}
	ev := evalFor(t, line)
	sol, err := Solve(ev, Options{
		Library:   lib(t, 10, 40, 10),
		Pitch:     200 * units.Micron,
		Objective: MinDelay,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatal("min-delay must always produce a solution")
	}
	for _, x := range sol.Assignment.Positions {
		if x > 1e-3 && x < 7e-3 {
			t.Errorf("repeater at %g inside the zone", x)
		}
	}
}

func TestStatsGrowWithLibrary(t *testing.T) {
	// Table 2's premise: finer libraries mean more DP work.
	ev := evalFor(t, paperishLine(t))
	tmin, err := MinimumDelay(ev, Options{Library: lib(t, 10, 10, 40), Pitch: 200 * units.Micron})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := Solve(ev, Options{Library: lib(t, 10, 40, 10), Pitch: 200 * units.Micron, Objective: MinPower, Target: 1.5 * tmin})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := Solve(ev, Options{Library: lib(t, 10, 10, 40), Pitch: 200 * units.Micron, Objective: MinPower, Target: 1.5 * tmin})
	if err != nil {
		t.Fatal(err)
	}
	if !(fine.Stats.Generated > coarse.Stats.Generated) {
		t.Errorf("finer library should generate more options: %d vs %d",
			fine.Stats.Generated, coarse.Stats.Generated)
	}
	if coarse.Stats.Candidates == 0 || coarse.Stats.MaxPerLevel == 0 {
		t.Error("stats should be populated")
	}
}

// pruneAll runs the pruner over an unbucketed option set (all in the
// no-repeater bucket, no repeater widths), the shape the legacy prune
// tests exercised.
func pruneAll(opts []option, width bool) []option {
	var p pruner
	p.reset(nil, nil)
	p.runs = append(p.runs, opts...)
	return p.pruneInto(nil, width)
}

func TestPruneKeepsParetoFront(t *testing.T) {
	opts := []option{
		{c: 1, d: 1, w: 1}, // kept
		{c: 2, d: 2, w: 2}, // dominated by first
		{c: 1, d: 2, w: 0}, // kept (smaller w)
		{c: 0, d: 3, w: 3}, // kept (smaller c)
		{c: 1, d: 1, w: 1}, // duplicate, dropped
	}
	kept := pruneAll(append([]option(nil), opts...), true)
	if len(kept) != 3 {
		t.Fatalf("kept %d options, want 3: %+v", len(kept), kept)
	}
	// Pairwise non-dominance.
	for i := range kept {
		for j := range kept {
			if i == j {
				continue
			}
			a, b := kept[i], kept[j]
			if a.c <= b.c && a.d <= b.d && a.w <= b.w {
				t.Errorf("kept option %v dominated by %v", b, a)
			}
		}
	}
}

func TestPrune2DIgnoresWidth(t *testing.T) {
	opts := []option{
		{c: 1, d: 5, w: 0},
		{c: 2, d: 4, w: 100}, // kept in 2D despite huge width
		{c: 3, d: 4.5, w: 0}, // dominated in (c,d) by previous
	}
	kept := pruneAll(append([]option(nil), opts...), false)
	if len(kept) != 2 {
		t.Fatalf("kept %d, want 2: %+v", len(kept), kept)
	}
	// 2-D mode must not clobber the options' real widths (the old prune
	// zeroed them in place).
	for _, o := range kept {
		if o.c == 2 && o.w != 100 {
			t.Errorf("2-D prune mutated a kept option's width: %+v", o)
		}
	}
}

func TestWorkBudget(t *testing.T) {
	ev := evalFor(t, paperishLine(t))
	tmin, err := MinimumDelay(ev, Options{Library: lib(t, 10, 10, 40), Pitch: 200 * units.Micron})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Library:   lib(t, 10, 10, 40),
		Pitch:     200 * units.Micron,
		Objective: MinPower,
		Target:    1.4 * tmin,
	}
	// Tiny budget: must abort with ErrBudget.
	opts.MaxGenerated = 50
	if _, err := Solve(ev, opts); !errors.Is(err, ErrBudget) {
		t.Errorf("want ErrBudget, got %v", err)
	}
	// Ample budget: identical result to unlimited.
	opts.MaxGenerated = 1 << 30
	bounded, err := Solve(ev, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.MaxGenerated = 0
	unlimited, err := Solve(ev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if bounded.TotalWidth != unlimited.TotalWidth {
		t.Errorf("budget changed the answer: %g vs %g", bounded.TotalWidth, unlimited.TotalWidth)
	}
}

func TestBruteForceRefusesHugeInstances(t *testing.T) {
	ev := evalFor(t, paperishLine(t))
	big := make([]float64, 30)
	for i := range big {
		big[i] = 0.1e-3 * float64(i+1)
	}
	_, err := BruteForce(ev, Options{Library: lib(t, 10, 10, 10), Positions: big, Objective: MinDelay})
	if err == nil {
		t.Error("expected work-budget refusal")
	}
}
