package dp

import (
	"math/rand"
	"testing"

	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/netgen"
	"github.com/rip-eda/rip/internal/repeater"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/units"
	"github.com/rip-eda/rip/internal/wire"
)

// benchEval builds the paper-ish 8mm three-segment net the dp unit tests
// use, so kernel benchmarks and correctness tests exercise the same shape.
func benchEval(b *testing.B) *delay.Evaluator {
	b.Helper()
	line, err := wire.New([]wire.Segment{
		{Length: 2.5e-3, ROhmPerM: 8e4, CFPerM: 2.3e-10, Layer: "metal4"},
		{Length: 3.0e-3, ROhmPerM: 6e4, CFPerM: 2.1e-10, Layer: "metal5"},
		{Length: 2.5e-3, ROhmPerM: 8e4, CFPerM: 2.3e-10, Layer: "metal4"},
	}, []wire.Zone{{Start: 3.4e-3, End: 5.0e-3}})
	if err != nil {
		b.Fatal(err)
	}
	ev, err := delay.NewEvaluator(&wire.Net{Name: "bench", Line: line, DriverWidth: 120, ReceiverWidth: 60}, tech.T180())
	if err != nil {
		b.Fatal(err)
	}
	return ev
}

func benchOpts(b *testing.B, ev *delay.Evaluator, g float64, objective Objective) Options {
	b.Helper()
	lib, err := repeater.Range(10, 400, g)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Library: lib, Pitch: 200 * units.Micron, Objective: objective}
	if objective == MinPower {
		tmin, err := MinimumDelay(ev, Options{Library: lib, Pitch: 200 * units.Micron})
		if err != nil {
			b.Fatal(err)
		}
		opts.Target = 1.3 * tmin
	}
	return opts
}

// benchmarkSolve measures the steady-state kernel cost: one warm Solver,
// one reused Solution, repeated SolveInto — the shape batch workers run.
// Steady state performs zero heap allocations.
func benchmarkSolve(b *testing.B, g float64, objective Objective) {
	ev := benchEval(b)
	opts := benchOpts(b, ev, g, objective)
	s := NewSolver()
	var sol Solution
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.SolveInto(&sol, ev, opts); err != nil {
			b.Fatal(err)
		}
		if !sol.Feasible {
			b.Fatal("benchmark instance must be feasible")
		}
	}
}

func BenchmarkSolve(b *testing.B)          { benchmarkSolve(b, 10, MinPower) }
func BenchmarkSolve_g40(b *testing.B)      { benchmarkSolve(b, 40, MinPower) }
func BenchmarkSolve_MinDelay(b *testing.B) { benchmarkSolve(b, 10, MinDelay) }

// BenchmarkSolveFront_Engine measures the front kernel ripd runs for every
// cold line shape: the engine's front space (10u–400u at a 40u step,
// 200 µm pitch) on a fixed 10-segment 65nm netgen line. Its dense 10u
// lattice puts most levels on the width lattice.
func BenchmarkSolveFront_Engine(b *testing.B) {
	benchmarkSolveFront(b, func(*tech.Technology) (repeater.Library, *delay.Coupling, error) {
		lib, err := repeater.Range(10, 400, 40)
		return lib, nil, err
	})
}

// BenchmarkSolveFront_EngineWorstStaggered is the engine front kernel
// under worst-case aggressors with staggering allowed: a coupled sweep,
// so every level sorts its classes off the lattice.
func BenchmarkSolveFront_EngineWorstStaggered(b *testing.B) {
	benchmarkSolveFront(b, func(tc *tech.Technology) (repeater.Library, *delay.Coupling, error) {
		lib, err := repeater.Range(10, 400, 40)
		if err != nil {
			return lib, nil, err
		}
		cpl, err := delay.NewCoupling(tc, delay.AggressorWorst, delay.SchemeModeStaggered)
		return lib, cpl, err
	})
}

// BenchmarkSolveFront_EngineLib7_400 runs the engine line on the library
// {7u, 400u}: its lattice step is 1u, so the lattice guard sends levels
// whose width span outgrows their option count back to the sorted
// classes.
func BenchmarkSolveFront_EngineLib7_400(b *testing.B) {
	benchmarkSolveFront(b, func(*tech.Technology) (repeater.Library, *delay.Coupling, error) {
		lib, err := repeater.NewLibrary([]float64{7, 400})
		return lib, nil, err
	})
}

// engineLine is the engine benchmark line: a fixed 10-segment 65nm
// netgen line.
func engineLine(b *testing.B) (*delay.Evaluator, *tech.Technology) {
	tc := tech.T65()
	cfg, err := netgen.DefaultConfig(tc)
	if err != nil {
		b.Fatal(err)
	}
	cfg.MinSegments, cfg.MaxSegments = 10, 10
	net, err := netgen.Generate(rand.New(rand.NewSource(1)), cfg, "bench-65nm-10")
	if err != nil {
		b.Fatal(err)
	}
	ev, err := delay.NewEvaluator(net, tc)
	if err != nil {
		b.Fatal(err)
	}
	return ev, tc
}

// BenchmarkMinimumDelay_Engine measures the τmin sweep ripd runs for
// every cold line shape: MinimumDelay over ReferenceOptions (10u–400u at
// a 10u step, 200 µm pitch) on the engine benchmark line.
func BenchmarkMinimumDelay_Engine(b *testing.B) {
	ev, _ := engineLine(b)
	opts, err := ReferenceOptions()
	if err != nil {
		b.Fatal(err)
	}
	s := NewSolver()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.MinimumDelay(ev, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkSolveFront measures warm SolveFront calls on the engine
// benchmark line at 200 µm pitch, over the library and coupling scenario
// space returns. It also reports the lattice skyline's fill work per kept
// option.
func benchmarkSolveFront(b *testing.B, space func(*tech.Technology) (repeater.Library, *delay.Coupling, error)) {
	ev, tc := engineLine(b)
	lib, cpl, err := space(tc)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Library: lib, Pitch: 200 * units.Micron, Coupling: cpl}
	s := NewSolver()
	kept := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		front, st, err := s.SolveFront(ev, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(front) == 0 {
			b.Fatal("benchmark instance must have a front")
		}
		kept += st.Kept
	}
	b.ReportMetric(float64(s.pr.fills)/float64(kept), "fills/kept")
}

// BenchmarkSolvePooled measures the package-level convenience entry point
// (pool acquire + fresh result Solution per call) for comparison with the
// raw kernel above.
func BenchmarkSolvePooled(b *testing.B) {
	ev := benchEval(b)
	opts := benchOpts(b, ev, 10, MinPower)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := Solve(ev, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !sol.Feasible {
			b.Fatal("benchmark instance must be feasible")
		}
	}
}
