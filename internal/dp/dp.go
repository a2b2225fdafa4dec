// Package dp implements the dynamic-programming repeater insertion baseline
// the RIP paper compares against and builds upon: the van Ginneken-style
// bottom-up candidate propagation, extended for power minimization in the
// manner of Lillis–Cheng–Lin (the paper's reference [14]).
//
// Candidates walk from the receiver to the driver. At each candidate
// location the algorithm either leaves the wire alone or inserts one of the
// library's repeaters; every partial solution is summarized by the triple
//
//	(c, d, w) = (downstream capacitance seen at the point,
//	             Elmore delay from the point to the receiver,
//	             total repeater width spent so far),
//
// and a partial solution is discarded when another is no worse in all three
// coordinates (3-D Pareto pruning) or when its delay already exceeds the
// timing target. With a delay objective the width coordinate is ignored
// (the classic 2-D pruning), which is how the package also computes τmin —
// the minimum achievable delay the experiments normalize targets against.
//
// The sweep is implemented by Solver, a reusable kernel with persistent
// scratch arenas: steady-state solves perform zero heap allocations, and
// pruning is bucketed by repeater action and filed into a width-class
// table (see prune.go), so neither the full 3-key sort of the naive
// rendering nor any per-bucket sort ever happens. The package-level Solve
// and MinimumDelay draw Solvers from a pool, so even one-shot callers
// reuse arenas across calls.
package dp

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/repeater"
	"github.com/rip-eda/rip/internal/units"
)

// Objective selects what the DP minimizes.
type Objective int

const (
	// MinPower minimizes total repeater width subject to delay ≤ Target —
	// the paper's Problem LPRI.
	MinPower Objective = iota
	// MinDelay minimizes delay outright, ignoring width. Used to compute
	// τmin for experiment target generation.
	MinDelay
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case MinPower:
		return "min-power"
	case MinDelay:
		return "min-delay"
	default:
		return fmt.Sprintf("objective(%d)", int(o))
	}
}

// Options configures a DP run.
type Options struct {
	// Library is the set of allowed repeater widths.
	Library repeater.Library
	// Positions is the explicit candidate location list (sorted ascending,
	// interior, legal). When nil, candidates are generated from Pitch.
	Positions []float64
	// Pitch generates uniform candidates ("granularity" in the paper) when
	// Positions is nil; forbidden-zone interior positions are excluded.
	Pitch float64
	// Objective selects min-power (needs Target) or min-delay.
	Objective Objective
	// Target is the timing budget τt in seconds (MinPower only).
	Target float64
	// MaxGenerated aborts the solve with ErrBudget once more partial
	// solutions than this have been generated (0 = unlimited). It is the
	// production guard against pathological fine-grained instances, whose
	// cost is pseudo-polynomial (the paper's Table 2 is exactly about
	// that growth).
	MaxGenerated int

	// Eps > 0 enables ε-dominance pruning (MinPower only): the kept
	// front holds one representative per relaxed cell, and the returned
	// solution's delay is certified within a (1+Eps) factor of an exact
	// optimum's — equivalently, its width never exceeds the exact
	// optimum width at target Target/(1+Eps). 0 is exact; values outside
	// [0, MaxEps] or NaN are rejected. Exact mode remains the
	// differential oracle.
	Eps float64
	// Ladder enables the coarse-to-fine width ladder: a first pass on a
	// subsampled width library whose front yields admissible pruning
	// bounds for the full-library pass. Results are bit-identical to a
	// non-ladder run (only Stats differ: the coarse pass's work is
	// folded in), so the knob is purely a speed/accounting trade. In
	// exact mode fronts also keep the same placements: where options tie
	// bit for bit on (delay, width), the prune keeps the one with the
	// lower scheme, then the one generated first, an order that does not
	// depend on which other options a sweep generated (see prune.go).
	Ladder bool
	// Coupling, when non-nil, prices every grid interval's capacitance as
	// ground + MF·coupling under the scenario's aggressor assumption and
	// lets the sweep choose one of the scenario's allowed countermeasure
	// schemes per interval (an extra generation dimension; pruning stays
	// exact because the per-option summary (c, d, w) already captures a
	// scheme choice's entire downstream effect). nil is the classic
	// ground-only model — that code path is untouched by this knob.
	Coupling *delay.Coupling
}

const (
	// MaxEps bounds Options.Eps: beyond 50% delay slack the "certified
	// bound" stops being a useful contract.
	MaxEps = 0.5
	// DefaultEps is the recommended ε for callers that want the speedup
	// and accept a ≤ 2% certified delay (and therefore power) slack.
	DefaultEps = 0.02
)

// validEps reports whether e is a usable ε knob value. NaN is checked
// explicitly: it fails every ordered comparison, so a bare range check
// would wave it through.
func validEps(e float64) bool {
	return !(e != e) && e >= 0 && e <= MaxEps
}

// ErrBudget is returned when a solve exceeds Options.MaxGenerated.
var ErrBudget = errors.New("dp: work budget exceeded")

// Stats reports the work a DP run performed; the paper's Table 2 is about
// exactly this cost growing with library size.
type Stats struct {
	// Candidates is the number of candidate locations considered.
	Candidates int
	// Generated counts every partial solution created.
	Generated int
	// Kept counts partial solutions surviving pruning, summed over levels.
	Kept int
	// MaxPerLevel is the largest surviving option set at any level.
	MaxPerLevel int
	// EpsPruned counts options the ε-relaxation pruned that exact
	// dominance would have kept. Always 0 in exact mode.
	EpsPruned int
	// EpsLevels counts candidate levels whose prune performed at least
	// one such relaxed kill. Always 0 in exact mode; at most Candidates.
	EpsLevels int
	// EpsInflation is the realized delay-inflation product of the run's
	// relaxed kills (see EpsFactor); 0 when the relaxation never fired.
	EpsInflation float64
}

// EpsFactor returns the certified delay-inflation factor the run the
// stats describe actually realized: a pruned exact solution's surviving
// surrogate loses one delay hop at most once per level, and only at a
// level whose prune performed a relaxed kill, so the hops telescope to
// (1+eps)^(EpsLevels/Candidates) ≤ 1+eps — and, tighter still, to
// EpsInflation, the product over those levels of the largest delay
// ratio a kill actually forced on a witness redirect. A run where the
// relaxation never fired certifies factor 1 — its results are exact.
// Certificate consumers (the engine's per-answer bound, the perf
// harness) query the relaxed front at target·EpsFactor instead of the
// worst-case target·(1+eps), which tightens the reported bound without
// weakening it.
func (st Stats) EpsFactor(eps float64) float64 {
	if eps <= 0 || st.EpsLevels <= 0 || st.Candidates <= 0 {
		return 1
	}
	f := 1 + eps
	if st.EpsLevels < st.Candidates {
		f = math.Pow(1+eps, float64(st.EpsLevels)/float64(st.Candidates))
	}
	if st.EpsInflation >= 1 && st.EpsInflation < f {
		f = st.EpsInflation
	}
	return f
}

// Solution is the result of a DP run.
type Solution struct {
	// Assignment holds the chosen repeater positions and widths.
	Assignment delay.Assignment
	// Delay is the total Elmore delay of the assignment.
	Delay float64
	// TotalWidth is Σw, the power objective.
	TotalWidth float64
	// Feasible reports whether the timing target was met (MinPower) or a
	// solution exists at all (always true for MinDelay).
	Feasible bool
	// Stats describes the run's cost.
	Stats Stats

	// Schemes, for coupled solves (Options.Coupling non-nil), records the
	// chosen countermeasure per candidate-grid interval — candidates+1
	// entries of delay.Scheme* values, driver-side interval first. Empty
	// for uncoupled solves.
	Schemes []uint8
	// StaggerLen and ShieldLen are the summed lengths (meters) of
	// staggered and shielded intervals in Schemes. Zero when uncoupled.
	StaggerLen float64
	ShieldLen  float64
	// Cost is the DP objective value: TotalWidth plus the width-equivalent
	// shielding cost of Schemes. Equals TotalWidth when nothing is
	// shielded (up to summation order).
	Cost float64
}

// option is one partial solution during the bottom-up sweep.
type option struct {
	c, d, w float64
	// act is the library index of the repeater inserted at this level's
	// candidate, or -1 for none.
	act int32
	// next is the arena index of the downstream option this one extends,
	// or -1 at the receiver.
	next int32
	// sch is the countermeasure scheme of the interval just downstream of
	// this level's candidate (coupled solves only; always SchemePlain, 0,
	// otherwise).
	sch uint8
}

// solverPool backs the package-level Solve and MinimumDelay so one-shot
// callers still amortize scratch arenas across calls.
var solverPool = sync.Pool{New: func() any { return NewSolver() }}

// AcquireSolver takes a Solver from the shared pool. Callers that solve in
// a loop (the hybrid pipeline) should acquire once, reuse, and release
// when done so the arenas stay warm; the batch engine takes one per cold
// solve, so only a job that is actually solving holds DP arenas.
func AcquireSolver() *Solver { return solverPool.Get().(*Solver) }

// ReleaseSolver returns a Solver to the shared pool. The Solver must not
// be used after release.
func ReleaseSolver(s *Solver) { solverPool.Put(s) }

// Solve runs the DP for the evaluator's net on a pooled Solver.
func Solve(ev *delay.Evaluator, opts Options) (Solution, error) {
	s := AcquireSolver()
	defer ReleaseSolver(s)
	return s.Solve(ev, opts)
}

// ReferenceOptions returns the candidate space that defines τmin
// throughout the repo — the paper's reference construction (library
// 10u..400u step 10u at 200 µm pitch). The facade's MinimumDelay and the
// batch engine's relative-target resolution both use it, so "1.3·τmin"
// means the same budget everywhere.
func ReferenceOptions() (Options, error) {
	lib, err := repeater.Range(10, 400, 10)
	if err != nil {
		return Options{}, err
	}
	return Options{Library: lib, Pitch: 200 * units.Micron}, nil
}

// MinimumDelay computes τmin on a pooled Solver: the minimum achievable
// Elmore delay over the candidate space described by opts (its Objective
// and Target are ignored).
func MinimumDelay(ev *delay.Evaluator, opts Options) (float64, error) {
	s := AcquireSolver()
	defer ReleaseSolver(s)
	return s.MinimumDelay(ev, opts)
}
