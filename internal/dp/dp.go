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
// rendering nor any per-bucket sort ever happens: the bucket fronts come
// off the table as one sorted run, which a two-way merge joins with the
// no-repeater bucket. When the library's widths are integers, uncoupled
// accumulated widths lie on a lattice of step gcd(widths), and a
// width-aware uncoupled level whose lattice is dense enough indexes its
// class table and its dominance skyline by w/g instead of sorting and
// binary-searching floats. Every other level — τmin's 2-D levels, coupled
// levels and sparse lattices — sorts its classes. Each level picks its
// path from its own inputs, and both paths keep the same options, so
// answers and Stats never depend on the choice. An uncoupled τmin level
// evaluates repeater options only near the lower (c, d) hull of its
// no-repeater bucket, one pointer walking the hull across the widths
// (Solver.offerHull), and keeps exactly the options full generation
// keeps; coupled τmin levels generate every option. The package-level
// Solve and MinimumDelay draw Solvers from a pool, so even one-shot
// callers reuse arenas across calls.
package dp

import (
	"errors"
	"fmt"
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

	// Ladder is ignored: every solve runs one flat sweep.
	//
	// Deprecated: the bounded coarse-to-fine width ladder was removed; its
	// answers equalled the flat sweep's and no served path set it. Kept
	// only while the benchmark harness still sets it.
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

// ErrBudget is returned when a solve exceeds Options.MaxGenerated.
var ErrBudget = errors.New("dp: work budget exceeded")

// Stats reports the work a DP run performed; the paper's Table 2 is about
// exactly this cost growing with library size.
type Stats struct {
	// Candidates is the number of candidate locations considered.
	Candidates int
	// Generated counts every partial solution the sweep's option space
	// generates, including the repeater options an uncoupled τmin level
	// proves losing without evaluating them (see Solver.offerHull).
	Generated int
	// Kept counts partial solutions surviving pruning, summed over levels.
	Kept int
	// MaxPerLevel is the largest surviving option set at any level.
	MaxPerLevel int
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
