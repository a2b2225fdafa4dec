package tree

import (
	"github.com/rip-eda/rip/internal/repeater"
	"github.com/rip-eda/rip/internal/tech"
)

// Options configures tree buffer insertion.
type Options struct {
	// Library is the set of allowed buffer widths (units of u).
	Library repeater.Library
	// Tech supplies the unit-buffer constants Rs, Co, Cp.
	Tech *tech.Technology
	// DriverWidth is the root driver size in u.
	DriverWidth float64
	// MaxSlack switches the objective from min-width-with-nonnegative-
	// slack to maximize-worst-slack (the classic van Ginneken objective).
	MaxSlack bool
}

// Solution is a buffer placement on the tree.
type Solution struct {
	// Buffers maps node ID → buffer width for every inserted buffer.
	Buffers map[int]float64
	// Slack is the worst slack over sinks (≥ 0 when feasible).
	Slack float64
	// TotalWidth is the summed buffer width (the power objective).
	TotalWidth float64
	// Feasible reports whether every sink meets its required time.
	Feasible bool
	// Stats counts generated and kept DP options.
	Stats Stats
}

// Stats describes the DP's work.
type Stats struct {
	// Candidates counts buffer sites the sweep visited — the tree
	// analogue of the two-pin DP's candidate locations.
	Candidates int
	// Generated counts the option space: every child merge's full cross
	// product and every buffered option, though the merges never build
	// the options they can prove dominated. Kept counts the survivors,
	// summed over nodes, and MaxPerNode the largest node's.
	Generated, Kept, MaxPerNode int
}

// Insert computes a minimum-total-width buffer placement meeting every
// sink's required arrival time (or, with MaxSlack, the placement that
// maximizes the worst slack). It is the Lillis-style power-aware extension
// of van Ginneken's algorithm to trees, and runs on a pooled Solver so
// one-shot callers still hit warm arenas; loops should own a Solver and
// call Solver.Insert / Solver.InsertInto directly.
func Insert(t *Tree, opts Options) (Solution, error) {
	s := AcquireSolver()
	defer ReleaseSolver(s)
	return s.Insert(t, opts)
}
