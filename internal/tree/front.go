package tree

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// FrontPoint is one point of a tree's power–slack trade-off curve: the
// cheapest placement achieving its driver Slack over the solve's option
// space. On a zero-RAT clone (the MinArrival convention) −Slack is the
// worst-sink arrival time, so the front doubles as a power–arrival curve.
type FrontPoint struct {
	// Slack is the driver slack of the placement, q − (Rs·Cp + Rs/wd·c).
	Slack float64
	// TotalWidth is Σw, the power objective.
	TotalWidth float64
	// Buffers maps node ID to inserted buffer width.
	Buffers map[int]float64
}

// Front is a tree's root Pareto front: Slack strictly decreasing,
// TotalWidth strictly decreasing, no dominated points. Front[0] is the
// maximum-slack point (maximum power) and Front[len-1] the cheapest.
type Front []FrontPoint

// At returns the index of the minimum-power point with Slack ≥ minSlack —
// the same placement a fresh Insert with that requirement would pick —
// and false when no point reaches it (including NaN requirements). For a
// uniform timing budget T answered from a zero-RAT front, the requirement
// is −T (arrival ≤ T); for embedded deadlines it is 0.
func (f Front) At(minSlack float64) (int, bool) {
	if len(f) == 0 || math.IsNaN(minSlack) || !(f[0].Slack >= minSlack) {
		return 0, false
	}
	// Rightmost point with Slack ≥ minSlack: slacks strictly decrease.
	i := sort.Search(len(f), func(i int) bool { return f[i].Slack < minSlack })
	return i - 1, true
}

// MaxSlack returns the front's best achievable slack — the leftmost point
// — or −Inf for an empty front. On a zero-RAT clone its negation is the
// minimum worst-sink arrival, matching MinArrival bit-for-bit over the
// same option space.
func (f Front) MaxSlack() float64 {
	if len(f) == 0 {
		return math.Inf(-1)
	}
	return f[0].Slack
}

// rootOpt is one root option as InsertFront's skyline sees it: its
// driver slack, total width and arena index.
type rootOpt struct {
	slack float64
	w     float64
	idx   int32
}

// cmpRootOpt orders root options for the skyline: slack descending, then
// width ascending, then arena index, so the first of equal options wins.
func cmpRootOpt(a, b rootOpt) int {
	if a.slack != b.slack {
		return cmp.Compare(b.slack, a.slack)
	}
	if a.w != b.w {
		return cmp.Compare(a.w, b.w)
	}
	return cmp.Compare(a.idx, b.idx)
}

// InsertFront runs one width-aware bottom-up sweep and extracts the root
// Pareto front over driver slack, one reconstructed placement per point.
// Options.MaxSlack is ignored (the sweep is always width-aware, never
// slack-bounded, so one front answers every slack requirement). Each
// point's Buffers map is freshly allocated and safe to retain.
func (s *Solver) InsertFront(t *Tree, opts Options) (Front, Stats, error) {
	stats, err := s.sweep(t, opts, true)
	if err != nil {
		return nil, Stats{}, err
	}
	ts := opts.Tech
	widths := s.widths
	n := len(t.nodes)

	rootOpts := s.arena[s.nodeOff[0] : s.nodeOff[0]+s.nodeCnt[0]]
	roots := make([]rootOpt, 0, len(rootOpts))
	for i, o := range rootOpts {
		slack := o.q - (ts.Rs*ts.Cp + ts.Rs/opts.DriverWidth*o.c)
		roots = append(roots, rootOpt{slack: slack, w: o.w, idx: int32(i)})
	}
	// Skyline sweep: best slack first, and keep a point only when its
	// width strictly undercuts every slacker-or-equal point. The kept
	// point where the record first drops to width w* is the max-slack,
	// earliest-arena option of that width — exactly the option the Insert
	// driver loop picks for any slack requirement that admits it.
	slices.SortFunc(roots, cmpRootOpt)
	front := make(Front, 0, 8)
	bestW := math.Inf(1)
	for _, r := range roots {
		if !(r.w < bestW) {
			continue
		}
		bestW = r.w
		// Reconstruct: walk the pre-order top-down, resolving each node's
		// chosen option, collecting buffers and child choices.
		buffers := make(map[int]float64)
		s.chosen[0] = r.idx
		total := 0.0
		for i := 0; i < n; i++ {
			o := s.arena[s.nodeOff[i]+s.chosen[i]]
			if o.buf >= 0 {
				w := widths[o.buf]
				buffers[t.nodes[i].ID] = w
				total += w
			}
			if o.kids >= 0 {
				for ci, childIdx := range s.childList[s.childStart[i]:s.childStart[i+1]] {
					s.chosen[childIdx] = s.kidArena[o.kids+int32(ci)]
				}
			}
		}
		front = append(front, FrontPoint{Slack: r.slack, TotalWidth: total, Buffers: buffers})
	}
	return front, stats, nil
}

// InsertFront runs the front extraction on a pooled Solver.
func InsertFront(t *Tree, opts Options) (Front, Stats, error) {
	s := AcquireSolver()
	defer ReleaseSolver(s)
	return s.InsertFront(t, opts)
}
