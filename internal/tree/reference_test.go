package tree

// The pre-Solver implementation of Insert, preserved as the differential
// oracle: recursive bottom-up propagation with per-call maps and slices.
// Solver must reproduce it bit for bit — same placements, slack, total
// width, feasibility AND work stats — which the tests in solver_test.go
// assert over the corpus and randomized trees. Its one change since is
// the stated tie rule: pruneTree sorts stably, so among exact (c, q, w)
// ties (exact (c, q) ties when width is ignored) the option generated
// first wins, where an unstable sort left the choice to the sort.

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// treeOption is one partial solution at a node boundary:
// (c) downstream capacitance, (q) required time at this point,
// (w) buffer width spent. buf is the library index of the buffer inserted
// at the node (-1 none); kids records the chosen option index per child
// for reconstruction.
type treeOption struct {
	c, q, w float64
	buf     int32
	kids    []int32
}

// referenceInsert is the original Insert.
func referenceInsert(t *Tree, opts Options) (Solution, error) {
	if t == nil {
		return Solution{}, errors.New("tree: nil tree")
	}
	if opts.Library.Size() == 0 {
		return Solution{}, errors.New("tree: empty buffer library")
	}
	if err := opts.Tech.Validate(); err != nil {
		return Solution{}, err
	}
	if !(opts.DriverWidth > 0) {
		return Solution{}, fmt.Errorf("tree: driver width must be positive, got %g", opts.DriverWidth)
	}
	widths := opts.Library.Widths()
	ts := opts.Tech
	stats := &Stats{}

	// optionsAt[node] is filled bottom-up; index aligns with node walk.
	memo := make(map[int][]treeOption, t.NumNodes())
	var build func(n *Node) []treeOption
	build = func(n *Node) []treeOption {
		var base []treeOption
		if n.SinkCap > 0 {
			base = []treeOption{{c: n.SinkCap, q: n.SinkRAT, buf: -1}}
		} else {
			// Merge children: each child contributes options seen from the
			// near side of its edge; the merge is the cross product with
			// c summed, q minimized, w summed, pruned as it grows.
			base = []treeOption{{c: 0, q: math.Inf(1), buf: -1}}
			for ci, child := range n.Children {
				childOpts := build(child)
				// Propagate each child option across the child's edge:
				// c += EdgeC, q -= EdgeR·(EdgeC/2 + c).
				prop := make([]treeOption, len(childOpts))
				for i, o := range childOpts {
					prop[i] = treeOption{
						c:    o.c + child.EdgeC,
						q:    o.q - child.EdgeR*(child.EdgeC/2+o.c),
						w:    o.w,
						buf:  int32(i), // temporarily store child option idx
						kids: nil,
					}
				}
				merged := make([]treeOption, 0, len(base)*len(prop))
				for _, b := range base {
					for _, p := range prop {
						kids := make([]int32, ci+1)
						copy(kids, b.kids)
						kids[ci] = p.buf
						merged = append(merged, treeOption{
							c:    b.c + p.c,
							q:    math.Min(b.q, p.q),
							w:    b.w + p.w,
							buf:  -1,
							kids: kids,
						})
					}
				}
				stats.Generated += len(merged)
				base = pruneTree(merged, !opts.MaxSlack)
			}
		}
		// Buffer insertion at this node (after the merge, before the
		// parent edge), mirroring the two-pin DP's per-candidate choice.
		if n.BufferSite {
			stats.Candidates++
			withBuf := make([]treeOption, 0, len(base)*(1+len(widths)))
			withBuf = append(withBuf, base...)
			for _, b := range base {
				for wi, wb := range widths {
					q := b.q - (ts.Rs*ts.Cp + ts.Rs/wb*b.c)
					withBuf = append(withBuf, treeOption{
						c:    ts.Co * wb,
						q:    q,
						w:    b.w + wb,
						buf:  int32(wi),
						kids: b.kids,
					})
				}
			}
			stats.Generated += len(withBuf) - len(base)
			base = pruneTree(withBuf, !opts.MaxSlack)
		}
		stats.Kept += len(base)
		if len(base) > stats.MaxPerNode {
			stats.MaxPerNode = len(base)
		}
		memo[n.ID] = base
		return base
	}
	rootOpts := build(t.Root)

	// Driver closing: slack = q − (Rs·Cp + Rs/wd·c).
	bestIdx := -1
	bestW := math.Inf(1)
	bestSlack := math.Inf(-1)
	for i, o := range rootOpts {
		slack := o.q - (ts.Rs*ts.Cp + ts.Rs/opts.DriverWidth*o.c)
		if opts.MaxSlack {
			if slack > bestSlack {
				bestIdx, bestW, bestSlack = i, o.w, slack
			}
			continue
		}
		if slack < 0 {
			continue
		}
		if o.w < bestW || (o.w == bestW && slack > bestSlack) {
			bestIdx, bestW, bestSlack = i, o.w, slack
		}
	}
	if bestIdx < 0 {
		return Solution{Feasible: false, Stats: *stats}, nil
	}

	buffers := make(map[int]float64)
	reconstruct(t.Root, memo, bestIdx, widths, buffers)
	// Recompute the width from the actual placement: in MaxSlack mode the
	// width coordinate never participated in pruning or selection, so
	// bestW is not the optimized quantity there.
	total := 0.0
	for _, w := range buffers {
		total += w
	}
	if !opts.MaxSlack && math.Abs(total-bestW) > 1e-9 {
		return Solution{}, fmt.Errorf("tree: reconstruction width %g does not match DP width %g", total, bestW)
	}
	sol := Solution{
		Buffers:    buffers,
		Slack:      bestSlack,
		TotalWidth: total,
		Feasible:   bestSlack >= 0,
		Stats:      *stats,
	}
	return sol, nil
}

// reconstruct walks the chosen options down the tree collecting buffers.
func reconstruct(n *Node, memo map[int][]treeOption, idx int, widths []float64, out map[int]float64) {
	o := memo[n.ID][idx]
	if o.buf >= 0 {
		out[n.ID] = widths[o.buf]
	}
	for ci, child := range n.Children {
		if ci < len(o.kids) {
			reconstruct(child, memo, int(o.kids[ci]), widths, out)
		}
	}
}

// pruneTree removes dominated options: o1 dominates o2 when c1 ≤ c2,
// q1 ≥ q2 and (when width matters) w1 ≤ w2. Mirrors the dp pruner with
// the required-time axis flipped. Width-blindness (width=false) is a
// comparison concern only — widths compare as zero but the options' real
// widths are never mutated, matching the dp kernel's contract.
func pruneTree(opts []treeOption, width bool) []treeOption {
	if len(opts) <= 1 {
		return opts
	}
	effW := func(o treeOption) float64 {
		if width {
			return o.w
		}
		return 0
	}
	slices.SortStableFunc(opts, func(a, b treeOption) int {
		if a.c != b.c {
			return cmp.Compare(a.c, b.c)
		}
		if a.q != b.q {
			return cmp.Compare(b.q, a.q) // required time descending
		}
		return cmp.Compare(effW(a), effW(b))
	})
	type qw struct{ q, w float64 }
	front := make([]qw, 0, 16)
	kept := opts[:0]
	for _, o := range opts {
		ow := effW(o)
		i := sort.Search(len(front), func(i int) bool { return front[i].q < o.q })
		if i > 0 && front[i-1].w <= ow {
			continue
		}
		kept = append(kept, o)
		j := i
		for j < len(front) && front[j].w >= ow {
			j++
		}
		front = append(front[:i], append([]qw{{o.q, ow}}, front[j:]...)...)
	}
	return kept
}
