package tree

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"github.com/rip-eda/rip/internal/tech"
)

// Solver runs the power-aware van Ginneken dynamic program on trees with
// persistent scratch, mirroring the dp.Solver discipline: every working
// buffer — the per-node option arena, the flat child-choice arena, the
// CSR child index, merge and prune scratch — is retained across solves,
// so a warm Solver in steady state allocates only the returned placement
// map. A Solver is NOT safe for concurrent use; whoever owns a loop owns
// a Solver, an engine job takes a pooled one (AcquireSolver) for each
// cold tree solve, and one-shot callers go through the package-level
// Insert / InsertHybrid / MinArrival, which draw from the same pool.
type Solver struct {
	// CSR child index over the tree's pre-order node slice: node i's
	// children (in Node.Children order) are
	// childList[childStart[i]:childStart[i+1]].
	childStart []int32
	childList  []int32

	// arena holds each node's surviving options, appended bottom-up;
	// node i's kept set is arena[nodeOff[i]:nodeOff[i]+nodeCnt[i]].
	// An option's child choices live in kidArena at its kids offset,
	// stride = the node's child count.
	arena    []sopt
	kidArena []int32
	nodeOff  []int32
	nodeCnt  []int32

	// Per-node working set: cur is the option set being grown (child
	// merges, then buffer insertion), prop the propagated child options,
	// mrg the merge output buffer, kidBuf the node-local child-choice
	// regions.
	cur    []sopt
	prop   []sopt
	mrg    []sopt
	kidBuf []int32

	// front is the (q, w) Pareto front reused by pruning.
	front []qw

	// cls and cells are the buffer-site class table (see bufferFronts):
	// cls holds the base options' distinct widths, ascending, and cells
	// one row of len(widths) entries per class.
	cls   []float64
	cells []bcell

	// chosen is the reconstruction scratch (the picked option index per
	// node, filled top-down); fill is the CSR build cursor.
	chosen []int32
	fill   []int32

	// widths is the library read into reusable scratch (Widths copies).
	widths []float64
}

// sopt is one partial solution at a node boundary: (c) downstream
// capacitance, (q) required time, (w) buffer width spent. buf is the
// library index of the buffer inserted at the node (-1 none); kids is
// the option's child-choice offset (-1 for leaves).
type sopt struct {
	c, q, w float64
	buf     int32
	kids    int32
}

type qw struct{ q, w float64 }

// bcell is one class-table entry: the max-q buffered option seen for one
// (base width class, library width) pair, as its q and the index of the
// base option it buffers (-1 while empty).
type bcell struct {
	q  float64
	bi int32
}

// NewSolver returns an empty Solver; arenas grow on first use.
func NewSolver() *Solver { return &Solver{} }

var solverPool = sync.Pool{New: func() any { return NewSolver() }}

// AcquireSolver takes a pooled Solver with warm arenas.
func AcquireSolver() *Solver { return solverPool.Get().(*Solver) }

// ReleaseSolver returns a Solver to the pool. The caller must not use it
// afterwards.
func ReleaseSolver(s *Solver) { solverPool.Put(s) }

// Insert computes a buffer placement for the tree; see the package-level
// Insert for the contract. The returned Solution owns its placement map —
// a later solve on the same Solver never mutates it.
func (s *Solver) Insert(t *Tree, opts Options) (Solution, error) {
	var sol Solution
	err := s.InsertInto(&sol, t, opts)
	return sol, err
}

// InsertInto is Insert writing into a caller-owned Solution, reusing its
// Buffers map when present — the alloc-free steady-state entry.
func (s *Solver) InsertInto(sol *Solution, t *Tree, opts Options) error {
	stats, err := s.sweep(t, opts, !opts.MaxSlack)
	if err != nil {
		return err
	}
	widths := s.widths
	ts := opts.Tech
	n := len(t.nodes)

	// Driver closing: slack = q − (Rs·Cp + Rs/wd·c).
	rootOpts := s.arena[s.nodeOff[0] : s.nodeOff[0]+s.nodeCnt[0]]
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
		*sol = Solution{Feasible: false, Stats: stats, Buffers: clearMap(sol.Buffers)}
		return nil
	}

	// Reconstruction: walk the pre-order top-down, resolving each node's
	// chosen option, collecting buffers and child choices.
	buffers := clearMap(sol.Buffers)
	if buffers == nil {
		buffers = make(map[int]float64)
	}
	s.chosen[0] = int32(bestIdx)
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
	if !opts.MaxSlack && math.Abs(total-bestW) > 1e-9 {
		return fmt.Errorf("tree: reconstruction width %g does not match DP width %g", total, bestW)
	}
	*sol = Solution{
		Buffers:    buffers,
		Slack:      bestSlack,
		TotalWidth: total,
		Feasible:   bestSlack >= 0,
		Stats:      stats,
	}
	return nil
}

// sweep validates the inputs and runs the bottom-up option sweep over the
// whole tree, committing every node's surviving options (and their
// child-choice regions) to the persistent arenas. width selects
// width-aware (3-D) pruning; the max-slack τmin search prunes width-blind.
// After sweep returns, the root's survivors are
// arena[nodeOff[0]:nodeOff[0]+nodeCnt[0]] and s.widths holds the library.
func (s *Solver) sweep(t *Tree, opts Options, width bool) (Stats, error) {
	if t == nil {
		return Stats{}, errors.New("tree: nil tree")
	}
	if opts.Library.Size() == 0 {
		return Stats{}, errors.New("tree: empty buffer library")
	}
	if err := opts.Tech.Validate(); err != nil {
		return Stats{}, err
	}
	if !(opts.DriverWidth > 0) {
		return Stats{}, fmt.Errorf("tree: driver width must be positive, got %g", opts.DriverWidth)
	}
	s.widths = opts.Library.AppendWidths(s.widths[:0])
	widths := s.widths
	ts := opts.Tech
	n := len(t.nodes)
	s.reset(t)
	stats := Stats{}

	// Bottom-up sweep: reversed pre-order visits every child before its
	// parent.
	for i := n - 1; i >= 0; i-- {
		node := t.nodes[i]
		kids := s.childList[s.childStart[i]:s.childStart[i+1]]
		stride := len(kids)
		s.kidBuf = s.kidBuf[:0]
		s.cur = s.cur[:0]
		if node.SinkCap > 0 {
			s.cur = append(s.cur, sopt{c: node.SinkCap, q: node.SinkRAT, buf: -1, kids: -1})
		} else {
			// Merge children: the cross product of the running base with
			// each child's options propagated across the child's edge
			// (c += EdgeC, q -= EdgeR·(EdgeC/2 + c)), pruned as it grows.
			s.cur = append(s.cur, sopt{c: 0, q: math.Inf(1), buf: -1, kids: s.claimKids(stride)})
			for ci, childIdx := range kids {
				child := t.nodes[childIdx]
				childOpts := s.arena[s.nodeOff[childIdx] : s.nodeOff[childIdx]+s.nodeCnt[childIdx]]
				s.prop = s.prop[:0]
				for oi, o := range childOpts {
					s.prop = append(s.prop, sopt{
						c:   o.c + child.EdgeC,
						q:   o.q - child.EdgeR*(child.EdgeC/2+o.c),
						w:   o.w,
						buf: int32(oi), // child option index, consumed below
					})
				}
				merged := s.mrg[:0]
				for _, b := range s.cur {
					for _, p := range s.prop {
						off := s.claimKids(stride)
						copy(s.kidBuf[off:off+int32(stride)], s.kidBuf[b.kids:b.kids+int32(stride)])
						s.kidBuf[off+int32(ci)] = p.buf
						merged = append(merged, sopt{
							c:    b.c + p.c,
							q:    math.Min(b.q, p.q),
							w:    b.w + p.w,
							buf:  -1,
							kids: off,
						})
					}
				}
				s.mrg = merged // keep any growth for the next round
				stats.Generated += len(merged)
				s.cur = append(s.cur[:0], s.pruneS(merged, width)...)
			}
		}
		// Buffer insertion at the node (after the merge, before the
		// parent edge), mirroring the two-pin DP's per-candidate choice.
		// Generated counts every buffered option, though only each
		// width's front reaches the prune.
		if node.BufferSite {
			stats.Candidates++
			stats.Generated += len(s.cur) * len(widths)
			s.bufferFronts(ts, width)
			s.cur = s.pruneS(s.cur, width)
		}
		stats.Kept += len(s.cur)
		if len(s.cur) > stats.MaxPerNode {
			stats.MaxPerNode = len(s.cur)
		}
		// Commit the survivors: compact options and their child-choice
		// regions into the persistent arenas.
		s.nodeOff[i] = int32(len(s.arena))
		s.nodeCnt[i] = int32(len(s.cur))
		for _, o := range s.cur {
			if o.kids >= 0 {
				off := int32(len(s.kidArena))
				s.kidArena = append(s.kidArena, s.kidBuf[o.kids:o.kids+int32(stride)]...)
				o.kids = off
			}
			s.arena = append(s.arena, o)
		}
	}
	return stats, nil
}

// MinArrival returns the minimum achievable worst-sink arrival time over
// the option space — the tree analogue of the two-pin τmin, the quantity
// relative timing budgets are multiples of. It runs the max-slack DP on
// a zero-RAT clone, where maximizing slack is exactly minimizing the
// worst arrival.
func (s *Solver) MinArrival(t *Tree, opts Options) (float64, Stats, error) {
	if t == nil {
		return 0, Stats{}, errors.New("tree: nil tree")
	}
	opts.MaxSlack = true
	sol, err := s.Insert(t.CloneWithRAT(0), opts)
	if err != nil {
		return 0, Stats{}, err
	}
	return -sol.Slack, sol.Stats, nil
}

// MinArrival is the pooled-Solver form of Solver.MinArrival.
func MinArrival(t *Tree, opts Options) (float64, error) {
	s := AcquireSolver()
	defer ReleaseSolver(s)
	arrival, _, err := s.MinArrival(t, opts)
	return arrival, err
}

// reset prepares the solver's arenas for a solve over t: sizes the
// per-node tables and rebuilds the CSR child index from the tree's
// parent slice. All buffers are reused when capacity allows.
func (s *Solver) reset(t *Tree) {
	n := len(t.nodes)
	s.childStart = grow(s.childStart, n+1)
	s.childList = grow(s.childList, n-1)
	s.nodeOff = grow(s.nodeOff, n)
	s.nodeCnt = grow(s.nodeCnt, n)
	s.chosen = grow(s.chosen, n)
	s.fill = grow(s.fill, n)
	s.arena = s.arena[:0]
	s.kidArena = s.kidArena[:0]
	// CSR build: count, prefix-sum, fill. Scanning ascending preserves
	// Children order per parent (pre-order property).
	for i := range s.childStart {
		s.childStart[i] = 0
	}
	for i := 1; i < n; i++ {
		s.childStart[t.parents[i]+1]++
	}
	for i := 0; i < n; i++ {
		s.childStart[i+1] += s.childStart[i]
	}
	copy(s.fill, s.childStart[:n])
	for i := 1; i < n; i++ {
		p := t.parents[i]
		s.childList[s.fill[p]] = int32(i)
		s.fill[p]++
	}
}

// claimKids reserves a stride-sized child-choice region in the node-local
// kid buffer and returns its offset (-1 for stride 0).
func (s *Solver) claimKids(stride int) int32 {
	if stride == 0 {
		return -1
	}
	off := int32(len(s.kidBuf))
	for i := 0; i < stride; i++ {
		s.kidBuf = append(s.kidBuf, 0)
	}
	return off
}

// bufferFronts appends to s.cur, which holds a buffer site's base
// (unbuffered) options, each library width's front of buffered options.
// Every option buffered with width wb has load Co·wb whichever base
// option it extends, so each width is a bucket of constant c where
// dominance is 2-D on (q, w). The class table keeps the max-q option per
// (base width class, library width); a scan of each width's column in
// ascending class order then keeps the cells that beat every narrower
// class. Width-blind pruning is the one-class table.
//
// Ties go to the option generated first (the lower base index), which is
// the representative a stable prune of all base×|B| buffered options
// keeps. When two adjacent classes round to one buffered width, the
// better cell under that rule replaces the other. pruneS over the base
// options plus these fronts therefore keeps the same values as pruneS
// over every generated option; a value several buffered options tie on
// keeps its first generated one.
func (s *Solver) bufferFronts(ts *tech.Technology, width bool) {
	s.cls = s.cls[:0]
	if width {
		for _, b := range s.cur {
			s.cls = append(s.cls, b.w)
		}
		slices.Sort(s.cls)
		s.cls = slices.Compact(s.cls)
	} else {
		s.cls = append(s.cls, 0)
	}
	nw := len(s.widths)
	n := len(s.cls) * nw
	s.cells = slices.Grow(s.cells[:0], n)[:n]
	for i := range s.cells {
		s.cells[i] = bcell{q: math.Inf(-1), bi: -1}
	}
	for bi, b := range s.cur {
		row := s.cells[:nw]
		if width {
			j, _ := slices.BinarySearch(s.cls, b.w)
			row = s.cells[j*nw : j*nw+nw]
		}
		for wi, wb := range s.widths {
			if q := b.q - (ts.Rs*ts.Cp + ts.Rs/wb*b.c); q > row[wi].q {
				row[wi] = bcell{q: q, bi: int32(bi)}
			}
		}
	}
	for wi, wb := range s.widths {
		start := len(s.cur)
		maxQ := math.Inf(-1)
		lastBi := int32(-1)
		for j := wi; j < n; j += nw {
			e := s.cells[j]
			if e.bi < 0 {
				continue
			}
			b := s.cur[e.bi]
			w := b.w + wb
			if last := len(s.cur) - 1; last >= start && s.cur[last].w == w {
				if r := &s.cur[last]; e.q > r.q || (e.q == r.q && e.bi < lastBi) {
					r.q, r.kids, lastBi, maxQ = e.q, b.kids, e.bi, e.q
				}
				continue
			}
			if e.q > maxQ {
				s.cur = append(s.cur, sopt{c: ts.Co * wb, q: e.q, w: w, buf: int32(wi), kids: b.kids})
				maxQ, lastBi = e.q, e.bi
			}
		}
	}
}

// cmpSopt is pruneS's sort order: load ascending, then required time
// descending, then width ascending when width matters.
func cmpSopt(a, b sopt, width bool) int {
	switch {
	case a.c != b.c:
		return cmp.Compare(a.c, b.c)
	case a.q != b.q:
		return cmp.Compare(b.q, a.q)
	case width:
		return cmp.Compare(a.w, b.w)
	}
	return 0
}

// pruneS removes dominated options in place: o1 dominates o2 when
// c1 ≤ c2, q1 ≥ q2 and (when width matters) w1 ≤ w2. The sort order and
// front sweep replicate the pre-Solver pruner exactly, so results are
// bit-identical with the reference implementation.
func (s *Solver) pruneS(opts []sopt, width bool) []sopt {
	if len(opts) <= 1 {
		return opts
	}
	effW := func(o sopt) float64 {
		if width {
			return o.w
		}
		return 0
	}
	slices.SortFunc(opts, func(a, b sopt) int { return cmpSopt(a, b, width) })
	front := s.front[:0]
	kept := opts[:0]
	for _, o := range opts {
		// Dominated if an already-kept option (c ≤ o.c) has q ≥ o.q and
		// w ≤ o.w. front holds the kept (q, w) skyline: q descending, w
		// strictly decreasing as q drops.
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
		// Replace front[i:j] with the new point, in place.
		switch {
		case j == i:
			front = append(front, qw{})
			copy(front[i+1:], front[i:])
			front[i] = qw{o.q, ow}
		default:
			front[i] = qw{o.q, ow}
			front = append(front[:i+1], front[j:]...)
		}
	}
	s.front = front[:0]
	return kept
}

// grow returns buf resized to n, reallocating only when capacity is
// short.
func grow(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n, max(n, 2*cap(buf)))
	}
	return buf[:n]
}

// clearMap empties m for reuse, returning nil untouched.
func clearMap(m map[int]float64) map[int]float64 {
	for k := range m {
		delete(m, k)
	}
	return m
}
