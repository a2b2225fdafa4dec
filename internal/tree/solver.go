package tree

import (
	"errors"
	"fmt"
	"math"
	"slices"
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
//
// The sweeps do not sort their generated options: every prune merges
// runs that generation already emits in cmpSopt order (mergeStaircase,
// mergeRuns, bufferSite), and among exact (c, q, w) ties the option
// generated first wins. Only a buffer site of a library whose buffered
// loads Co·w collide falls back to the stable sort of pruneS.
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
	// gen the width-aware cross product's runs, mrg the merge output
	// (swapped with cur after each merge), kidBuf the node-local
	// child-choice regions.
	cur    []sopt
	prop   []sopt
	gen    []sopt
	mrg    []sopt
	kidBuf []int32

	// heads is the k-way merge's heap of run cursors, and sky the
	// dominance skyline every prune streams through.
	heads []runHead
	sky   skyline

	// cls and cells are the buffer-site class table (see bufferFronts):
	// cls holds the base options' distinct widths, ascending, and cells
	// one row of len(widths) entries per class.
	cls   []float64
	cells []bcell

	// chosen is the reconstruction scratch (the picked option index per
	// node, filled top-down); fill is the CSR build cursor.
	chosen []int32
	fill   []int32

	// widths is the library read into reusable scratch (Widths copies);
	// g is its width lattice step (Library.LatticeStep), and coSorted
	// reports that its buffered loads Co·w strictly increase, so the
	// per-width buffer-site fronts concatenate into one sorted run.
	widths   []float64
	g        float64
	coSorted bool
}

// sopt is one partial solution at a node boundary: (c) downstream
// capacitance, (q) required time, (w) buffer width spent. buf is the
// library index of the buffer inserted at the node (-1 none); kids is
// the option's child-choice offset (-1 for leaves). While a child merge
// runs, a generated option instead holds its child option's index in
// buf and its base option's index in kids.
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
	s.g = opts.Library.LatticeStep()
	s.coSorted = true
	for wi := 1; wi < len(widths); wi++ {
		if !(ts.Co*widths[wi-1] < ts.Co*widths[wi]) {
			s.coSorted = false
		}
	}
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
			// Generated counts the whole cross product, though the merge
			// never builds the options it can prove dominated.
			s.cur = append(s.cur, sopt{c: 0, q: math.Inf(1), buf: -1, kids: s.claimKids(stride)})
			for ci, childIdx := range kids {
				child := t.nodes[childIdx]
				childOpts := s.arena[s.nodeOff[childIdx] : s.nodeOff[childIdx]+s.nodeCnt[childIdx]]
				stats.Generated += len(s.cur) * len(childOpts)
				s.propagate(childOpts, child.EdgeR, child.EdgeC, width)
				if width {
					s.mergeRuns(ci, stride)
				} else {
					s.mergeStaircase(ci, stride)
				}
				s.cur, s.mrg = s.mrg, s.cur
			}
		}
		// Buffer insertion at the node (after the merge, before the
		// parent edge), mirroring the two-pin DP's per-candidate choice.
		// Generated counts every buffered option, though only each
		// width's front reaches the prune.
		if node.BufferSite {
			stats.Candidates++
			stats.Generated += len(s.cur) * len(widths)
			s.bufferSite(ts, width)
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

// mergedKids claims the child-choice region of a merged option: a copy of
// base option bi's choices with child slot ci set to the child option
// picked, written over region off when off ≥ 0 (a replaced option's).
func (s *Solver) mergedKids(off int32, bi int32, ci int, child int32, stride int) int32 {
	from := s.cur[bi].kids
	if off < 0 {
		off = int32(len(s.kidBuf))
		s.kidBuf = append(s.kidBuf, s.kidBuf[from:from+int32(stride)]...)
	} else {
		copy(s.kidBuf[off:off+int32(stride)], s.kidBuf[from:from+int32(stride)])
	}
	s.kidBuf[off+int32(ci)] = child
	return off
}

// propagate fills prop with a child's options carried across its edge,
// each holding its child option index in buf, in child arena order, along
// which c never decreases. An option an earlier one dominates is dropped:
// every option it would generate is dominated by, or ties, one generated
// before it, so no prune keeps it. Width-blind, what is left is the
// child's staircase, q ascending with c.
func (s *Solver) propagate(childOpts []sopt, edgeR, edgeC float64, width bool) {
	lo, hi := widthRange(childOpts)
	s.sky.reset(width, s.g, lo, hi, len(childOpts))
	s.prop = s.prop[:0]
	for oi, o := range childOpts {
		p := sopt{c: o.c + edgeC, q: o.q - edgeR*(edgeC/2+o.c), w: o.w, buf: int32(oi)}
		if s.sky.admit(p.q, p.w) {
			s.prop = append(s.prop, p)
		}
	}
}

// mergeStaircase is the width-blind child merge, van Ginneken's: cur and
// prop are staircases (c and q both ascending), so the cross product's
// front is the walk that pairs each required time θ, ascending, with the
// first option of each list reaching it. That pair has the least load of
// every pair whose min(q) is θ, and is the first of them generated; of a
// run of equal loads only the last, best-q pair survives. The result is
// what pruneS keeps from the whole cross product, in the same order and
// with the same representatives.
func (s *Solver) mergeStaircase(ci, stride int) {
	out := s.mrg[:0]
	for i, j := 0, 0; i < len(s.cur) && j < len(s.prop); {
		b, p := &s.cur[i], &s.prop[j]
		o := sopt{c: b.c + p.c, q: math.Min(b.q, p.q), w: b.w + p.w, buf: -1, kids: -1}
		if last := len(out) - 1; last >= 0 && out[last].c == o.c {
			o.kids = s.mergedKids(out[last].kids, int32(i), ci, p.buf, stride)
			out[last] = o
		} else {
			o.kids = s.mergedKids(-1, int32(i), ci, p.buf, stride)
			out = append(out, o)
		}
		switch {
		case b.q < p.q:
			i++
		case p.q < b.q:
			j++
		default:
			i++
			j++
		}
	}
	s.mrg = out
}

// runHead is one cursor of the width-aware merge: the next unconsumed
// option gen[i] of a run and the run's end.
type runHead struct{ i, end int32 }

// headLess orders the merge's run cursors by their head option in
// cmpSopt's width-aware order, breaking exact ties by position: runs lie
// in gen in generation order, so the earlier run's option wins.
func (s *Solver) headLess(x, y runHead) bool {
	if c := cmpSopt(s.gen[x.i], s.gen[y.i], true); c != 0 {
		return c < 0
	}
	return x.i < y.i
}

// mergeRuns is the width-aware child merge. It builds the cross product
// as one run per base option, in generation order, and k-way merges the
// runs through the skyline. A run's loads never decrease, but min(q)
// clamps equal-load child options to one q in descending w, and equal
// loads can round together, so each run is stably insertion-sorted into
// cmpSopt order first (linear when already sorted). Exact ties then go
// to the earlier run and, inside one, the earlier option: the stable
// sort of the whole cross product, which is what pruneS keeps.
func (s *Solver) mergeRuns(ci, stride int) {
	gen := s.gen[:0]
	s.heads = s.heads[:0]
	for bi := range s.cur {
		b := &s.cur[bi]
		start := int32(len(gen))
		// minW is the least width among the run's options so far whose
		// q is b.q, the run's best: an option no narrower than that is
		// dominated by, or ties, one generated before it.
		minW := math.Inf(1)
		for j := range s.prop {
			p := &s.prop[j]
			o := sopt{c: b.c + p.c, q: math.Min(b.q, p.q), w: b.w + p.w, buf: p.buf, kids: int32(bi)}
			if o.w >= minW {
				continue
			}
			if o.q == b.q {
				minW = o.w
			}
			gen = append(gen, o)
		}
		if end := int32(len(gen)); end > start {
			sortRun(gen[start:end])
			s.heads = append(s.heads, runHead{i: start, end: end})
		}
	}
	s.gen = gen
	blo, bhi := widthRange(s.cur)
	plo, phi := widthRange(s.prop)
	s.sky.reset(true, s.g, blo+plo, bhi+phi, len(gen))

	for i := len(s.heads)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
	out := s.mrg[:0]
	for len(s.heads) > 0 {
		h := &s.heads[0]
		o := &gen[h.i]
		if s.sky.admit(o.q, o.w) {
			out = append(out, sopt{c: o.c, q: o.q, w: o.w, buf: -1, kids: s.mergedKids(-1, o.kids, ci, o.buf, stride)})
		}
		if h.i++; h.i == h.end {
			last := len(s.heads) - 1
			s.heads[0] = s.heads[last]
			s.heads = s.heads[:last]
		}
		s.siftDown(0)
	}
	s.mrg = out
}

// siftDown restores the merge heap's order from index i.
func (s *Solver) siftDown(i int) {
	h := s.heads
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && s.headLess(h[r], h[l]) {
			m = r
		}
		if !s.headLess(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// sortRun stably insertion-sorts one run into width-aware cmpSopt order.
func sortRun(r []sopt) {
	for a := 1; a < len(r); a++ {
		if cmpSopt(r[a-1], r[a], true) <= 0 {
			continue
		}
		x := r[a]
		b := a
		for ; b > 0 && cmpSopt(r[b-1], x, true) > 0; b-- {
			r[b] = r[b-1]
		}
		r[b] = x
	}
}

// bufferSite adds buffer insertion at a site to cur, the site's base
// options, and prunes: the base run, already in cmpSopt order, merges with
// the buffered fronts bufferFronts emits, which concatenate into one
// sorted run when Co·w strictly increases across the library. Exact ties
// go to the base option, which is generated first. A library whose
// buffered loads collide generates every buffered option and falls back
// to pruneS.
func (s *Solver) bufferSite(ts *tech.Technology, width bool) {
	nb := len(s.cur)
	if !s.coSorted {
		for bi := 0; bi < nb; bi++ {
			b := s.cur[bi]
			for wi, wb := range s.widths {
				s.cur = append(s.cur, sopt{c: ts.Co * wb, q: b.q - (ts.Rs*ts.Cp + ts.Rs/wb*b.c), w: b.w + wb, buf: int32(wi), kids: b.kids})
			}
		}
		s.cur = s.pruneS(s.cur, width)
		return
	}
	lo, hi := widthRange(s.cur)
	s.bufferFronts(ts, width)
	s.sky.reset(width, s.g, lo, hi+s.widths[len(s.widths)-1], len(s.cur))
	out := s.mrg[:0]
	for a, b := 0, nb; a < nb || b < len(s.cur); {
		var o *sopt
		if b == len(s.cur) || (a < nb && cmpSopt(s.cur[a], s.cur[b], width) <= 0) {
			o = &s.cur[a]
			a++
		} else {
			o = &s.cur[b]
			b++
		}
		if s.sky.admit(o.q, o.w) {
			out = append(out, *o)
		}
	}
	s.cur, s.mrg = out, s.cur
}

// bufferFronts appends to s.cur, which holds a buffer site's base
// (unbuffered) options, each library width's front of buffered options.
// Every option buffered with width wb has load Co·wb whichever base
// option it extends, so each width is a bucket of constant c where
// dominance is 2-D on (q, w). The class table keeps the max-q option per
// (base width class, library width); a scan of each width's column in
// ascending class order then keeps the cells that beat every narrower
// class, and each front is reversed into cmpSopt order (q descending).
// Width-blind pruning is the one-class table. Classes are sorted and
// binary-searched, or on the width lattice indexed by (w − lo)/g.
//
// Ties go to the option generated first (the lower base index), which is
// the representative a stable prune of all base×|B| buffered options
// keeps. When two adjacent classes round to one buffered width, the
// better cell under that rule replaces the other. pruneS over the base
// options plus these fronts therefore keeps the same values as pruneS
// over every generated option; a value several buffered options tie on
// keeps its first generated one.
func (s *Solver) bufferFronts(ts *tech.Technology, width bool) {
	// Rows: one per class — on the width lattice one per lattice point
	// from the narrowest class up, when there are no more of those than
	// base options, so a class's row is (w − lo)/g and the classes need
	// no sort (BenchmarkTreeInsertFront_Engine takes about 1.27× as long
	// with every class sorted and binary-searched).
	s.cls = s.cls[:0]
	rows, lo, lattice := 1, 0.0, false
	if width {
		var hi float64
		lo, hi = widthRange(s.cur)
		if lattice = s.g > 0 && (hi-lo)/s.g < float64(len(s.cur)); lattice {
			rows = int((hi-lo)/s.g) + 1
		} else {
			for _, b := range s.cur {
				s.cls = append(s.cls, b.w)
			}
			slices.Sort(s.cls)
			s.cls = slices.Compact(s.cls)
			rows = len(s.cls)
		}
	}
	nw := len(s.widths)
	n := rows * nw
	s.cells = slices.Grow(s.cells[:0], n)[:n]
	for i := range s.cells {
		s.cells[i] = bcell{q: math.Inf(-1), bi: -1}
	}
	for bi, b := range s.cur {
		row := s.cells[:nw]
		switch {
		case lattice:
			j := int((b.w - lo) / s.g)
			row = s.cells[j*nw : j*nw+nw]
		case width:
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
		slices.Reverse(s.cur[start:])
	}
}

// cmpSopt is the order every prune streams options in: load ascending,
// then required time descending, then width ascending when width matters.
func cmpSopt(a, b sopt, width bool) int {
	switch {
	case a.c != b.c:
		if a.c < b.c {
			return -1
		}
		return 1
	case a.q != b.q:
		if a.q > b.q {
			return -1
		}
		return 1
	case width && a.w != b.w:
		if a.w < b.w {
			return -1
		}
		return 1
	}
	return 0
}

// pruneS is the generic prune the merges are measured against: it
// stable-sorts opts into cmpSopt order and keeps, in place, every option
// the skyline admits — o1 dominates o2 when c1 ≤ c2, q1 ≥ q2 and (when
// width matters) w1 ≤ w2. Among exact ties the option earliest in opts,
// the first generated, wins: the reference's stated tie rule. The sweep
// uses it only at buffer sites of a library whose buffered loads
// collide.
func (s *Solver) pruneS(opts []sopt, width bool) []sopt {
	if len(opts) <= 1 {
		return opts
	}
	slices.SortStableFunc(opts, func(a, b sopt) int { return cmpSopt(a, b, width) })
	s.sky.reset(width, 0, 0, 0, 0)
	kept := opts[:0]
	for _, o := range opts {
		if s.sky.admit(o.q, o.w) {
			kept = append(kept, o)
		}
	}
	return kept
}

// skyline is a prune's dominance filter. Options reach it in cmpSopt
// order, so every option admitted before has no larger load, and an
// option is dominated iff an admitted one has q ≥ its q and (width-aware)
// w ≤ its w. Width-blind that is the best q so far. On the width lattice
// it is maxQ, the best admitted q at width index ≤ k — an option is
// dominated iff maxQ[k(w)] ≥ q, and an admitted one raises the entries
// from k(w) up to the first already ≥ q. Off the lattice it is the
// (q, w) front, q descending and w strictly decreasing. NaN marks "none
// admitted": no comparison with it holds.
type skyline struct {
	width bool
	best  float64
	g, lo float64
	maxQ  []float64
	front []qw
}

// reset empties the skyline for options whose widths span [lo, hi],
// n of them. A width-aware prune goes on the lattice of step g (0: none)
// when its extent (hi − lo)/g + 1 is at most n, which keeps the array no
// costlier than the options.
func (k *skyline) reset(width bool, g, lo, hi float64, n int) {
	k.width, k.best, k.g = width, math.NaN(), 0
	k.front = k.front[:0]
	if !width || !(g > 0) || !(lo <= hi) || !((hi-lo)/g < float64(n)) {
		return
	}
	k.g, k.lo = g, lo
	m := int((hi-lo)/g) + 1
	k.maxQ = slices.Grow(k.maxQ[:0], m)[:m]
	for i := range k.maxQ {
		k.maxQ[i] = math.NaN()
	}
}

// admit reports whether no admitted option dominates (q, w), admitting it
// if so.
func (k *skyline) admit(q, w float64) bool {
	switch {
	case !k.width:
		if k.best >= q {
			return false
		}
		k.best = q
		return true
	case k.g > 0:
		i := int((w - k.lo) / k.g)
		if k.maxQ[i] >= q {
			return false
		}
		for ; i < len(k.maxQ) && !(k.maxQ[i] >= q); i++ {
			k.maxQ[i] = q
		}
		return true
	}
	f := k.front
	lo, hi := 0, len(f)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if f[mid].q < q {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	// f[:lo] holds the entries with q' ≥ q; the last has the least w.
	if lo > 0 && f[lo-1].w <= w {
		return false
	}
	// Replace the entries (q' < q, w' ≥ w) it now dominates.
	j := lo
	for j < len(f) && f[j].w >= w {
		j++
	}
	if j == lo {
		f = append(f, qw{})
		copy(f[lo+1:], f[lo:])
		f[lo] = qw{q, w}
	} else {
		f[lo] = qw{q, w}
		f = append(f[:lo+1], f[j:]...)
	}
	k.front = f
	return true
}

// widthRange returns the least and greatest width of opts (+Inf, −Inf
// when empty).
func widthRange(opts []sopt) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := range opts {
		lo = min(lo, opts[i].w)
		hi = max(hi, opts[i].w)
	}
	return lo, hi
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
