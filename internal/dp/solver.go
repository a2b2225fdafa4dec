package dp

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/rip-eda/rip/internal/delay"
)

// Solver is a reusable DP kernel. All per-solve working memory — candidate
// positions, per-stage wire quantities, the option arena, generation and
// pruning buffers — lives in persistent scratch that is recycled across
// levels and across solves, so steady-state solves allocate nothing on the
// heap. A Solver is NOT safe for concurrent use: give each goroutine its
// own, or draw one from the package pool per call (the batch engine takes
// a pooled Solver for each cold solve).
//
// Layout: all levels' surviving options live in one flat arena. Level k's
// run is arena[lvlOff[k] : lvlOff[k]+lvlCnt[k]]; an option's parent pointer
// (next) is the absolute arena index of the downstream option it extends,
// so reconstruction is a pointer walk with no per-level slices.
type Solver struct {
	// cand is the candidate position list for the current solve; points is
	// cand bracketed by the terminals [0, cand..., L], so interval i spans
	// [points[i], points[i+1]] and wR/wC/wM[i] hold that interval's wire
	// resistance, capacitance and distributed self-delay.
	cand   []float64
	points []float64
	wR     []float64
	wC     []float64
	wM     []float64
	// wCc/wMc are the per-interval unscaled coupling capacitance and
	// coupling self-delay (coupled solves only; see delay.Coupling). The
	// interval's effective values under Miller factor MF are
	// wC + MF·wCc and wM + MF·wMc.
	wCc []float64
	wMc []float64

	// widths is the library scratch; rsOverW and coW are the per-width
	// constants Rs/w and Co·w hoisted out of the generation loop (the
	// division per partial solution is measurable at Table 2 scale).
	widths  []float64
	rsOverW []float64
	coW     []float64
	// g is the library's width lattice step (Library.LatticeStep), 0 when
	// it has none.
	g float64

	// arena holds every level's kept options, receiver level first.
	arena  []option
	lvlOff []int32
	lvlCnt []int32

	pr pruner

	// hull, near and nearAt are offerHull's scratch: the lower hull's
	// vertices, the options near it (vertices included), and each
	// vertex's position in near.
	hull   []int32
	near   []int32
	nearAt []int32

	// roots is the driver-closure scratch for front extraction.
	roots []frontRoot

	// mdSol is MinimumDelay's scratch solution, so τmin queries stay
	// allocation-free too.
	mdSol Solution
}

// NewSolver returns an empty Solver; arenas grow on first use and are
// retained afterwards.
func NewSolver() *Solver { return &Solver{} }

// Solve runs the DP for the evaluator's net and returns a freshly
// allocated Solution (safe to retain after the Solver is reused).
func (s *Solver) Solve(ev *delay.Evaluator, opts Options) (Solution, error) {
	var sol Solution
	err := s.SolveInto(&sol, ev, opts)
	return sol, err
}

// MinimumDelay computes τmin: the minimum achievable Elmore delay over the
// candidate space described by opts (its Objective and Target are ignored).
func (s *Solver) MinimumDelay(ev *delay.Evaluator, opts Options) (float64, error) {
	tmin, _, err := s.MinimumDelayStats(ev, opts)
	return tmin, err
}

// MinimumDelayStats is MinimumDelay also reporting the run's work Stats,
// so accounting callers (the engine's DP counters) don't pay a second
// solve. On error the stats cover the partial work done before the abort.
func (s *Solver) MinimumDelayStats(ev *delay.Evaluator, opts Options) (float64, Stats, error) {
	opts.Objective = MinDelay
	opts.Target = 0
	if err := s.SolveInto(&s.mdSol, ev, opts); err != nil {
		return 0, s.mdSol.Stats, err
	}
	if !s.mdSol.Feasible {
		return 0, s.mdSol.Stats, errors.New("dp: min-delay search produced no solution")
	}
	return s.mdSol.Delay, s.mdSol.Stats, nil
}

// SolveInto runs the DP for the evaluator's net, writing the outcome into
// *sol. The solution's Assignment buffers are reused when present, which
// is what makes repeated solves on one Solver allocation-free; callers
// that retain solutions across solves must pass distinct *sol values (or
// use Solve, which always returns fresh memory).
func (s *Solver) SolveInto(sol *Solution, ev *delay.Evaluator, opts Options) error {
	sol.Assignment.Positions = sol.Assignment.Positions[:0]
	sol.Assignment.Widths = sol.Assignment.Widths[:0]
	sol.Delay = 0
	sol.TotalWidth = 0
	sol.Feasible = false
	sol.Stats = Stats{}
	sol.Schemes = sol.Schemes[:0]
	sol.StaggerLen = 0
	sol.ShieldLen = 0
	sol.Cost = 0

	if opts.Library.Size() == 0 {
		return errors.New("dp: empty repeater library")
	}
	if opts.Objective == MinPower && !(opts.Target > 0) {
		return fmt.Errorf("dp: min-power needs a positive timing target, got %g", opts.Target)
	}
	n, err := s.prepare(ev, opts)
	if err != nil {
		return err
	}
	stats := Stats{Candidates: n}

	// Delay bound for pruning: delays only grow walking upstream, so any
	// partial already past the target is dead. (MinDelay has no bound.)
	bound := math.Inf(1)
	threeD := opts.Objective == MinPower
	if threeD {
		bound = opts.Target
	}

	ok, err := s.runLevels(ev, opts, bound, threeD, &stats)
	if err != nil {
		sol.Stats = stats
		return err
	}
	if !ok {
		// Everything timed out; infeasible.
		sol.Stats = stats
		return nil
	}

	// Close with the driver stage: wire from 0 to the first level. A
	// coupled solve additionally chooses the driver-side interval's scheme
	// here (the sweep only decided intervals downstream of candidates).
	t := ev.Tech
	rsCp := t.Rs * t.Cp
	first := s.arena[s.lvlOff[0] : s.lvlOff[0]+s.lvlCnt[0]]
	cw := s.wC[0]
	m := s.wM[0]
	rw := s.wR[0]
	rsOverWd := t.Rs / ev.Wd
	bestIdx := int32(-1)
	bestDelay := math.Inf(1)
	bestWidth := math.Inf(1)
	bestSch := uint8(0)
	cpl := opts.Coupling
	if cpl == nil {
		for i := range first {
			o := &first[i]
			total := rsCp + rsOverWd*(o.c+cw) + rw*o.c + m + o.d
			switch opts.Objective {
			case MinPower:
				if total > opts.Target {
					continue
				}
				if o.w < bestWidth || (o.w == bestWidth && total < bestDelay) {
					bestIdx, bestWidth, bestDelay = int32(i), o.w, total
				}
			case MinDelay:
				if total < bestDelay {
					bestIdx, bestWidth, bestDelay = int32(i), o.w, total
				}
			}
		}
	} else {
		var cwS, mS, wAddS [3]float64
		stage0 := s.points[1] - s.points[0]
		for si, sch := range cpl.Schemes {
			mf := cpl.MF[sch]
			cwS[si] = cw + mf*s.wCc[0]
			mS[si] = m + mf*s.wMc[0]
			wAddS[si] = cpl.CostUPerM[sch] * stage0
		}
		for i := range first {
			o := &first[i]
			for si, sch := range cpl.Schemes {
				total := rsCp + rsOverWd*(o.c+cwS[si]) + rw*o.c + mS[si] + o.d
				w := o.w + wAddS[si]
				switch opts.Objective {
				case MinPower:
					if total > opts.Target {
						continue
					}
					if w < bestWidth || (w == bestWidth && total < bestDelay) {
						bestIdx, bestWidth, bestDelay, bestSch = int32(i), w, total, sch
					}
				case MinDelay:
					if total < bestDelay {
						bestIdx, bestWidth, bestDelay, bestSch = int32(i), w, total, sch
					}
				}
			}
		}
	}
	sol.Stats = stats
	if bestIdx < 0 {
		return nil
	}

	// Reconstruct by walking the arena parent pointers from the chosen
	// level-0 option. The scheme vector leads with the driver-close choice
	// (interval 0); the level-k option's sch is interval k+1's.
	if cpl != nil {
		sol.Schemes = append(sol.Schemes, bestSch)
	}
	idx := s.lvlOff[0] + bestIdx
	for k := 0; k < n; k++ {
		o := &s.arena[idx]
		if o.act >= 0 {
			sol.Assignment.Positions = append(sol.Assignment.Positions, s.cand[k])
			sol.Assignment.Widths = append(sol.Assignment.Widths, s.widths[o.act])
		}
		if cpl != nil {
			sol.Schemes = append(sol.Schemes, o.sch)
		}
		idx = o.next
	}
	sol.Delay = bestDelay
	sol.TotalWidth = sol.Assignment.TotalWidth()
	sol.Cost = bestWidth
	if cpl != nil {
		sol.StaggerLen, sol.ShieldLen = delay.SchemeLengths(s.points, sol.Schemes)
	}
	sol.Feasible = true
	return nil
}

// prepare resolves the candidate list and fills every per-solve scratch
// buffer: stage wire R/C/M, per-width electrical constants, level tables
// and the receiver seed at arena[0]. It returns the candidate count.
// Callers validate Options first (prepare assumes a non-empty library).
func (s *Solver) prepare(ev *delay.Evaluator, opts Options) (int, error) {
	s.cand = s.cand[:0]
	if opts.Positions == nil {
		if !(opts.Pitch > 0) {
			return 0, errors.New("dp: need explicit Positions or a positive Pitch")
		}
		s.cand = ev.Line.AppendLegalPositions(s.cand, opts.Pitch)
	} else {
		s.cand = append(s.cand, opts.Positions...)
		slices.Sort(s.cand)
		for i, x := range s.cand {
			if !ev.Line.Legal(x) {
				return 0, fmt.Errorf("dp: candidate %d at %g is not a legal repeater position", i, x)
			}
			if i > 0 && x == s.cand[i-1] {
				return 0, fmt.Errorf("dp: duplicate candidate position %g", x)
			}
		}
	}

	t := ev.Tech
	n := len(s.cand)

	// Per-solve precomputation: every stage's wire R/C/M in one prepass,
	// and the per-width electrical constants.
	s.points = append(s.points[:0], 0)
	s.points = append(s.points, s.cand...)
	s.points = append(s.points, ev.Line.Length())
	s.wR, s.wC, s.wM = ev.StageRCM(s.points, s.wR[:0], s.wC[:0], s.wM[:0])
	if opts.Coupling != nil {
		s.wCc, s.wMc = ev.StageCcMc(s.points, s.wCc[:0], s.wMc[:0])
	}
	s.widths = opts.Library.AppendWidths(s.widths[:0])
	s.rsOverW = s.rsOverW[:0]
	s.coW = s.coW[:0]
	for _, w := range s.widths {
		s.rsOverW = append(s.rsOverW, t.Rs/w)
		s.coW = append(s.coW, t.Co*w)
	}
	s.g = opts.Library.LatticeStep()

	if cap(s.lvlOff) < n+1 {
		s.lvlOff = make([]int32, n+1)
		s.lvlCnt = make([]int32, n+1)
	}
	s.lvlOff = s.lvlOff[:n+1]
	s.lvlCnt = s.lvlCnt[:n+1]

	// Receiver pseudo-level: a single seed option at arena[0].
	s.arena = append(s.arena[:0], option{c: t.Co * ev.Wr, d: 0, w: 0, act: -1, next: -1})
	s.lvlOff[n] = 0
	s.lvlCnt[n] = 1
	return n, nil
}

// runLevels executes the bottom-up sweep over every candidate level after
// prepare, growing the arena level by level. It reports ok=false when a
// level prunes to nothing (every partial timed out — infeasible) and
// ErrBudget when MaxGenerated is exceeded; stats accumulate either way.
func (s *Solver) runLevels(ev *delay.Evaluator, opts Options, bound float64, threeD bool, stats *Stats) (bool, error) {
	rsCp := ev.Tech.Rs * ev.Tech.Cp
	cpl := opts.Coupling
	wMax := s.widths[len(s.widths)-1] // libraries are sorted ascending
	for k := len(s.cand) - 1; k >= 0; k-- {
		// Stage k+1 spans [cand[k], next candidate or L].
		cw := s.wC[k+1]
		rw := s.wR[k+1]
		m := s.wM[k+1]

		// The level's width-class table (see prune.go): one class per
		// distinct downstream width, plus each scheme's shielding cost when
		// coupled. The delay objective ignores width, so 2-D mode is the
		// one-class table and every option lands in row 0. An uncoupled
		// width-aware level goes on the width lattice when its extent
		// passes onLattice's guard.
		downOff := s.lvlOff[k+1]
		down := s.arena[downOff : downOff+s.lvlCnt[k+1]]
		var cwS, mS, wAddS [3]float64
		if cpl != nil {
			stageLen := s.points[k+2] - s.points[k+1]
			for si, sch := range cpl.Schemes {
				mf := cpl.MF[sch]
				cwS[si] = cw + mf*s.wCc[k+1]
				mS[si] = m + mf*s.wMc[k+1]
				wAddS[si] = cpl.CostUPerM[sch] * stageLen
			}
		}
		cls := s.pr.cls[:0]
		switch {
		case !threeD:
			s.pr.reset(append(cls, 0), s.coW)
		case cpl == nil:
			lo, hi := down[0].w, down[0].w
			for di := range down {
				w := down[di].w
				cls = append(cls, w)
				if w < lo {
					lo = w
				} else if w > hi {
					hi = w
				}
			}
			if onLattice(lo, hi, wMax, s.g, len(down)) {
				s.pr.cls = cls[:0] // unused on the lattice; keep the buffer
				s.pr.resetLattice(lo, hi, wMax, s.g, s.coW)
			} else {
				s.pr.reset(cls, s.coW)
			}
		default:
			for di := range down {
				for si := range cpl.Schemes {
					cls = append(cls, down[di].w+wAddS[si])
				}
			}
			s.pr.reset(cls, s.coW)
		}
		row := s.pr.cells
		gen := 0
		switch {
		case cpl == nil && !threeD:
			// τmin: unbounded (the delay objective has no target), and
			// every option lands in the one class, so only options near
			// the lower hull of the no-repeater bucket can win a cell.
			for di := range down {
				o := &down[di]
				s.pr.runs = append(s.pr.runs, option{c: o.c + cw, d: o.d + rw*o.c + m, w: o.w, act: -1, next: downOff + int32(di)})
			}
			gen += len(down) * len(s.widths)
			s.offerHull(rsCp, row)
		case cpl == nil:
			for di := range down {
				o := &down[di]
				baseC := o.c + cw
				baseD := o.d + rw*o.c + m
				if baseD > bound {
					continue
				}
				next := downOff + int32(di)
				// No repeater at this candidate.
				s.pr.runs = append(s.pr.runs, option{c: baseC, d: baseD, w: o.w, act: -1, next: next})
				// Repeater of each library width: the option lands in cell
				// (o's width class, wi), which keeps the fastest. Uncoupled
				// options all carry the plain scheme, so the tie rule is
				// just "first generated".
				row = s.pr.row(o.w)
				for wi, width := range s.widths {
					d := rsCp + s.rsOverW[wi]*baseC + baseD
					if d > bound {
						continue
					}
					gen++
					row[wi].offer(d, o.w+width, next, 0)
				}
			}
		default:
			// Coupled arm: generate one option per allowed scheme of the
			// interval, pricing it at the scheme's effective capacitance /
			// self-delay and charging any shielding cost into w. The pruner
			// needs no new machinery — a scheme choice's entire downstream
			// effect is already inside (c, d, w); the sch byte is carried
			// for reconstruction only. With zero coupling densities the
			// plain scheme's arithmetic is bit-identical to the arm above
			// and the extra schemes generate only duplicates or dominated
			// options, which the (plain-first) deterministic prune removes
			// — the differential oracle in coupling_test.go pins that.
			for di := range down {
				o := &down[di]
				next := downOff + int32(di)
				for si, sch := range cpl.Schemes {
					baseC := o.c + cwS[si]
					baseD := o.d + rw*o.c + mS[si]
					if baseD > bound {
						continue
					}
					ow := o.w + wAddS[si]
					s.pr.runs = append(s.pr.runs, option{c: baseC, d: baseD, w: ow, act: -1, next: next, sch: sch})
					if threeD {
						row = s.pr.row(ow)
					}
					for wi, width := range s.widths {
						d := rsCp + s.rsOverW[wi]*baseC + baseD
						if d > bound {
							continue
						}
						gen++
						row[wi].offer(d, ow+width, next, sch)
					}
				}
			}
		}
		gen += len(s.pr.runs)
		stats.Generated += gen
		if opts.MaxGenerated > 0 && stats.Generated > opts.MaxGenerated {
			return false, fmt.Errorf("%w: %d partial solutions (limit %d)",
				ErrBudget, stats.Generated, opts.MaxGenerated)
		}
		start := int32(len(s.arena))
		s.arena = s.pr.pruneInto(s.arena, threeD)
		kept := int32(len(s.arena)) - start
		stats.Kept += int(kept)
		if int(kept) > stats.MaxPerLevel {
			stats.MaxPerLevel = int(kept)
		}
		if kept == 0 {
			return false, nil
		}
		s.lvlOff[k] = start
		s.lvlCnt[k] = kept
	}
	return true, nil
}

// Tolerances of offerHull, as fractions of the level's delay scale M
// (see offerHull). A float64 evaluation of a delay is within 3·2⁻⁵³·M of
// its exact value, and the hull's own arithmetic within about 2⁻⁴⁹·M.
const (
	// hullConvex is how far below the chord of its neighbours a vertex
	// must lie: every kept triple is then exactly convex.
	hullConvex = 0x1p-46
	// hullFar is the height above the hull past which an option can never
	// win a cell: it is worse than a vertex by more than twice any
	// rounding error.
	hullFar = 0x1p-40
	// hullScan is the delay margin, above the least vertex delay, within
	// which vertices are treated as tied.
	hullScan = 0x1p-42
)

// offerHull files the repeater options of a τmin level — unbounded,
// uncoupled and 2-D — into its one-class table row. The level's
// no-repeater bucket, in runs, holds each downstream option's (baseC,
// baseD) in generation order, so baseC never decreases along it. Width
// w_i's option from it has delay rsCp + (Rs/w_i)·baseC + baseD, linear in
// (baseC, baseD), so only options near the lower convex hull of those
// points can be a cell's fastest; since Rs/w_i falls as w_i grows, one
// pointer walks the hull across the widths. Each cell still sees, in
// generation order, every option that can win or tie it, so it keeps the
// option the full n·|B| loop keeps, bit for bit.
//
// Exactness rests on three margins of the delay scale M, which bounds
// every term of every delay on the level: a far option is above the
// segment between two vertices by more than twice the rounding error of
// any evaluation, so at every slope one of the two beats it; the vertices
// form an exactly convex chain, so along it each width's exact delay
// falls and then rises; and every vertex within a scan margin of the
// least evaluated delay is offered, with the near options on the edges
// around them. Levels with non-finite values, or too few options for the
// hull to pay, run the full loop.
func (s *Solver) offerHull(rsCp float64, row []cell) {
	pts := s.pr.runs
	n := len(pts)
	sMax := 0.0
	for _, sw := range s.rsOverW {
		sMax = max(sMax, math.Abs(sw))
	}
	cMax, dMax := 0.0, 0.0
	for i := range pts {
		cMax = max(cMax, math.Abs(pts[i].c))
		dMax = max(dMax, math.Abs(pts[i].d))
	}
	scale := math.Abs(rsCp) + sMax*cMax + dMax
	if n < 4 || math.IsInf(scale, 0) || math.IsNaN(scale) {
		for i := range pts {
			o := &pts[i]
			for wi, width := range s.widths {
				row[wi].offer(rsCp+s.rsOverW[wi]*o.c+o.d, o.w+width, o.next, 0)
			}
		}
		return
	}

	// Lower hull, Andrew's monotone chain over the c-sorted points. Of
	// equal loads only the first of least delay can be a vertex, and a
	// vertex b stays only when it lies clearly below the chord from its
	// predecessor a to the next point p: its height over the chord, times
	// p.c − a.c > 0, is below −tolConvex·(p.c − a.c).
	tolConvex := hullConvex * scale
	h := s.hull[:0]
	for i := range pts {
		p := &pts[i]
		if top := len(h) - 1; top >= 0 && pts[h[top]].c == p.c {
			if p.d >= pts[h[top]].d {
				continue
			}
			h = h[:top]
		}
		for len(h) >= 2 {
			a, b := &pts[h[len(h)-2]], &pts[h[len(h)-1]]
			if dc := p.c - a.c; (b.d-a.d)*dc-(p.d-a.d)*(b.c-a.c) < -tolConvex*dc {
				break
			}
			h = h[:len(h)-1]
		}
		h = append(h, int32(i))
	}
	s.hull = h

	// Near options: the vertices, plus every other option within hullFar
	// of the edge below it (options before the first vertex or after the
	// last share its load). below is the deepest a near option lies under
	// the chain, which widens the scan margin.
	tolFar := hullFar * scale
	below := 0.0
	near := s.near[:0]
	s.nearAt = slices.Grow(s.nearAt[:0], len(h))[:len(h)]
	for i, v := 0, 0; i < n; i++ {
		if v < len(h) && h[v] == int32(i) {
			s.nearAt[v] = int32(len(near))
			near = append(near, int32(i))
			v++
			continue
		}
		p := &pts[i]
		var gap float64
		switch {
		case v == 0:
			gap = p.d - pts[h[0]].d
		case v == len(h):
			gap = p.d - pts[h[v-1]].d
		default:
			a, b := &pts[h[v-1]], &pts[h[v]]
			switch {
			case p.c == a.c:
				gap = p.d - a.d
			case p.c == b.c:
				gap = p.d - b.d
			default:
				gap = p.d - (a.d + (b.d-a.d)*((p.c-a.c)/(b.c-a.c)))
			}
		}
		if gap > tolFar {
			continue
		}
		below = max(below, -gap)
		near = append(near, int32(i))
	}
	s.near = near

	// The walk: for each width, scan the vertices from the pointer both
	// ways while their delay stays within the margin of the least seen,
	// then offer the near options strictly between the vertices that
	// ended the scans, in generation order.
	tolScan := hullScan*scale + 2*below
	at := 0
	for wi, width := range s.widths {
		sw := s.rsOverW[wi]
		best := rsCp + sw*pts[h[at]].c + pts[h[at]].d
		lo, hi, bestAt := at, at, at
		for hi+1 < len(h) {
			p := &pts[h[hi+1]]
			d := rsCp + sw*p.c + p.d
			if d > best+tolScan {
				break
			}
			if hi++; d < best {
				best, bestAt = d, hi
			}
		}
		for lo > 0 {
			p := &pts[h[lo-1]]
			d := rsCp + sw*p.c + p.d
			if d > best+tolScan {
				break
			}
			if lo--; d < best {
				best, bestAt = d, lo
			}
		}
		at = bestAt
		from, to := int32(0), int32(len(near))
		if lo > 0 {
			from = s.nearAt[lo-1] + 1
		}
		if hi+1 < len(h) {
			to = s.nearAt[hi+1]
		}
		for _, i := range near[from:to] {
			o := &pts[i]
			row[wi].offer(rsCp+sw*o.c+o.d, o.w+width, o.next, 0)
		}
	}
}
