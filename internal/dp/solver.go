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

	// arena holds every level's kept options, receiver level first.
	arena  []option
	lvlOff []int32
	lvlCnt []int32

	pr pruner

	// sw is the per-solve sweep configuration the ladder and ε machinery
	// hang off runLevels; all defaults mean "exact classic sweep".
	sw sweepCfg

	// Ladder scratch: the coarse pass runs on a private inner Solver so
	// the outer arenas survive it. ladWidths is the subsampled library,
	// minRem the per-level remaining-delay lower bounds, coarseD/coarseW
	// the coarse front skyline the fine front pass queries.
	lad       *Solver
	ladSol    Solution
	ladWidths []float64
	minRem    []float64
	coarseD   []float64
	coarseW   []float64

	// roots is the driver-closure scratch for front extraction.
	roots []frontRoot

	// mdSol is MinimumDelay's scratch solution, so τmin queries stay
	// allocation-free too.
	mdSol Solution
}

// sweepCfg carries the per-solve pruning configuration runLevels reads.
// The zero value (plus wUB = +Inf, epsC = invC = 1 from configureSweep)
// is the exact classic sweep.
type sweepCfg struct {
	// wUB kills repeater options whose accumulated width exceeds it: the
	// ladder's coarse solution is a valid full-library solution, so no
	// partial wider than it can end up optimal. +Inf = no bound.
	wUB float64
	// useRem tightens the per-level delay bound to Target − minRem[k]·epsC:
	// an option whose delay plus a lower bound on all remaining stage
	// delays already misses the (deflated) target is dead.
	useRem bool
	// useWc kills options against the coarse front skyline (front mode,
	// which has no Target): an option is dead when a complete coarse
	// solution undercuts its width at a delay its completions can't beat.
	useWc bool
	// epsC = 1+Eps is the certified delay inflation factor; invC = 1/epsC.
	// Both 1 in exact mode.
	epsC float64
	invC float64
}

// ladderStride is the coarse pass's library subsampling factor: every
// ladderStride-th width, so a g10 library's coarse pass is a g40 solve.
const ladderStride = 4

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
	// τmin is a contract across the repo (relative targets resolve against
	// it), so it is always computed exactly.
	opts.Eps = 0
	opts.Ladder = false
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
	return s.solveInto(sol, ev, opts, nil)
}

// solveInto is SolveInto with an optional library override: when lib is
// non-nil it replaces opts.Library's width set (the ladder's coarse pass
// passes its subsample without building a repeater.Library for it).
func (s *Solver) solveInto(sol *Solution, ev *delay.Evaluator, opts Options, lib []float64) error {
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

	if opts.Library.Size() == 0 && lib == nil {
		return errors.New("dp: empty repeater library")
	}
	if opts.Objective == MinPower && !(opts.Target > 0) {
		return fmt.Errorf("dp: min-power needs a positive timing target, got %g", opts.Target)
	}
	if !validEps(opts.Eps) {
		return fmt.Errorf("dp: eps must be in [0, %g], got %g", MaxEps, opts.Eps)
	}
	n, err := s.prepare(ev, opts, lib)
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

	s.configureSweep(opts, threeD)
	if threeD && opts.Ladder && len(s.widths) >= 2*ladderStride {
		if err := s.ladderBounded(ev, opts, &stats); err != nil {
			sol.Stats = stats
			return err
		}
		s.computeMinRem(ev, opts.Coupling)
		s.sw.useRem = true
	}

	ok, err := s.runLevels(ev, opts, bound, threeD, &stats)
	s.fillEpsStats(&stats)
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
// A non-nil lib overrides opts.Library's width set.
func (s *Solver) prepare(ev *delay.Evaluator, opts Options, lib []float64) (int, error) {
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
	if lib != nil {
		s.widths = append(s.widths[:0], lib...)
	} else {
		s.widths = opts.Library.AppendWidths(s.widths[:0])
	}
	s.rsOverW = s.rsOverW[:0]
	s.coW = s.coW[:0]
	for _, w := range s.widths {
		s.rsOverW = append(s.rsOverW, t.Rs/w)
		s.coW = append(s.coW, t.Co*w)
	}

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

// configureSweep resets the sweep configuration and the pruner's ε knobs
// for a new solve. threeD gates the ε machinery: the relaxation is
// defined on the width-aware sweep only.
func (s *Solver) configureSweep(opts Options, threeD bool) {
	s.sw = sweepCfg{wUB: math.Inf(1), epsC: 1, invC: 1}
	s.pr.epsMul = 0
	s.pr.epsPruned = 0
	s.pr.epsLevels = 0
	s.pr.epsFac = 1
	if threeD && opts.Eps > 0 {
		// The certified delay inflation is at most 1+Eps: the stage-1
		// bucket reduces are exact, so each level's merge introduces at
		// most one relaxed hop of factor (1+Eps)^(1/n), and a chain
		// crosses n levels — the hops telescope to (1+Eps). Per run the
		// realized inflation is the tighter Stats.EpsFactor, which only
		// charges the levels whose merge performed a relaxed kill.
		s.sw.epsC = 1 + opts.Eps
		s.sw.invC = 1 / s.sw.epsC
		if n := len(s.cand); n > 0 {
			s.pr.epsMul = math.Pow(s.sw.epsC, 1/float64(n))
		}
	}
}

// fillEpsStats copies the pruner's relaxation counters into stats after a
// sweep. EpsInflation carries a 1e-12 headroom: each realized ratio is a
// rounded division and the certificate is proved in real arithmetic, so
// the headroom dwarfs any accumulated ulp without costing measurable
// tightness. Exact runs leave all three fields zero.
func (s *Solver) fillEpsStats(stats *Stats) {
	stats.EpsPruned = s.pr.epsPruned
	stats.EpsLevels = s.pr.epsLevels
	if s.pr.epsLevels > 0 {
		stats.EpsInflation = s.pr.epsFac * (1 + 1e-12)
	}
}

// ladderBounded runs the coarse pass of the bounded (MinPower) ladder: an
// exact solve on every ladderStride-th width at target Target/(1+Eps).
// Its solution is a valid full-library solution at the deflated target,
// so its TotalWidth upper-bounds every width the fine pass ever needs to
// keep (the exact optimum is no wider), and killing wider partials is
// admissible — for the exact fine pass bit-identically, for the ε pass
// within the certified bound. The coarse pass's work counters fold into
// stats so MaxGenerated caps the combined work.
func (s *Solver) ladderBounded(ev *delay.Evaluator, opts Options, stats *Stats) error {
	s.ladWidths = s.ladWidths[:0]
	for i := 0; i < len(s.widths); i += ladderStride {
		s.ladWidths = append(s.ladWidths, s.widths[i])
	}
	if s.lad == nil {
		s.lad = NewSolver()
	}
	copts := opts
	copts.Ladder = false
	copts.Eps = 0
	copts.Positions = s.cand
	copts.Target = opts.Target / s.sw.epsC
	err := s.lad.solveInto(&s.ladSol, ev, copts, s.ladWidths)
	cst := s.ladSol.Stats
	stats.Generated += cst.Generated
	stats.Kept += cst.Kept
	if cst.MaxPerLevel > stats.MaxPerLevel {
		stats.MaxPerLevel = cst.MaxPerLevel
	}
	if err != nil {
		return err
	}
	if opts.MaxGenerated > 0 && stats.Generated > opts.MaxGenerated {
		return fmt.Errorf("%w: %d partial solutions (limit %d)",
			ErrBudget, stats.Generated, opts.MaxGenerated)
	}
	if s.ladSol.Feasible {
		// The width bound must live in the sweep's own w coordinate, which
		// for coupled solves includes shielding cost — Solution.Cost, not
		// the repeater-only TotalWidth (an undercount there could kill a
		// partial that completes below the coarse solution's true cost).
		if opts.Coupling != nil {
			s.sw.wUB = s.ladSol.Cost
		} else {
			s.sw.wUB = s.ladSol.TotalWidth
		}
	}
	return nil
}

// computeMinRem fills minRem[k] with a lower bound on the delay any
// option at level k still accumulates before the driver closes it: the
// distributed self-delay of every remaining stage plus the driver's
// irreducible intrinsic and first-stage-load terms. Everything else
// (resistance·load cross terms) is nonnegative, so d + minRem[k] ≤ total
// holds for every completion of every level-k option.
func (s *Solver) computeMinRem(ev *delay.Evaluator, cpl *delay.Coupling) {
	n := len(s.cand)
	if cap(s.minRem) < n {
		s.minRem = make([]float64, n)
	}
	s.minRem = s.minRem[:n]
	t := ev.Tech
	// Under coupling, every interval's self-delay is at least its ground
	// part plus the smallest allowed Miller factor's share of the coupling
	// part (the sweep may pick schemes per interval, but none prices below
	// MinMF), so the floor stays admissible.
	mf := 0.0
	if cpl != nil {
		mf = cpl.MinMF()
	}
	var acc float64
	if cpl == nil {
		acc = t.Rs*t.Cp + (t.Rs/ev.Wd)*s.wC[0] + s.wM[0]
	} else {
		acc = t.Rs*t.Cp + (t.Rs/ev.Wd)*(s.wC[0]+mf*s.wCc[0]) + (s.wM[0] + mf*s.wMc[0])
	}
	for k := 0; k < n; k++ {
		if k > 0 {
			if cpl == nil {
				acc += s.wM[k]
			} else {
				acc += s.wM[k] + mf*s.wMc[k]
			}
		}
		// Deflate by a hair: the bound is proved in real arithmetic, and
		// the fine sweep accumulates delays through rounded additions, so
		// an exactly-tight floor could kill a chain rounding just under
		// it. 1e-9 relative dwarfs any accumulated ulp while costing
		// nothing measurable in pruning power.
		s.minRem[k] = acc * (1 - 1e-9)
	}
}

// wcAt returns the width of the cheapest coarse-front solution whose
// delay is ≤ x, or +Inf when no coarse solution is that fast. coarseD is
// ascending with coarseW strictly descending (a skyline), so the
// rightmost qualifying point is the cheapest.
func (s *Solver) wcAt(x float64) float64 {
	lo, hi := 0, len(s.coarseD)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.coarseD[mid] > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 {
		return math.Inf(1)
	}
	return s.coarseW[lo-1]
}

// runLevels executes the bottom-up sweep over every candidate level after
// prepare, growing the arena level by level. It reports ok=false when a
// level prunes to nothing (every partial timed out — infeasible) and
// ErrBudget when MaxGenerated is exceeded; stats accumulate either way.
func (s *Solver) runLevels(ev *delay.Evaluator, opts Options, bound float64, threeD bool, stats *Stats) (bool, error) {
	rsCp := ev.Tech.Rs * ev.Tech.Cp
	useRem, useWc := s.sw.useRem, s.sw.useWc
	wUB := s.sw.wUB
	checkUB := !math.IsInf(wUB, 1)
	invC := s.sw.invC
	cpl := opts.Coupling
	for k := len(s.cand) - 1; k >= 0; k-- {
		// Stage k+1 spans [cand[k], next candidate or L].
		cw := s.wC[k+1]
		rw := s.wR[k+1]
		m := s.wM[k+1]

		// Ladder bounds for options generated at this level. The delay
		// bound tightens by the remaining-delay floor (deflated targets
		// inflate it back by epsC so ε-surrogate chains always survive);
		// the width bounds kill partials no completion can redeem.
		lb := bound
		var rem float64
		if useRem || useWc {
			rem = s.minRem[k]
		}
		if useRem {
			if b := opts.Target - rem*s.sw.epsC; b < lb {
				lb = b
			}
		}

		// The level's width-class table (see prune.go): one class per
		// distinct downstream width, plus each scheme's shielding cost when
		// coupled. The delay objective ignores width, so 2-D mode is the
		// one-class table and every option lands in row 0.
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
			cls = append(cls, 0)
		case cpl == nil:
			for di := range down {
				cls = append(cls, down[di].w)
			}
		default:
			for di := range down {
				for si := range cpl.Schemes {
					cls = append(cls, down[di].w+wAddS[si])
				}
			}
		}
		s.pr.reset(cls, s.coW)
		row := s.pr.cells
		gen := 0
		if cpl == nil {
			for di := range down {
				o := &down[di]
				baseC := o.c + cw
				baseD := o.d + rw*o.c + m
				if baseD > lb {
					continue
				}
				next := downOff + int32(di)
				// No repeater at this candidate.
				if !useWc || o.w <= s.wcAt(baseD*invC+rem) {
					s.pr.runs = append(s.pr.runs, option{c: baseC, d: baseD, w: o.w, act: -1, next: next})
				}
				// Repeater of each library width: the option lands in cell
				// (o's width class, wi), which keeps the fastest. Uncoupled
				// options all carry the plain scheme, so the tie rule is
				// just "first generated".
				if threeD {
					row = s.pr.row(o.w)
				}
				for wi, width := range s.widths {
					d := rsCp + s.rsOverW[wi]*baseC + baseD
					if d > lb {
						continue
					}
					w := o.w + width
					if checkUB && w > wUB {
						continue
					}
					if useWc && w > s.wcAt(d*invC+rem) {
						continue
					}
					gen++
					row[wi].offer(d, w, next, 0)
				}
			}
		} else {
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
					if baseD > lb {
						continue
					}
					ow := o.w + wAddS[si]
					if !useWc || ow <= s.wcAt(baseD*invC+rem) {
						s.pr.runs = append(s.pr.runs, option{c: baseC, d: baseD, w: ow, act: -1, next: next, sch: sch})
					}
					if threeD {
						row = s.pr.row(ow)
					}
					for wi, width := range s.widths {
						d := rsCp + s.rsOverW[wi]*baseC + baseD
						if d > lb {
							continue
						}
						w := ow + width
						if checkUB && w > wUB {
							continue
						}
						if useWc && w > s.wcAt(d*invC+rem) {
							continue
						}
						gen++
						row[wi].offer(d, w, next, sch)
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
