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
	// g is the library's width lattice step (latticeStep), 0 when it has
	// none.
	g float64

	// arena holds every level's kept options, receiver level first.
	arena  []option
	lvlOff []int32
	lvlCnt []int32

	pr pruner

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
	s.g = latticeStep(s.widths)

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
		if cpl == nil {
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
				if threeD {
					row = s.pr.row(o.w)
				}
				for wi, width := range s.widths {
					d := rsCp + s.rsOverW[wi]*baseC + baseD
					if d > bound {
						continue
					}
					gen++
					row[wi].offer(d, o.w+width, next, 0)
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
