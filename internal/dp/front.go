package dp

import (
	"errors"
	"math"
	"slices"
	"sort"

	"github.com/rip-eda/rip/internal/delay"
)

// FrontPoint is one point of a net's power–delay trade-off curve: the
// cheapest assignment achieving its Delay over the solve's candidate space.
type FrontPoint struct {
	// Delay is the total Elmore delay of the point's assignment.
	Delay float64
	// TotalWidth is Σw, the power objective, of the point's assignment.
	TotalWidth float64
	// Assignment holds the point's repeater positions and widths.
	Assignment delay.Assignment

	// Schemes, for coupled fronts (Options.Coupling non-nil), is the
	// point's per-interval countermeasure vector — candidates+1 entries,
	// driver-side interval first. Empty for uncoupled fronts.
	Schemes []uint8
	// StaggerLen and ShieldLen sum the staggered/shielded interval
	// lengths of Schemes in meters. Zero when uncoupled.
	StaggerLen float64
	ShieldLen  float64
	// Cost is the DP objective value at this point: TotalWidth plus the
	// width-equivalent shielding cost of Schemes. The front's skyline is
	// over Cost, so it is strictly decreasing along the front.
	Cost float64
}

// Front is a net's root Pareto front: Delay strictly increasing,
// TotalWidth strictly decreasing, no dominated points. Front[0] is the
// minimum-delay point (maximum power) and Front[len-1] the cheapest
// feasible point (maximum delay). A Front answers any timing budget over
// its candidate space by lookup (At), which is what lets the batch engine
// cache one solve per net shape and serve every budget from it.
type Front []FrontPoint

// At returns the index of the minimum-power point meeting Delay ≤ target
// — the same point a fresh budget-specific MinPower solve would return —
// and false when no point meets the target (including NaN targets).
func (f Front) At(target float64) (int, bool) {
	if len(f) == 0 || math.IsNaN(target) || !(f[0].Delay <= target) {
		return 0, false
	}
	// Rightmost point with Delay ≤ target: delays are strictly increasing,
	// so binary search for the first Delay > target and step back.
	i := sort.Search(len(f), func(i int) bool { return f[i].Delay > target })
	return i - 1, true
}

// MinDelay returns the front's minimum achievable delay — the leftmost
// point — or +Inf for an empty front. Over a given candidate space it
// equals MinimumDelay bit-for-bit.
func (f Front) MinDelay() float64 {
	if len(f) == 0 {
		return math.Inf(1)
	}
	return f[0].Delay
}

// frontRoot is one driver-closed root option during front extraction.
// Coupled solves close each arena option once per allowed driver-interval
// scheme, so several roots may share an idx; sch disambiguates them.
type frontRoot struct {
	total float64
	w     float64
	idx   int32
	sch   uint8
}

// cmpRoot orders driver-closed roots for the skyline sweep: total
// ascending, then width, then arena order, then scheme (plain-first, so
// zero-coupling duplicate roots deterministically keep the plain close).
func cmpRoot(a, b frontRoot) int {
	switch {
	case a.total != b.total:
		if a.total < b.total {
			return -1
		}
		return 1
	case a.w != b.w:
		if a.w < b.w {
			return -1
		}
		return 1
	case a.idx != b.idx:
		if a.idx < b.idx {
			return -1
		}
		return 1
	case a.sch != b.sch:
		if a.sch < b.sch {
			return -1
		}
		return 1
	}
	return 0
}

// SolveFront runs one unbounded width-aware DP sweep and extracts the
// complete root Pareto front. Options.Objective and Target are ignored:
// the sweep is always 3-D (width-aware) and unbounded, so the returned
// Front answers every budget. For any target T, Front.At(T) selects an
// assignment with the identical delay and total width a bounded MinPower
// solve at Target=T over the same Options would pick, because the
// bounded run's surviving options are exactly the unbounded run's
// filtered to delay ≤ T.
//
// All points' Positions and Widths share one backing array (and coupled
// points' Schemes another), each point's slices capped at their length,
// so a warm Solver allocates only those arrays and the Front itself.
func (s *Solver) SolveFront(ev *delay.Evaluator, opts Options) (Front, Stats, error) {
	if opts.Library.Size() == 0 {
		return nil, Stats{}, errors.New("dp: empty repeater library")
	}
	n, err := s.prepare(ev, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	stats := Stats{Candidates: n}
	ok, err := s.runLevels(ev, opts, math.Inf(1), true, &stats)
	if err != nil || !ok {
		return nil, stats, err
	}

	// Close every surviving level-0 option with the driver stage — once
	// per allowed driver-interval scheme when coupled.
	t := ev.Tech
	rsCp := t.Rs * t.Cp
	first := s.arena[s.lvlOff[0] : s.lvlOff[0]+s.lvlCnt[0]]
	cw := s.wC[0]
	m := s.wM[0]
	rw := s.wR[0]
	rsOverWd := t.Rs / ev.Wd
	cpl := opts.Coupling
	s.roots = s.roots[:0]
	if cpl == nil {
		for i := range first {
			o := &first[i]
			s.roots = append(s.roots, frontRoot{
				total: rsCp + rsOverWd*(o.c+cw) + rw*o.c + m + o.d,
				w:     o.w,
				idx:   int32(i),
			})
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
				s.roots = append(s.roots, frontRoot{
					total: rsCp + rsOverWd*(o.c+cwS[si]) + rw*o.c + mS[si] + o.d,
					w:     o.w + wAddS[si],
					idx:   int32(i),
					sch:   sch,
				})
			}
		}
	}

	// Skyline sweep: sort (total asc, w asc, idx asc) and keep a point only
	// when its width strictly undercuts everything cheaper-in-delay. The
	// kept point where the record first drops to some width w* is the
	// min-total, earliest-arena option of width w* — exactly the option the
	// bounded driver loop picks for any target that admits it. The kept
	// roots are compacted in place, and each one's repeaters counted.
	slices.SortFunc(s.roots, cmpRoot)
	kept := s.roots[:0]
	reps := 0
	bestW := math.Inf(1)
	for _, r := range s.roots {
		if !(r.w < bestW) {
			continue
		}
		bestW = r.w
		kept = append(kept, r)
		for idx, k := s.lvlOff[0]+r.idx, 0; k < n; k++ {
			if s.arena[idx].act >= 0 {
				reps++
			}
			idx = s.arena[idx].next
		}
	}

	// Reconstruct by walking the arena parent pointers, carving each
	// point's slices out of the shared arrays: positions in place[:reps],
	// widths in place[reps:], schemes n+1 per point.
	front := make(Front, len(kept))
	place := make([]float64, 2*reps)
	pos, wid := place[:reps], place[reps:]
	var schemes []uint8
	if cpl != nil {
		schemes = make([]uint8, len(kept)*(n+1))
	}
	off := 0
	for i, r := range kept {
		p := &front[i]
		p.Delay, p.Cost = r.total, r.w
		var sch []uint8
		if cpl != nil {
			sch = schemes[i*(n+1) : (i+1)*(n+1) : (i+1)*(n+1)]
			sch[0] = r.sch
		}
		start := off
		idx := s.lvlOff[0] + r.idx
		for k := 0; k < n; k++ {
			o := &s.arena[idx]
			if o.act >= 0 {
				pos[off] = s.cand[k]
				wid[off] = s.widths[o.act]
				off++
			}
			if cpl != nil {
				sch[k+1] = o.sch
			}
			idx = o.next
		}
		if off > start {
			p.Assignment.Positions = pos[start:off:off]
			p.Assignment.Widths = wid[start:off:off]
		}
		p.TotalWidth = p.Assignment.TotalWidth()
		if cpl != nil {
			p.Schemes = sch
			p.StaggerLen, p.ShieldLen = delay.SchemeLengths(s.points, sch)
		}
	}
	return front, stats, nil
}

// SolveFront runs the front extraction on a pooled Solver.
func SolveFront(ev *delay.Evaluator, opts Options) (Front, Stats, error) {
	s := AcquireSolver()
	defer ReleaseSolver(s)
	return s.SolveFront(ev, opts)
}
