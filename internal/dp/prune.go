package dp

import (
	"math"
	"slices"
)

// Pruning strategy
//
// The naive rendering of Pareto pruning sorts the whole generated set on
// the 3-key (c, d, w) order and filters it through a (d, w) front — an
// O(G·log G) sort with a closure comparator over G = |down|·(|B|+1)
// options, every level. The Solver instead exploits the generation
// structure (the Lillis–Cheng–Lin load-class observation, the paper's
// reference [14]): an option created by inserting repeater width w_i has
// load c = Co·w_i regardless of which downstream option it extends, so the
// generated set splits into |B|+1 buckets — one per repeater action plus
// the no-repeater bucket — where every repeater bucket has a single c
// value and 3-D dominance inside it degenerates to 2-D (d, w) dominance.
//
//   - Width-class table. A repeater option's width is its downstream
//     option's width class — that option's accumulated width, plus the
//     interval's shielding cost when coupled — plus the library width w_i.
//     runLevels sorts and dedupes a level's classes once; every generated
//     repeater option then lands in cell (class, w_i), which keeps only the
//     lowest delay. Ties go to the lower scheme, then to the first option
//     generated. Repeater options are never stored, let alone sorted.
//   - Stage 1 reads each repeater bucket's (d, w) front from one ascending
//     scan over the classes. Widths never shrink along it, so a cell
//     survives when its delay undercuts every narrower class's. When two
//     adjacent classes round to the same post-repeater width, the faster
//     cell (by the same tie rule) replaces the slower one. Under the delay
//     objective width is ignored and the table has a single class, so each
//     bucket reduces to its min-delay cell.
//   - The no-repeater bucket inherits the downstream level's (c, d, w)
//     order (kept runs are emitted sorted), so it is already sorted; a
//     linear check guards the rare rounding collision that breaks the
//     inheritance, re-sorting (stably) only then.
//   - Stage 2 k-way merges the bucket fronts in ascending (c, d, w) order
//     through one incremental (d, w) front, which performs the exact
//     dominance filter of the classic algorithm without ever sorting the
//     full generated set. The front is held as two parallel float slices
//     (frontD, frontW) so the binary-search filter touches contiguous
//     floats only.
//
// The result is exactly the set of non-dominated distinct (c, d, w) values
// (one representative each), emitted in ascending (c, d, w) order — the
// same value set the reference O(G log G + G·F) prune keeps, which the
// property tests in prune_test.go verify against an O(G²) dominance
// filter. Delays are assumed finite: an empty cell holds +Inf.
//
// Representatives are fixed by value order alone: within a bucket the
// lower scheme wins an exact tie, then the option generated first (its
// parent comes first in the downstream level's (c, d, w) order), and
// across buckets the merge keeps the no-repeater bucket's, then the
// narrowest repeater's. None of that depends on which other options a
// sweep generated, so the ladder's fine pass, which generates a subset of
// the flat sweep's options, keeps the same chains and serves the same
// placements.
//
// ε-dominance (epsMul > 1) is an opt-in relaxation of stage 2 only: the
// merge filter treats an incoming option as dominated when a kept entry
// beats it on c and w and is within a (1+ε)^(1/n) delay factor of it,
// where n is the candidate count. Stage 1 stays exact, so each level
// introduces at most one relaxed hop and the whole sweep's delay inflation
// telescopes to at most 1+ε — and, since a hop only costs its factor at a
// level whose merge actually performed a relaxed kill, to the tighter
// (1+ε)^(epsLevels/n) that Stats.EpsFactor certifies per run. Kept entries
// always record their exact delay, so the relaxation never compounds
// through the front itself.

// dw is one (delay, width) Pareto-front entry (kept for the preserved
// reference implementation in reference_test.go).
type dw struct{ d, w float64 }

// cell is one width-class table entry: the fastest repeater option seen
// for one (width class, library width) pair. Its c and action are the
// bucket's constants; next < 0 marks an empty cell.
type cell struct {
	d, w float64
	next int32
	sch  uint8
}

// beats reports whether c is the better representative of a (d, w) value
// than o under the table's tie rule: lower delay, then lower scheme, then
// the option generated first (generation walks the downstream level in
// arena order, so that is the lower next).
func (c *cell) beats(o *option) bool {
	if c.d != o.d {
		return c.d < o.d
	}
	if c.sch != o.sch {
		return c.sch < o.sch
	}
	return c.next < o.next
}

// offer files one generated repeater option into its cell under the tie
// rule; options arrive in generation order, so a full tie keeps the
// incumbent.
func (c *cell) offer(d, w float64, next int32, sch uint8) {
	if d < c.d || (d == c.d && sch < c.sch) {
		*c = cell{d: d, w: w, next: next, sch: sch}
	}
}

// mergeHead is one cursor of the k-way run merge: the next unconsumed
// option runs[i] and the end of its run.
type mergeHead struct{ i, end int32 }

// pruner holds the per-level prune scratch. Buffers are retained across
// levels and solves.
type pruner struct {
	// runs holds the level's sorted runs back to back: first the
	// no-repeater bucket, which the solver appends during generation, then
	// each repeater bucket's front as stage 1 emits it.
	runs []option
	// cls is the level's width classes, ascending and distinct; cells is
	// the class table, row-major with one row of len(coW) cells per class.
	cls   []float64
	cells []cell
	// coW is each repeater bucket's constant load Co·w_i.
	coW    []float64
	frontD []float64 // incremental front, delay coordinates (ascending)
	frontW []float64 // incremental front, width coordinates (descending)
	heap   []mergeHead

	// epsMul > 1 enables ε-relaxed dominance in the merge filter: an
	// option is pruned when a kept entry dominates its (c, w) and has
	// d ≤ o.d·epsMul. 1 (or 0) means exact.
	epsMul float64
	// epsPruned counts options pruned by the relaxation that exact
	// dominance would have kept, accumulated across a solve's levels.
	epsPruned int
	// epsLevels counts levels whose prune performed at least one such
	// relaxed kill. A witness chain loses its (1+ε)^(1/n) delay factor
	// only at those levels, so the run's realized inflation telescopes
	// to (1+ε)^(epsLevels/n) — the tightened per-run certificate
	// Stats.EpsFactor reports.
	epsLevels int
	// epsFac is the realized inflation product: per level, the largest
	// delay ratio any relaxed kill actually forced on its cheapest valid
	// witness redirect (the fastest kept entry at width ≤ the victim's),
	// multiplied across levels. Always within [1, (1+ε)^(epsLevels/n)]
	// and usually far below it — each kill's realized ratio is capped by
	// (1+ε)^(1/n) but typically near 1.
	epsFac float64
}

// reset prepares the pruner for a new level. cls holds the downstream
// width classes in any order, duplicates allowed; reset sorts and dedupes
// it in place and keeps it. coW holds the repeater buckets' loads. Every
// table cell starts empty and the no-repeater bucket starts empty.
func (p *pruner) reset(cls, coW []float64) {
	slices.Sort(cls)
	p.cls = slices.Compact(cls)
	p.coW = coW
	n := len(p.cls) * len(coW)
	p.cells = slices.Grow(p.cells[:0], n)[:n]
	for i := range p.cells {
		p.cells[i] = cell{d: math.Inf(1), next: -1}
	}
	p.runs = p.runs[:0]
}

// row returns the table row of width class w, which must be one of the
// classes reset was given.
func (p *pruner) row(w float64) []cell {
	lo, hi := 0, len(p.cls)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.cls[mid] < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	nw := len(p.coW)
	return p.cells[lo*nw : lo*nw+nw]
}

// cmpOpt orders options by (c, d, w) ascending — (c, d) only when the
// width coordinate is ignored (2-D mode). Width-blindness is a comparison
// concern: the options' real widths are never modified. Exact value ties
// break by scheme, plain first, which is what makes a zero-coupling
// duplicate kill keep the plain option; uncoupled solves carry sch == 0
// everywhere and are unaffected.
func cmpOpt(a, b *option, threeD bool) int {
	switch {
	case a.c != b.c:
		if a.c < b.c {
			return -1
		}
		return 1
	case a.d != b.d:
		if a.d < b.d {
			return -1
		}
		return 1
	case threeD && a.w != b.w:
		if a.w < b.w {
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

// reduceTable appends each repeater bucket's (d, w) front to runs, d
// ascending and w strictly descending, and pushes a merge cursor for each
// non-empty one. The scan walks a bucket's column with widths ascending
// and keeps the survivors in that order, so each front is reversed once
// at the end.
func (p *pruner) reduceTable() {
	nw := len(p.coW)
	for wi, c := range p.coW {
		start := len(p.runs)
		minD := math.Inf(1)
		for j := wi; j < len(p.cells); j += nw {
			e := &p.cells[j]
			if e.next < 0 {
				continue
			}
			if last := len(p.runs) - 1; last >= start && p.runs[last].w == e.w {
				// Two classes rounded to one width: the cells are rival
				// representatives of the same width, so the faster stays.
				if r := &p.runs[last]; e.beats(r) {
					r.d, r.next, r.sch = e.d, e.next, e.sch
					minD = e.d
				}
				continue
			}
			if e.d < minD {
				p.runs = append(p.runs, option{c: c, d: e.d, w: e.w, act: int32(wi), next: e.next, sch: e.sch})
				minD = e.d
			}
		}
		if len(p.runs) > start {
			slices.Reverse(p.runs[start:])
			p.heap = append(p.heap, mergeHead{i: int32(start), end: int32(len(p.runs))})
		}
	}
}

// frontIdx returns the first front index whose delay exceeds key — the
// binary search both the dominance filter and the insert position use.
func (p *pruner) frontIdx(key float64) int {
	lo, hi := 0, len(p.frontD)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.frontD[mid] > key {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// pruneInto removes dominated options from the level — the no-repeater
// bucket in runs plus the filled class table — and appends the survivors
// to dst in ascending (c, d, w) order, returning the extended slice. With
// threeD it applies the 3-D Pareto rule on (c, d, w); otherwise the 2-D
// rule on (c, d), comparing as if every width were zero without mutating
// any option.
func (p *pruner) pruneInto(dst []option, threeD bool) []option {
	// Stage 1: sort the no-repeater bucket if generation broke its
	// inherited order, and read every repeater bucket's front off the
	// table. Runs keep bucket order, so merge ties break the way they
	// always have: no-repeater first, then by library index.
	p.heap = p.heap[:0]
	if n0 := len(p.runs); n0 > 0 {
		// The re-sort is stable, so exact ties keep generation order: the
		// same "first generated" rule the table applies.
		b0 := p.runs[:n0]
		if !slices.IsSortedFunc(b0, func(a, b option) int { return cmpOpt(&a, &b, threeD) }) {
			slices.SortStableFunc(b0, func(a, b option) int { return cmpOpt(&a, &b, threeD) })
		}
		p.heap = append(p.heap, mergeHead{i: 0, end: int32(n0)})
	}
	p.reduceTable()

	// Stage 2: k-way merge of the runs in ascending (c, d, w) order through
	// a single incremental (d, w) front. Every run is sorted in that order
	// (repeater fronts have constant c and ascending d), so a small binary
	// heap over the run heads yields the global order.
	for i := len(p.heap)/2 - 1; i >= 0; i-- {
		p.siftDown(i, threeD)
	}

	relaxed := p.epsMul > 1
	epsBefore := p.epsPruned
	lvlRatio := 1.0
	p.frontD = p.frontD[:0]
	p.frontW = p.frontW[:0]
	for len(p.heap) > 0 {
		h := &p.heap[0]
		o := p.runs[h.i]
		if h.i++; h.i == h.end {
			last := len(p.heap) - 1
			p.heap[0] = p.heap[last]
			p.heap = p.heap[:last]
		}
		p.siftDown(0, threeD)

		// front holds kept (d, w) pairs sorted by d ascending with
		// strictly decreasing w; every entry's c ≤ o.c by merge order, so
		// o is dominated iff some entry has d ≤ o.d and w ≤ o.w. Under
		// ε-dominance the delay window widens to d ≤ o.d·epsMul; kept
		// entries still record exact delays, so the relaxation never
		// compounds within a level.
		ow := o.w
		if !threeD {
			ow = 0
		}
		key := o.d
		if relaxed {
			key = o.d * p.epsMul
		}
		lo := p.frontIdx(key)
		if lo > 0 && p.frontW[lo-1] <= ow {
			if relaxed {
				// Attribute the kill: did the relaxation prune what exact
				// dominance would have kept? Only then is it an ε-prune —
				// and only then does a witness chain through the victim
				// pay a delay hop, bounded by the ratio to its cheapest
				// valid redirect: the fastest kept entry at width ≤ ow
				// (widths are strictly descending, so the first such).
				ex := p.frontIdx(o.d)
				if ex == 0 || p.frontW[ex-1] > ow {
					p.epsPruned++
					if r := p.frontD[p.widthIdx(ow)] / o.d; r > lvlRatio {
						lvlRatio = r
					}
				}
			}
			continue // dominated (or a duplicate of a kept value)
		}
		dst = append(dst, o)
		// Insert (o.d, ow) at its exact-delay position; drop entries it
		// dominates (d ≥ o.d, w ≥ ow). The inflated key only widened the
		// search left of the exact position, so ins ≤ lo and the entries
		// in between have w > ow — descending order is preserved.
		ins := lo
		if relaxed {
			ins = p.frontIdx(o.d)
		}
		j := ins
		for j < len(p.frontW) && p.frontW[j] >= ow {
			j++
		}
		if j == ins {
			p.frontD = append(p.frontD, 0)
			copy(p.frontD[ins+1:], p.frontD[ins:])
			p.frontD[ins] = o.d
			p.frontW = append(p.frontW, 0)
			copy(p.frontW[ins+1:], p.frontW[ins:])
			p.frontW[ins] = ow
		} else {
			p.frontD[ins] = o.d
			p.frontD = append(p.frontD[:ins+1], p.frontD[j:]...)
			p.frontW[ins] = ow
			p.frontW = append(p.frontW[:ins+1], p.frontW[j:]...)
		}
	}
	if p.epsPruned > epsBefore {
		p.epsLevels++
		p.epsFac *= lvlRatio
	}
	return dst
}

// widthIdx returns the first front index whose width is ≤ w. Front
// widths are strictly descending, so the returned entry is the fastest
// kept option no wider than w; callers guarantee one exists.
func (p *pruner) widthIdx(w float64) int {
	lo, hi := 0, len(p.frontW)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.frontW[mid] > w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// headLess orders merge cursors by their head option's (c, d, w), breaking
// exact value ties by run position — bucket order — for determinism.
func (p *pruner) headLess(x, y mergeHead, threeD bool) bool {
	a, b := &p.runs[x.i], &p.runs[y.i]
	switch {
	case a.c != b.c:
		return a.c < b.c
	case a.d != b.d:
		return a.d < b.d
	case threeD && a.w != b.w:
		return a.w < b.w
	}
	return x.i < y.i
}

// siftDown restores the heap property from index i.
func (p *pruner) siftDown(i int, threeD bool) {
	for {
		l := 2*i + 1
		if l >= len(p.heap) {
			return
		}
		min := l
		if r := l + 1; r < len(p.heap) && p.headLess(p.heap[r], p.heap[l], threeD) {
			min = r
		}
		if !p.headLess(p.heap[min], p.heap[i], threeD) {
			return
		}
		p.heap[i], p.heap[min] = p.heap[min], p.heap[i]
		i = min
	}
}
