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
//     Every generated repeater option lands in cell (class, w_i), which
//     keeps only the lowest delay. Ties go to the lower scheme, then to the
//     first option generated. Repeater options are never stored, let alone
//     sorted.
//   - Width lattice. When every library width is a positive integer, an
//     uncoupled accumulated width is an exact multiple of the library's
//     gcd g (repeater.Library.LatticeStep), so class w has the exact
//     index (w − lo)/g above the level's narrowest class lo. A
//     width-aware uncoupled level whose lattice extent — its classes'
//     span plus the widest library width, over g — is no larger than its
//     downstream option count (onLattice) indexes its table rows that
//     way: one row per lattice point, unoccupied rows left empty. Every
//     other level — 2-D, coupled (shielding costs are continuous),
//     non-integer libraries and sparse lattices past the guard — sorts
//     and dedupes its classes once and binary-searches each option's
//     row.
//   - Stage 1 reads each repeater bucket's (d, w) front from one ascending
//     scan over the rows. Widths never shrink along it, so a cell survives
//     when its delay undercuts every narrower class's. Off the lattice,
//     two adjacent classes can round to the same post-repeater width; the
//     faster cell (by the same tie rule) then replaces the slower one. On
//     the lattice every width is exact, so that never happens. Under the
//     delay objective width is ignored and the table has a single class,
//     so each bucket reduces to its min-delay cell; the τmin sweep offers
//     those cells only the options near the level's lower hull (see
//     Solver.offerHull).
//   - The no-repeater bucket inherits the downstream level's (c, d, w)
//     order (kept runs are emitted sorted), so it is already sorted; a
//     linear check guards the rare rounding collision that breaks the
//     inheritance, re-sorting (stably) only then.
//   - The repeater fronts come off the table in ascending c (c = Co·w_i,
//     and the library ascends), each in ascending d, so their
//     concatenation is already one sorted run. A check at each front's
//     boundary guards two widths whose Co·w round equal (or a library
//     out of order), stably re-sorting the run only then.
//   - Stage 2 is a two-way merge of the two runs in ascending (c, d, w)
//     order (cmpKey), exact ties to the no-repeater run, through one
//     incremental skyline, which performs the exact dominance filter of
//     the classic algorithm without ever sorting the full generated set.
//     Every option merged so far has c ≤ the current one's, so it is
//     dominated iff a kept option has d' ≤ d and w' ≤ w. In 2-D that is
//     the least kept delay. On the lattice the skyline is a prefix-minimum
//     array over the same width index: minD[k] is the least kept delay at
//     index ≤ k, an option is dominated iff minD[k(w)] ≤ d, and a kept
//     option lowers minD from k(w) up to the first entry already ≤ its
//     delay. Off the lattice it is two parallel float slices (frontD
//     ascending, frontW descending) that the filter binary-searches and
//     the insert shifts.
//
// Both renderings decide the same predicate with the same tie rule, so a
// level keeps the same options in the same order on either path. The
// result is exactly the set of non-dominated distinct (c, d, w) values
// (one representative each), emitted in ascending (c, d, w) order — the
// same value set the reference O(G log G + G·F) prune keeps, which the
// property tests in prune_test.go verify against an O(G²) dominance
// filter on both paths. Delays are assumed finite: an empty cell holds
// +Inf.
//
// Representatives are fixed by value order alone: within a bucket the
// lower scheme wins an exact tie, then the option generated first (its
// parent comes first in the downstream level's (c, d, w) order), and
// across buckets the merge keeps the no-repeater bucket's, then the
// narrowest repeater's. None of that depends on which other options a
// sweep generated, so a bounded solve, which generates the subset of the
// unbounded front sweep's options that meet its target, keeps the same
// representative of every value both keep.

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

// onLattice reports whether a width-aware uncoupled level goes on the
// width lattice of step g (0: the library has none). Its n downstream
// widths span [lo, hi] and wMax is the widest library width, so its
// options occupy the lattice extent (hi − lo + wMax)/g; the level
// qualifies when that is no larger than n, which keeps the table rows and
// the skyline no costlier than generation.
func onLattice(lo, hi, wMax, g float64, n int) bool {
	return g > 0 && (hi-lo+wMax)/g <= float64(n)
}

// pruner holds the per-level prune scratch. Buffers are retained across
// levels and solves.
type pruner struct {
	// runs holds the level's sorted runs back to back: first the
	// no-repeater bucket, which the solver appends during generation, then
	// each repeater bucket's front as stage 1 emits it.
	runs []option
	// cells is the class table, row-major with one row of len(coW) cells
	// per class. Off the lattice (g == 0) cls is the level's width
	// classes, ascending and distinct, one per row. On it, row k is the
	// lattice point base + k·g, and minD is the stage-2 skyline over the
	// same index.
	cls     []float64
	g, base float64
	cells   []cell
	minD    []float64
	// fills counts the skyline entries kept options lowered on the
	// lattice, summed over the pruner's life (a work figure the front
	// kernel benchmarks report per kept option).
	fills int
	// coW is each repeater bucket's constant load Co·w_i.
	coW    []float64
	frontD []float64 // off-lattice front, delay coordinates (ascending)
	frontW []float64 // off-lattice front, width coordinates (descending)
}

// reset prepares the pruner for a new level off the lattice. cls holds
// the downstream width classes in any order, duplicates allowed; reset
// sorts and dedupes it in place and keeps it. coW holds the repeater
// buckets' loads.
func (p *pruner) reset(cls, coW []float64) {
	slices.Sort(cls)
	p.cls = slices.Compact(cls)
	p.g = 0
	p.empty(len(p.cls), coW)
}

// resetLattice prepares the pruner for a new level on the width lattice
// of step g: its classes lie on lo + k·g within [lo, hi], so its options'
// widths lie on the same lattice within [lo, hi+wMax]. Every skyline
// entry starts at +Inf.
func (p *pruner) resetLattice(lo, hi, wMax, g float64, coW []float64) {
	p.g, p.base = g, lo
	p.empty(int((hi-lo)/g)+1, coW)
	n := int((hi-lo+wMax)/g) + 1
	p.minD = slices.Grow(p.minD[:0], n)[:n]
	for i := range p.minD {
		p.minD[i] = math.Inf(1)
	}
}

// empty sizes the class table to rows rows of len(coW) empty cells and
// empties the no-repeater bucket.
func (p *pruner) empty(rows int, coW []float64) {
	p.coW = coW
	n := rows * len(coW)
	p.cells = slices.Grow(p.cells[:0], n)[:n]
	for i := range p.cells {
		p.cells[i] = cell{d: math.Inf(1), next: -1}
	}
	p.runs = p.runs[:0]
}

// row returns the table row of width class w, which must be one of the
// classes reset was given, or lie on resetLattice's lattice.
func (p *pruner) row(w float64) []cell {
	nw := len(p.coW)
	if p.g > 0 {
		k := int((w - p.base) / p.g)
		return p.cells[k*nw : k*nw+nw]
	}
	lo, hi := 0, len(p.cls)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.cls[mid] < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return p.cells[lo*nw : lo*nw+nw]
}

// cmpKey orders options by (c, d, w) ascending — (c, d) only when the
// width coordinate is ignored (2-D mode). Width-blindness is a comparison
// concern: the options' real widths are never modified. It is stage 2's
// merge order, under which exact value ties keep their run order.
func cmpKey(a, b *option, threeD bool) int {
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
	}
	return 0
}

// cmpOpt is cmpKey with exact value ties broken by scheme, plain first,
// which is what makes a zero-coupling duplicate kill keep the plain
// option; uncoupled solves carry sch == 0 everywhere and are unaffected.
// It orders the no-repeater bucket.
func cmpOpt(a, b *option, threeD bool) int {
	if c := cmpKey(a, b, threeD); c != 0 {
		return c
	}
	switch {
	case a.sch < b.sch:
		return -1
	case a.sch > b.sch:
		return 1
	}
	return 0
}

// reduceTable appends each repeater bucket's (d, w) front to runs, d
// ascending and w strictly descending, and reports whether the fronts,
// in bucket order, form one run in cmpKey order. The scan walks a
// bucket's column with widths ascending and keeps the survivors in that
// order, so each front is reversed once at the end. Each front has the
// constant load Co·w_i, so the fronts concatenate in order whenever the
// library's loads ascend; two widths whose Co·w round equal interleave.
func (p *pruner) reduceTable(threeD bool) (sorted bool) {
	nw := len(p.coW)
	sorted = true
	prev := -1 // the last option of the previous non-empty front
	for wi, c := range p.coW {
		start := len(p.runs)
		minD := math.Inf(1)
		for j := wi; j < len(p.cells); j += nw {
			e := &p.cells[j]
			if e.next < 0 {
				continue
			}
			if last := len(p.runs) - 1; last >= start && p.runs[last].w == e.w {
				// Two classes rounded to one width (off the lattice only):
				// the cells are rival representatives of the same width, so
				// the faster stays.
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
			if prev >= 0 && cmpKey(&p.runs[prev], &p.runs[start], threeD) > 0 {
				sorted = false
			}
			prev = len(p.runs) - 1
		}
	}
	return sorted
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
// any option. A level reset onto the lattice is always pruned with
// threeD.
func (p *pruner) pruneInto(dst []option, threeD bool) []option {
	// Stage 1: sort the no-repeater bucket if generation broke its
	// inherited order, and read every repeater bucket's front off the
	// table. The re-sorts are stable, so exact ties keep generation order
	// (the table's "first generated" rule) and, across repeater fronts,
	// bucket order.
	n0 := len(p.runs)
	for i := 1; i < n0; i++ {
		if cmpOpt(&p.runs[i-1], &p.runs[i], threeD) > 0 {
			slices.SortStableFunc(p.runs[:n0], func(a, b option) int { return cmpOpt(&a, &b, threeD) })
			break
		}
	}
	if !p.reduceTable(threeD) {
		slices.SortStableFunc(p.runs[n0:], func(a, b option) int { return cmpKey(&a, &b, threeD) })
	}

	// Stage 2: a two-way merge of the no-repeater run and the repeater
	// run in cmpKey order, ties to the no-repeater run, through a single
	// incremental skyline: in 2-D the least kept delay, in 3-D the
	// lattice's prefix minimum or the float (d, w) front off it.
	switch {
	case p.g > 0:
		return p.mergeLattice(dst, n0)
	case !threeD:
		start := len(dst)
		minD := 0.0
		for i, j := 0, n0; i < n0 || j < len(p.runs); {
			o := p.next(&i, &j, n0, false)
			if len(dst) > start && minD <= o.d {
				continue // dominated (or a duplicate of a kept value)
			}
			dst = append(dst, *o)
			minD = o.d
		}
		return dst
	}
	p.frontD = p.frontD[:0]
	p.frontW = p.frontW[:0]
	for i, j := 0, n0; i < n0 || j < len(p.runs); {
		o := p.next(&i, &j, n0, true)

		// front holds kept (d, w) pairs sorted by d ascending with
		// strictly decreasing w; every entry's c ≤ o.c by merge order, so
		// o is dominated iff some entry has d ≤ o.d and w ≤ o.w.
		ow := o.w
		ins := p.frontIdx(o.d)
		if ins > 0 && p.frontW[ins-1] <= ow {
			continue // dominated (or a duplicate of a kept value)
		}
		dst = append(dst, *o)
		// Insert (o.d, ow) at its position; drop entries it dominates
		// (d ≥ o.d, w ≥ ow).
		end := ins
		for end < len(p.frontW) && p.frontW[end] >= ow {
			end++
		}
		if end == ins {
			p.frontD = append(p.frontD, 0)
			copy(p.frontD[ins+1:], p.frontD[ins:])
			p.frontD[ins] = o.d
			p.frontW = append(p.frontW, 0)
			copy(p.frontW[ins+1:], p.frontW[ins:])
			p.frontW[ins] = ow
		} else {
			p.frontD[ins] = o.d
			p.frontD = append(p.frontD[:ins+1], p.frontD[end:]...)
			p.frontW[ins] = ow
			p.frontW = append(p.frontW[:ins+1], p.frontW[end:]...)
		}
	}
	return dst
}

// next returns the next option of stage 2's two-way merge of the
// no-repeater run runs[:n0] (cursor i) and the repeater run runs[n0:]
// (cursor j), advancing its cursor. Exact ties go to the no-repeater
// run. The option stays in runs, so the pointer is good until the next
// level resets them.
func (p *pruner) next(i, j *int, n0 int, threeD bool) *option {
	if *j == len(p.runs) || (*i < n0 && cmpKey(&p.runs[*i], &p.runs[*j], threeD) <= 0) {
		*i++
		return &p.runs[*i-1]
	}
	*j++
	return &p.runs[*j-1]
}

// mergeLattice is stage 2 on the width lattice: the merge's skyline is
// minD, where minD[k] is the least kept delay at width index ≤ k. Every
// kept option's c ≤ o.c by merge order, so o is dominated iff
// minD[k(o.w)] ≤ o.d; a kept o lowers minD from k(o.w) up to the first
// entry already ≤ o.d, past which every entry is.
func (p *pruner) mergeLattice(dst []option, n0 int) []option {
	fills := 0
	for i, j := 0, n0; i < n0 || j < len(p.runs); {
		o := p.next(&i, &j, n0, true)
		k := int((o.w - p.base) / p.g)
		if p.minD[k] <= o.d {
			continue // dominated (or a duplicate of a kept value)
		}
		dst = append(dst, *o)
		for ; k < len(p.minD) && p.minD[k] > o.d; k++ {
			p.minD[k] = o.d
			fills++
		}
	}
	p.fills += fills
	return dst
}
