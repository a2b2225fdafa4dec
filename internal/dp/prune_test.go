package dp

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/rip-eda/rip/internal/ordertest"
	"github.com/rip-eda/rip/internal/repeater"
)

// dominates reports 3-D (or 2-D, width-blind) dominance of a over b.
func dominates(a, b option, threeD bool) bool {
	if a.c > b.c || a.d > b.d {
		return false
	}
	if threeD && a.w > b.w {
		return false
	}
	return true
}

// optKey is an option's value triple; in 2-D mode the width coordinate is
// collapsed so value identity matches the pruner's comparison semantics.
type optKey struct{ c, d, w float64 }

func keyOf(o option, threeD bool) optKey {
	k := optKey{c: o.c, d: o.d, w: o.w}
	if !threeD {
		k.w = 0
	}
	return k
}

// referenceFront is the O(n²) oracle: the set of distinct non-dominated
// value triples under the mode's dominance rule.
func referenceFront(opts []option, threeD bool) map[optKey]bool {
	front := make(map[optKey]bool)
	for _, o := range opts {
		dominated := false
		for _, p := range opts {
			if keyOf(p, threeD) != keyOf(o, threeD) && dominates(p, o, threeD) {
				dominated = true
				break
			}
		}
		if !dominated {
			front[keyOf(o, threeD)] = true
		}
	}
	return front
}

// repOpt is one generated repeater option as the solver files it: the
// downstream width class it extends, its library index, delay, scheme and
// parent link. Its width is cls + widths[wi] and its load coW[wi].
type repOpt struct {
	cls  float64
	wi   int
	d    float64
	sch  uint8
	next int32
}

// genLevel is one level's generated set in the solver's shape: the
// no-repeater bucket, the library, width classes that generate nothing
// (the downstream options every repeater of which was killed), and the
// repeater options in generation order — next ascending, as runLevels
// walks the downstream arena.
type genLevel struct {
	b0          []option
	widths, coW []float64
	cls         []float64
	reps        []repOpt
}

// buckets expands the level into plain options for the oracle: bucket 0
// is the no-repeater bucket, bucket wi+1 holds library width wi's options.
func (l genLevel) buckets() [][]option {
	out := make([][]option, 1+len(l.widths))
	out[0] = l.b0
	for _, r := range l.reps {
		out[1+r.wi] = append(out[1+r.wi], option{
			c: l.coW[r.wi], d: r.d, w: r.cls + l.widths[r.wi],
			act: int32(r.wi), next: r.next, sch: r.sch,
		})
	}
	return out
}

// prune runs the level through the pruner the way runLevels does off the
// lattice: the classes into the sorted table (the single class in 2-D
// mode), the no-repeater bucket into runs, and each repeater option into
// its cell.
func (l genLevel) prune(threeD bool) []option {
	cls := []float64{0}
	if threeD {
		cls = append([]float64(nil), l.cls...)
		for _, r := range l.reps {
			cls = append(cls, r.cls)
		}
	}
	var p pruner
	p.reset(cls, l.coW)
	return l.load(&p, threeD).pruneInto(nil, threeD)
}

// load files the level into a reset pruner: the no-repeater bucket into
// runs and each repeater option into its cell.
func (l genLevel) load(p *pruner, threeD bool) *pruner {
	p.runs = append(p.runs, l.b0...)
	row := p.cells
	for _, r := range l.reps {
		if threeD {
			row = p.row(r.cls)
		}
		row[r.wi].offer(r.d, r.cls+l.widths[r.wi], r.next, r.sch)
	}
	return p
}

// lattice returns the width lattice an integer-class level lies on: its
// narrowest and widest classes (the no-repeater options' widths count, as
// they do in the solver), its widest library width, and the gcd of the
// library widths and every class's offset from the narrowest. ok is
// false when a class or a library width is not a small nonnegative
// integer.
func (l genLevel) lattice() (lo, hi, wMax, g float64, ok bool) {
	var cls []float64
	for _, o := range l.b0 {
		cls = append(cls, o.w)
	}
	cls = append(cls, l.cls...)
	for _, r := range l.reps {
		cls = append(cls, r.cls)
	}
	if len(cls) == 0 {
		return 0, 0, 0, 0, false
	}
	lo, hi = slices.Min(cls), slices.Max(cls)
	if len(l.widths) > 0 {
		wMax = slices.Max(l.widths)
	}
	gi := 0
	for i, x := range append(cls, l.widths...) {
		if x < 0 || x > repeater.LatticeMaxWidth || x != math.Trunc(x) {
			return 0, 0, 0, 0, false
		}
		if i < len(cls) {
			x -= lo
		}
		for a := int(x); a != 0; {
			gi, a = a, gi%a
		}
	}
	return lo, hi, wMax, float64(max(gi, 1)), true
}

// pruneLattice runs an integer-class level through the width lattice the
// way runLevels runs an uncoupled 3-D level that passes onLattice (the
// guard is a cost choice, so it is not consulted). ok is false when the
// level has no lattice.
func (l genLevel) pruneLattice() (kept []option, p *pruner, ok bool) {
	lo, hi, wMax, g, ok := l.lattice()
	if !ok {
		return nil, nil, false
	}
	p = new(pruner)
	p.resetLattice(lo, hi, wMax, g, l.coW)
	return l.load(p, true).pruneInto(nil, true), p, true
}

// checkPrune feeds a generated level through the sorted class table and,
// when the level is 3-D and integer-class, through the width lattice too.
// It verifies each path keeps exactly the Pareto-optimal value set, one
// representative per value, emitted in ascending (c, d, w) order, and
// that the two paths keep the same options. Representatives follow the
// tie rules: a value comes from the lowest bucket holding it (the merge
// breaks ties by bucket order); within the no-repeater bucket it has the
// lowest scheme, and within a repeater bucket the lowest scheme, then the
// first generated.
func checkPrune(t *testing.T, l genLevel, threeD bool) {
	t.Helper()
	sorted := l.prune(threeD)
	checkKept(t, l, threeD, "sorted", sorted)
	if !threeD {
		return
	}
	if lat, _, ok := l.pruneLattice(); ok {
		checkKept(t, l, threeD, "lattice", lat)
		if !slices.Equal(lat, sorted) {
			t.Fatalf("lattice kept %+v, sorted path kept %+v", lat, sorted)
		}
	}
}

// checkKept judges one path's kept set against the O(n²) oracle and the
// tie rules.
func checkKept(t *testing.T, l genLevel, threeD bool, path string, kept []option) {
	t.Helper()
	buckets := l.buckets()
	var all []option
	for _, b := range buckets {
		all = append(all, b...)
	}
	want := referenceFront(all, threeD)

	got := make(map[optKey]bool, len(kept))
	for _, o := range kept {
		k := keyOf(o, threeD)
		if got[k] {
			t.Fatalf("%s: duplicate kept value %+v (threeD=%v)", path, k, threeD)
		}
		got[k] = true
	}
	if len(got) != len(want) {
		t.Fatalf("%s: kept %d distinct values, want %d (threeD=%v)\nkept: %v\nwant: %v",
			path, len(got), len(want), threeD, got, want)
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("%s: missing Pareto-optimal value %+v (threeD=%v)", path, k, threeD)
		}
	}
	for i := 1; i < len(kept); i++ {
		if cmpOpt(&kept[i-1], &kept[i], threeD) > 0 {
			t.Fatalf("%s: kept output not sorted at %d: %+v > %+v", path, i, kept[i-1], kept[i])
		}
	}
	for _, o := range kept {
		var rep *option
		for bi, b := range buckets {
			for i := range b {
				c := &b[i]
				if keyOf(*c, threeD) != keyOf(o, threeD) {
					continue
				}
				if rep == nil || c.sch < rep.sch || (bi > 0 && c.sch == rep.sch && c.next < rep.next) {
					rep = c
				}
			}
			if rep != nil {
				break
			}
		}
		if o.act != rep.act || o.sch != rep.sch || (o.act >= 0 && o.next != rep.next) {
			t.Fatalf("%s: kept %+v, but the tie rule picks %+v (threeD=%v)", path, o, *rep, threeD)
		}
		// Kept options are inputs: 2-D pruning must not rewrite widths.
		if o.w != rep.w || o.d != rep.d || o.c != rep.c {
			t.Fatalf("%s: kept option %+v is not one of the inputs (%+v)", path, o, *rep)
		}
	}
}

// Level kinds randomLevel draws.
const (
	// realLevel draws two-decimal coordinates: few exact ties.
	realLevel = iota
	// tieLevel draws every coordinate from a tiny integer grid, so
	// duplicates, shared load classes and equal delays are common.
	tieLevel
	// latticeLevel draws classes and library widths on an integer lattice
	// of step 1, 2 or 10 at an offset, with tie-heavy delays and loads:
	// the levels the width lattice serves.
	latticeLevel
)

// randomLevel builds a generated level the way the solver does: bucket 0
// with arbitrary (c, d) and widths drawn like classes, each repeater
// bucket pinned to a constant c, repeater widths class + library width.
// On real-valued and tie-heavy levels some classes are nudged up one ulp,
// so that adjacent classes round to the same post-repeater width.
func randomLevel(rng *rand.Rand, kind int) genLevel {
	var step, off float64
	if kind == latticeLevel {
		step = []float64{1, 2, 10}[rng.Intn(3)]
		off = step * float64(rng.Intn(3))
	}
	draw := func() float64 {
		if kind == realLevel {
			return math.Round(rng.Float64()*1000) / 100
		}
		return float64(rng.Intn(4))
	}
	drawCls := func() float64 {
		if kind == latticeLevel {
			return off + step*float64(rng.Intn(8))
		}
		return draw()
	}
	drawWidth := func() float64 {
		if kind == latticeLevel {
			return step * float64(1+rng.Intn(4))
		}
		return draw()
	}
	var l genLevel
	for i := rng.Intn(12); i > 0; i-- {
		l.b0 = append(l.b0, option{c: draw(), d: draw(), w: drawCls(), act: -1, next: int32(i), sch: uint8(rng.Intn(3))})
	}
	for wi := rng.Intn(5); wi > 0; wi-- {
		l.widths = append(l.widths, drawWidth())
		l.coW = append(l.coW, draw())
	}
	for i := rng.Intn(4); i > 0; i-- {
		l.cls = append(l.cls, drawCls())
	}
	if len(l.widths) == 0 {
		return l
	}
	n := rng.Intn(40)
	for i := 0; i < n; i++ {
		cls := drawCls()
		if kind != latticeLevel && rng.Intn(6) == 0 {
			cls = math.Nextafter(cls, math.Inf(1))
		}
		l.reps = append(l.reps, repOpt{
			cls: cls, wi: rng.Intn(len(l.widths)), d: draw(),
			sch: uint8(rng.Intn(3)), next: int32(i),
		})
	}
	return l
}

// TestPruneProperty cross-checks the class-table prune against the O(n²)
// dominance oracle on thousands of randomized levels, in both modes,
// alternating real-valued and tie-heavy levels, and then on lattice
// levels; checkPrune runs every integer-class 3-D level through the width
// lattice as well.
func TestPruneProperty(t *testing.T) {
	trials := 3000
	if testing.Short() {
		trials = 500
	}
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < trials; trial++ {
		kind := realLevel
		if trial%2 == 0 {
			kind = tieLevel
		}
		l := randomLevel(rng, kind)
		checkPrune(t, l, true)
		checkPrune(t, l, false)
	}
	rng = rand.New(rand.NewSource(18))
	lattice := 0
	for trial := 0; trial < trials/2; trial++ {
		l := randomLevel(rng, latticeLevel)
		if _, _, _, _, ok := l.lattice(); ok {
			lattice++
		}
		checkPrune(t, l, true)
		checkPrune(t, l, false)
	}
	if lattice < trials/6 {
		t.Fatalf("only %d of %d lattice levels ran through the lattice", lattice, trials/2)
	}
}

// TestPruneUnsortedBucketZero covers the rounding-collision guard: bucket 0
// normally inherits sorted order from the downstream level, but the pruner
// must stay exact when it does not.
func TestPruneUnsortedBucketZero(t *testing.T) {
	l := genLevel{
		b0: []option{
			{c: 3, d: 1, w: 2, act: -1},
			{c: 1, d: 5, w: 1, act: -1},
			{c: 2, d: 2, w: 9, act: -1},
			{c: 1, d: 5, w: 1, act: -1}, // duplicate
			{c: 3, d: 1, w: 2, act: -1}, // duplicate
		},
		widths: []float64{1},
		coW:    []float64{2},
		reps: []repOpt{
			{cls: 3, d: 3, next: 0}, // (c, d, w) = (2, 3, 4)
			{cls: 7, d: 1, next: 1}, // (2, 1, 8)
			{cls: 1, d: 3, next: 2}, // (2, 3, 2)
		},
	}
	checkPrune(t, l, true)
	checkPrune(t, l, false)
}

// TestPruneRoundingCollision pins the case the class scan has to merge by
// hand: two distinct classes whose post-repeater widths round to the same
// float. 1 and 1+2⁻⁵² plus a repeater of width 1 both give exactly 2.0, so
// the two cells hold rival representatives of one width and the faster
// must win, whichever class it sits in, with or without a narrower class
// that dominates the slower cell.
func TestPruneRoundingCollision(t *testing.T) {
	lo, hi := 1.0, 1+0x1p-52
	if lo == hi || lo+1 != 2 || hi+1 != 2 {
		t.Fatal("test bug: the two classes must differ and round to one width")
	}
	for _, tc := range []struct {
		name string
		reps []repOpt
		want repOpt // the representative kept at width 2
	}{
		{"faster in the wider class", []repOpt{{cls: lo, d: 5, next: 0}, {cls: hi, d: 3, next: 1}}, repOpt{d: 3, next: 1}},
		{"faster in the narrower class", []repOpt{{cls: hi, d: 5, next: 0}, {cls: lo, d: 3, next: 1}}, repOpt{d: 3, next: 1}},
		{"tie goes to the lower scheme", []repOpt{{cls: lo, d: 3, sch: 1, next: 0}, {cls: hi, d: 3, next: 1}}, repOpt{d: 3, next: 1}},
		{"tie goes to the first generated", []repOpt{{cls: hi, d: 3, next: 0}, {cls: lo, d: 3, next: 1}}, repOpt{d: 3, next: 0}},
	} {
		for _, narrower := range []bool{false, true} {
			l := genLevel{widths: []float64{1}, coW: []float64{4}, reps: tc.reps}
			if narrower {
				// (d, w) = (4, 1.5) dominates every d = 5 cell above it.
				l.reps = append(l.reps, repOpt{cls: 0.5, d: 4, next: 9})
			}
			checkPrune(t, l, true)
			var at2 []option
			for _, o := range l.prune(true) {
				if o.w == 2 {
					at2 = append(at2, o)
				}
			}
			if len(at2) != 1 || at2[0].d != tc.want.d || at2[0].next != tc.want.next {
				t.Fatalf("%s (narrower class %v): kept %+v at width 2, want d=%v next=%d",
					tc.name, narrower, at2, tc.want.d, tc.want.next)
			}
		}
	}
}

// TestPruneTieFirstGenerated pins the table's tie rule on exact (d, w)
// ties inside one cell and across rounding-collided cells: the lower
// scheme wins, then the option generated first. A bounded solve generates
// a subset of the unbounded front sweep's options, so this is what lets
// both keep the same representative of every value they share.
func TestPruneTieFirstGenerated(t *testing.T) {
	for _, tc := range []struct {
		name     string
		reps     []repOpt
		wantNext int32
		wantSch  uint8
	}{
		{"same cell, same scheme", []repOpt{{cls: 1, d: 3, next: 0}, {cls: 1, d: 3, next: 1}}, 0, 0},
		{"same cell, later and lower scheme", []repOpt{{cls: 1, d: 3, sch: 2, next: 0}, {cls: 1, d: 3, sch: 1, next: 1}, {cls: 1, d: 3, sch: 1, next: 2}}, 1, 1},
		{"collided cells, first generated in the wider class", []repOpt{{cls: 1 + 0x1p-52, d: 3, next: 0}, {cls: 1, d: 3, next: 1}}, 0, 0},
	} {
		for _, threeD := range []bool{true, false} {
			l := genLevel{widths: []float64{1}, coW: []float64{4}, reps: tc.reps}
			checkPrune(t, l, threeD)
			kept := l.prune(threeD)
			if len(kept) != 1 || kept[0].next != tc.wantNext || kept[0].sch != tc.wantSch {
				t.Fatalf("%s (threeD=%v): kept %+v, want next=%d sch=%d", tc.name, threeD, kept, tc.wantNext, tc.wantSch)
			}
		}
	}
}

// FuzzPrune decodes arbitrary bytes into a generated level and checks the
// class-table prune against the oracle — the fuzz rendering of
// TestPruneProperty. Classes are small integers unless nudged an ulp, so
// most 3-D inputs run through the width lattice too.
func FuzzPrune(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(2), true)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}, uint8(3), false)
	f.Add([]byte{255, 1, 128, 7, 3, 3, 3, 3, 9, 0, 64, 2, 2, 2, 200, 90, 13, 5}, uint8(4), true)
	f.Add([]byte{1, 3, 2, 2, 3, 2, 3, 3, 5, 1, 3, 7, 0, 3, 5, 4, 2, 2}, uint8(3), true)
	f.Fuzz(func(t *testing.T, data []byte, nb uint8, threeD bool) {
		var l genLevel
		for wi := 0; wi < int(nb%5); wi++ {
			// Small integer widths, so classes a ulp apart collide.
			l.widths = append(l.widths, float64(1+wi%3))
			l.coW = append(l.coW, float64((wi+1)*7%5))
		}
		for i := 0; i+3 <= len(data) && i < 32*3; i += 3 {
			bi := int(data[i]) % (1 + len(l.widths))
			// Coordinates on a small grid so dominance ties are common.
			d := float64(data[i+1] % 8)
			x := float64(data[i+2] % 8)
			sch := (data[i] >> 5) % 3
			next := int32(i / 3)
			if bi == 0 {
				c := float64((int(data[i+1])*256 + int(data[i+2])) % 8)
				l.b0 = append(l.b0, option{c: c, d: d, w: x, act: -1, next: next, sch: sch})
				continue
			}
			if data[i+2]&0x80 != 0 {
				x = math.Nextafter(x, math.Inf(1))
			}
			l.reps = append(l.reps, repOpt{cls: x, wi: bi - 1, d: d, sch: sch, next: next})
		}
		checkPrune(t, l, threeD)
	})
}

// TestPruneLatticeTies pins tie-heavy levels on the width lattice, each
// run through both paths by checkPrune: equal delays across classes, and
// a class all of whose repeater options were killed, which still widens
// the lattice and holds a no-repeater option.
func TestPruneLatticeTies(t *testing.T) {
	for _, tc := range []struct {
		name string
		l    genLevel
	}{
		{"equal delays across classes", genLevel{
			b0:     []option{{c: 1, d: 2, w: 20, act: -1, next: 0}, {c: 1, d: 2, w: 40, act: -1, next: 1}},
			widths: []float64{10, 30}, coW: []float64{1, 3},
			reps: []repOpt{
				{cls: 20, wi: 0, d: 2, next: 0}, {cls: 40, wi: 0, d: 2, next: 1},
				{cls: 20, wi: 1, d: 2, next: 0}, {cls: 40, wi: 1, d: 2, next: 1},
				{cls: 30, wi: 0, d: 2, sch: 1, next: 2}, {cls: 30, wi: 1, d: 1, next: 2},
			},
		}},
		{"a class whose repeater options were all killed", genLevel{
			b0:     []option{{c: 1, d: 1, w: 0, act: -1, next: 0}, {c: 2, d: 3, w: 50, act: -1, next: 1}, {c: 2, d: 0, w: 90, act: -1, next: 2}},
			widths: []float64{10, 40}, coW: []float64{1, 4},
			cls: []float64{50, 90},
			reps: []repOpt{
				{cls: 0, wi: 0, d: 2, next: 0}, {cls: 0, wi: 1, d: 2, next: 0},
				{cls: 90, wi: 0, d: 2, next: 2}, {cls: 90, wi: 1, d: 1, next: 2},
			},
		}},
		{"duplicates across buckets", genLevel{
			b0:     []option{{c: 1, d: 2, w: 30, act: -1, next: 0}, {c: 1, d: 2, w: 30, act: -1, sch: 1, next: 1}},
			widths: []float64{10, 20}, coW: []float64{1, 1},
			reps: []repOpt{
				{cls: 20, wi: 0, d: 2, next: 0}, {cls: 10, wi: 1, d: 2, next: 1},
				{cls: 10, wi: 1, d: 2, next: 2}, {cls: 0, wi: 0, d: 3, next: 3},
			},
		}},
	} {
		if _, _, ok := tc.l.pruneLattice(); !ok {
			t.Fatalf("%s: test bug: the level must lie on a lattice", tc.name)
		}
		checkPrune(t, tc.l, true)
	}
}

// TestLatticeFillStopsAtEqualDelay pins the skyline's forward fill: a kept
// option lowers the prefix minimum from its width index up to the first
// entry already ≤ its delay, and no further. Two options of delay 3 reach
// the skyline in merge order: A at width 50 fills indices 3–5, then B at
// width 20 (higher load, so A cannot dominate it) fills 0–2 and stops at
// A's entry.
func TestLatticeFillStopsAtEqualDelay(t *testing.T) {
	l := genLevel{
		b0: []option{
			{c: 1, d: 3, w: 50, act: -1, next: 0}, // A
			{c: 2, d: 3, w: 20, act: -1, next: 1}, // B
		},
		widths: []float64{20}, coW: []float64{9},
	}
	kept, p, ok := l.pruneLattice()
	if !ok {
		t.Fatal("test bug: the level must lie on a lattice")
	}
	checkPrune(t, l, true)
	if len(kept) != 2 {
		t.Fatalf("kept %+v, want both options", kept)
	}
	if want := []float64{3, 3, 3, 3, 3, 3}; !slices.Equal(p.minD, want) {
		t.Fatalf("skyline %v, want %v", p.minD, want)
	}
	if p.fills != 6 {
		t.Fatalf("the fill lowered %d entries, want 6: each entry once", p.fills)
	}
}

// TestOnLatticeGuard pins the lattice guard at its boundary: classes
// spanning [20, 100] on a 10u lattice with a 30u widest repeater occupy
// the extent (100 − 20 + 30)/10 = 11, so the level goes on the lattice
// from 11 downstream options up and sorts its classes below that.
func TestOnLatticeGuard(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want bool
	}{{1, false}, {10, false}, {11, true}, {12, true}} {
		if got := onLattice(20, 100, 30, 10, tc.n); got != tc.want {
			t.Fatalf("onLattice with %d downstream options = %v, want %v", tc.n, got, tc.want)
		}
	}
	if onLattice(0, 0, 0, 0, 100) {
		t.Fatal("a library without a lattice step went on the lattice")
	}
}

// TestLatticeStep pins which libraries have a width lattice and its step.
func TestLatticeStep(t *testing.T) {
	for _, tc := range []struct {
		widths []float64
		want   float64
	}{
		{[]float64{10, 50, 90, 130, 170, 210, 250, 290, 330, 370}, 10}, // Range(10, 400, 40)
		{[]float64{7, 400}, 1},
		{[]float64{11, 53, 97, 131, 173, 211, 257, 293, 331, 397}, 1},
		{[]float64{60, 120, 180}, 60},
		{[]float64{repeater.LatticeMaxWidth}, repeater.LatticeMaxWidth},
		{[]float64{10, 12.5}, 0},
		{[]float64{0.5}, 0},
		{[]float64{10, repeater.LatticeMaxWidth + 1}, 0},
		{[]float64{10, math.Inf(1)}, 0},
		{[]float64{10, math.NaN()}, 0},
	} {
		// A width list no library accepts has no lattice either.
		got := 0.0
		if lib, err := repeater.NewLibrary(tc.widths); err == nil {
			got = lib.LatticeStep()
		}
		if got != tc.want {
			t.Fatalf("LatticeStep(%v) = %v, want %v", tc.widths, got, tc.want)
		}
	}
}

// TestOrdersAreStrictWeak checks every ordering the line DP sorts or
// merges by — cmpOpt in both modes, stage 2's two-way merge order cmpKey
// in both modes and the front sweep's cmpRoot — on tie-heavy samples
// with signed zeros.
func TestOrdersAreStrictWeak(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 10; trial++ {
		var opts []option
		var roots []frontRoot
		for i := 0; i < 40; i++ {
			opts = append(opts, option{
				c: ordertest.Value(rng), d: ordertest.Value(rng), w: ordertest.Value(rng),
				act: -1, next: int32(i), sch: uint8(rng.Intn(3)),
			})
			roots = append(roots, frontRoot{
				total: ordertest.Value(rng), w: ordertest.Value(rng),
				idx: int32(rng.Intn(4)), sch: uint8(rng.Intn(3)),
			})
		}
		for _, threeD := range []bool{true, false} {
			ordertest.Cmp(t, "cmpOpt", opts, func(a, b option) int { return cmpOpt(&a, &b, threeD) })
			ordertest.Cmp(t, "cmpKey", opts, func(a, b option) int { return cmpKey(&a, &b, threeD) })
		}
		ordertest.Cmp(t, "cmpRoot", roots, cmpRoot)
	}
}
