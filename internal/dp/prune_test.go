package dp

import (
	"math"
	"math/rand"
	"testing"
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

// prune runs the level through the pruner the way runLevels does: the
// classes into the table (the single class in 2-D mode), the no-repeater
// bucket into runs, and each repeater option into its cell.
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
	p.runs = append(p.runs, l.b0...)
	row := p.cells
	for _, r := range l.reps {
		if threeD {
			row = p.row(r.cls)
		}
		row[r.wi].offer(r.d, r.cls+l.widths[r.wi], r.next, r.sch)
	}
	return p.pruneInto(nil, threeD)
}

// checkPrune feeds a generated level through the class table and verifies
// the kept set is exactly the Pareto-optimal value set, one representative
// per value, emitted in ascending (c, d, w) order. Representatives follow
// the tie rules: a value comes from the lowest bucket holding it (the
// merge breaks ties by bucket order); within the no-repeater bucket it has
// the lowest scheme, and within a repeater bucket the lowest scheme, then
// the first generated.
func checkPrune(t *testing.T, l genLevel, threeD bool) {
	t.Helper()
	buckets := l.buckets()
	var all []option
	for _, b := range buckets {
		all = append(all, b...)
	}
	want := referenceFront(all, threeD)

	kept := l.prune(threeD)

	got := make(map[optKey]bool, len(kept))
	for _, o := range kept {
		k := keyOf(o, threeD)
		if got[k] {
			t.Fatalf("duplicate kept value %+v (threeD=%v)", k, threeD)
		}
		got[k] = true
	}
	if len(got) != len(want) {
		t.Fatalf("kept %d distinct values, want %d (threeD=%v)\nkept: %v\nwant: %v",
			len(got), len(want), threeD, got, want)
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("missing Pareto-optimal value %+v (threeD=%v)", k, threeD)
		}
	}
	for i := 1; i < len(kept); i++ {
		if cmpOpt(&kept[i-1], &kept[i], threeD) > 0 {
			t.Fatalf("kept output not sorted at %d: %+v > %+v", i, kept[i-1], kept[i])
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
			t.Fatalf("kept %+v, but the tie rule picks %+v (threeD=%v)", o, *rep, threeD)
		}
		// Kept options are inputs: 2-D pruning must not rewrite widths.
		if o.w != rep.w || o.d != rep.d || o.c != rep.c {
			t.Fatalf("kept option %+v is not one of the inputs (%+v)", o, *rep)
		}
	}
}

// randomLevel builds a generated level the way the solver does: bucket 0
// with arbitrary (c, d, w), each repeater bucket pinned to a constant c,
// repeater widths class + library width. Tie-heavy mode draws every
// coordinate from a tiny integer grid so duplicates, shared load classes
// and equal delays are common; some classes are nudged up one ulp so
// that adjacent classes round to the same post-repeater width.
func randomLevel(rng *rand.Rand, tieHeavy bool) genLevel {
	draw := func() float64 {
		if tieHeavy {
			return float64(rng.Intn(4))
		}
		return math.Round(rng.Float64()*1000) / 100
	}
	var l genLevel
	for i := rng.Intn(12); i > 0; i-- {
		l.b0 = append(l.b0, option{c: draw(), d: draw(), w: draw(), act: -1, next: int32(i), sch: uint8(rng.Intn(3))})
	}
	for wi := rng.Intn(5); wi > 0; wi-- {
		l.widths = append(l.widths, draw())
		l.coW = append(l.coW, draw())
	}
	for i := rng.Intn(4); i > 0; i-- {
		l.cls = append(l.cls, draw())
	}
	if len(l.widths) == 0 {
		return l
	}
	n := rng.Intn(40)
	for i := 0; i < n; i++ {
		cls := draw()
		if rng.Intn(6) == 0 {
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
// dominance oracle on thousands of randomized levels, in both modes, with
// and without tie-heavy inputs.
func TestPruneProperty(t *testing.T) {
	trials := 3000
	if testing.Short() {
		trials = 500
	}
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < trials; trial++ {
		l := randomLevel(rng, trial%2 == 0)
		checkPrune(t, l, true)
		checkPrune(t, l, false)
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
// scheme wins, then the option generated first. The flat and the ladder
// sweeps generate different supersets of one front, so this is what lets
// them serve the same placement.
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
// TestPruneProperty.
func FuzzPrune(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(2), true)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}, uint8(3), false)
	f.Add([]byte{255, 1, 128, 7, 3, 3, 3, 3, 9, 0, 64, 2, 2, 2, 200, 90, 13, 5}, uint8(4), true)
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
