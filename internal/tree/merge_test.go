package tree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/rip-eda/rip/internal/repeater"
	"github.com/rip-eda/rip/internal/tech"
)

// mergeCase is one input of the sweep's merges: a node's base options and
// one child's options, each a pruned set as the sweep holds them (pruneS
// output: cmpSopt order, nothing dominated), the child's edge, and a
// buffer library with its unit constants.
type mergeCase struct {
	width        bool
	base, child  []sopt
	edgeR, edgeC float64
	widths       []float64
	ts           *tech.Technology
}

// prepare points s at the case's library: the lattice step of a library
// holding its widths and every option's nonzero width, which every width
// the case can form is a multiple of (the sweep's options only ever hold
// sums of library widths), and whether its buffered loads ascend.
func (m mergeCase) prepare(s *Solver) {
	s.widths = m.widths
	all := slices.Clone(m.widths)
	for _, o := range append(slices.Clone(m.base), m.child...) {
		if o.w != 0 {
			all = append(all, o.w)
		}
	}
	lib, err := repeater.NewLibrary(all)
	if err != nil {
		panic(err)
	}
	s.g = lib.LatticeStep()
	s.coSorted = true
	for wi := 1; wi < len(m.widths); wi++ {
		if !(m.ts.Co*m.widths[wi-1] < m.ts.Co*m.widths[wi]) {
			s.coSorted = false
		}
	}
}

// checkNodeMerge runs one child merge the way sweep does, as child slot 1
// of 2, and compares it with pruneS over the whole cross product in
// generation order. Each base option's child-choice region holds its
// index in slot 0, so a kept option's region names its representative:
// (base index, child index).
func checkNodeMerge(t *testing.T, name string, s *Solver, m mergeCase) {
	t.Helper()
	m.prepare(s)
	const stride, ci = 2, 1
	s.kidBuf = s.kidBuf[:0]
	s.cur = s.cur[:0]
	for bi, b := range m.base {
		b.kids = s.claimKids(stride)
		s.kidBuf[b.kids] = int32(bi)
		s.cur = append(s.cur, b)
	}
	var gen []sopt
	for bi, b := range m.base {
		for j, o := range m.child {
			p := sopt{c: o.c + m.edgeC, q: o.q - m.edgeR*(m.edgeC/2+o.c), w: o.w}
			gen = append(gen, sopt{c: b.c + p.c, q: math.Min(b.q, p.q), w: b.w + p.w, buf: int32(j), kids: int32(bi)})
		}
	}
	want := NewSolver().pruneS(gen, m.width)

	s.propagate(m.child, m.edgeR, m.edgeC, m.width)
	if m.width {
		s.mergeRuns(ci, stride)
	} else {
		s.mergeStaircase(ci, stride)
	}
	got := s.mrg
	if len(got) != len(want) {
		t.Fatalf("%s: merge kept %d options, the stable prune keeps %d\ngot:  %+v\nwant: %+v", name, len(got), len(want), got, want)
	}
	for i, o := range got {
		w := want[i]
		rep := [2]int32{s.kidBuf[o.kids], s.kidBuf[o.kids+ci]}
		if o.c != w.c || o.q != w.q || o.w != w.w || o.buf != -1 || rep != [2]int32{w.kids, w.buf} {
			t.Fatalf("%s: kept %d is (%v, %v, %v) from (base %d, child %d), the stable prune keeps (%v, %v, %v) from (base %d, child %d)",
				name, i, o.c, o.q, o.w, rep[0], rep[1], w.c, w.q, w.w, w.kids, w.buf)
		}
	}
}

// checkBufferSite runs buffer insertion at a site the way sweep does and
// compares it with pruneS over the base options plus every buffered
// option in generation order. Base options carry their index as kids, so
// a buffered option names its base option and library width.
func checkBufferSite(t *testing.T, name string, s *Solver, m mergeCase) {
	t.Helper()
	m.prepare(s)
	ts := m.ts
	s.cur = s.cur[:0]
	for bi, b := range m.base {
		b.buf, b.kids = -1, int32(bi)
		s.cur = append(s.cur, b)
	}
	gen := slices.Clone(s.cur)
	for _, b := range s.cur {
		for wi, wb := range m.widths {
			gen = append(gen, sopt{c: ts.Co * wb, q: b.q - (ts.Rs*ts.Cp + ts.Rs/wb*b.c), w: b.w + wb, buf: int32(wi), kids: b.kids})
		}
	}
	want := NewSolver().pruneS(gen, m.width)
	s.bufferSite(ts, m.width)
	if !slices.Equal(s.cur, want) {
		t.Fatalf("%s: buffer site kept\n%+v\nthe stable prune keeps\n%+v", name, s.cur, want)
	}
}

// mergeGrid is the coarse value grid merge inputs draw from, with the
// 1+2⁻⁵² neighbour of 1 that rounds together with it once summed.
var mergeGrid = []float64{0, 0.5, 1, 1 + 0x1p-52, 2, 3, 4}

// prunedSet prunes options drawn by draw into a set as the sweep holds
// it.
func prunedSet(n int, width bool, draw func(i int) sopt) []sopt {
	var opts []sopt
	for i := 0; i < n; i++ {
		opts = append(opts, draw(i))
	}
	return NewSolver().pruneS(opts, width)
}

// randomMergeCase draws a tie-heavy merge case: loads, required times and
// widths on mergeGrid (required times sometimes +Inf, the merge's
// starting base), a coarse library that sometimes repeats a buffered
// load, and an edge that is sometimes free.
func randomMergeCase(rng *rand.Rand) mergeCase {
	m := mergeCase{width: rng.Intn(2) == 0}
	pick := func() float64 { return mergeGrid[rng.Intn(len(mergeGrid))] }
	m.base = prunedSet(1+rng.Intn(8), m.width, func(int) sopt {
		q := pick() + float64(rng.Intn(3))
		if rng.Intn(10) == 0 {
			q = math.Inf(1)
		}
		return sopt{c: pick(), q: q, w: pick(), buf: -1, kids: -1}
	})
	m.child = prunedSet(1+rng.Intn(10), m.width, func(int) sopt {
		return sopt{c: pick() + 0.5, q: pick() + float64(rng.Intn(4)), w: pick(), buf: -1, kids: -1}
	})
	if rng.Intn(3) > 0 {
		m.edgeR, m.edgeC = float64(rng.Intn(3))*0.5, float64(rng.Intn(3))
	}
	for wi := 1 + rng.Intn(4); wi > 0; wi-- {
		m.widths = append(m.widths, float64(1+rng.Intn(4)))
	}
	slices.Sort(m.widths)
	if rng.Intn(4) > 0 {
		m.widths = slices.Compact(m.widths)
	}
	m.ts = &tech.Technology{Rs: 1, Co: []float64{1, 0.5, 2}[rng.Intn(3)], Cp: 0.5}
	return m
}

// TestMergesMatchStablePrune checks the sweep's node and buffer-site
// merges against a stable sort plus skyline over every generated option
// on thousands of tie-heavy cases in both width modes, through the float
// front and the width lattice.
func TestMergesMatchStablePrune(t *testing.T) {
	trials := 4000
	if testing.Short() {
		trials = 800
	}
	rng := rand.New(rand.NewSource(29))
	s := NewSolver()
	for trial := 0; trial < trials; trial++ {
		m := randomMergeCase(rng)
		checkNodeMerge(t, fmt.Sprintf("trial %d node", trial), s, m)
		checkBufferSite(t, fmt.Sprintf("trial %d buffer site", trial), s, m)
	}
}

// FuzzTreeMerge decodes arbitrary bytes into a merge case — loads,
// required times and widths on mergeGrid, edge and library on small
// grids — and checks the node merge and the buffer-site merge against a
// stable sort plus skyline over every generated option, with
// first-generated representatives. It is the fuzz rendering of
// TestMergesMatchStablePrune.
func FuzzTreeMerge(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, uint8(0x13), true)
	f.Add([]byte{2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3}, uint8(0x22), false)
	f.Add([]byte{3, 3, 2, 3, 3, 2, 4, 4, 1, 4, 4, 1, 2, 6, 0, 1, 5, 3}, uint8(0x45), true)
	f.Add([]byte{0, 6, 6, 1, 5, 5, 2, 4, 4, 3, 3, 3, 255, 0, 0}, uint8(0x71), false)
	f.Fuzz(func(t *testing.T, data []byte, lib uint8, width bool) {
		m := mergeCase{width: width, ts: &tech.Technology{Rs: 1, Co: float64(1+lib>>6) / 2, Cp: 0.5}}
		g := func(b byte) float64 { return mergeGrid[int(b)%len(mergeGrid)] }
		var base, child []sopt
		for i := 0; i+3 <= len(data) && i < 24*3; i += 3 {
			o := sopt{c: g(data[i]), q: g(data[i+1]) + float64(data[i+2]>>4&3), w: g(data[i+2]), buf: -1, kids: -1}
			if data[i]&0x80 != 0 {
				child = append(child, o)
				continue
			}
			if data[i+1]&0x80 != 0 {
				o.q = math.Inf(1)
			}
			base = append(base, o)
		}
		if len(base) == 0 {
			base = append(base, sopt{q: math.Inf(1), buf: -1, kids: -1})
		}
		m.base = NewSolver().pruneS(base, width)
		m.child = NewSolver().pruneS(child, width)
		m.edgeR, m.edgeC = float64(lib&3)/2, float64(lib>>2&3)
		for wi := 0; wi < 1+int(lib>>4&3); wi++ {
			m.widths = append(m.widths, float64(1+(wi+int(lib))%3))
		}
		slices.Sort(m.widths)
		s := NewSolver()
		checkNodeMerge(t, "fuzz node", s, m)
		checkBufferSite(t, "fuzz buffer site", s, m)
	})
}
