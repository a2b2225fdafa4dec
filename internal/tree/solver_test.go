package tree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/rip-eda/rip/internal/repeater"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/units"
)

// diffTrees generates the randomized differential corpus: varied sink
// counts, edge lengths and RAT tightness, on the default node.
func diffTrees(t *testing.T, count int) []*Tree {
	t.Helper()
	ts := tech.T180()
	cfg, err := DefaultGenConfig(ts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	var out []*Tree
	for i := 0; i < count; i++ {
		c := cfg
		c.Sinks = 1 + rng.Intn(12)
		c.RAT = (0.3 + 1.4*rng.Float64()) * units.NanoSecond
		c.BufferEveryNode = i%2 == 0
		tr, err := Generate(rng, c)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	return out
}

func sameSolution(t *testing.T, name string, want, got Solution) {
	t.Helper()
	if want.Feasible != got.Feasible {
		t.Fatalf("%s: feasible %v vs %v", name, want.Feasible, got.Feasible)
	}
	if want.Slack != got.Slack {
		t.Errorf("%s: slack %g vs %g", name, want.Slack, got.Slack)
	}
	if want.TotalWidth != got.TotalWidth {
		t.Errorf("%s: total width %g vs %g", name, want.TotalWidth, got.TotalWidth)
	}
	if want.Stats != got.Stats {
		t.Errorf("%s: stats %+v vs %+v", name, want.Stats, got.Stats)
	}
	if len(want.Buffers) != len(got.Buffers) {
		t.Fatalf("%s: %d buffers vs %d", name, len(want.Buffers), len(got.Buffers))
	}
	for id, w := range want.Buffers {
		if got.Buffers[id] != w {
			t.Errorf("%s: buffer at node %d: width %g vs %g", name, id, w, got.Buffers[id])
		}
	}
}

// mirrorTree builds a tree whose sibling subtrees are identical: a trunk
// from the root, then depth levels of fan-way branching with one edge
// length per level, identical sinks, and every node (root and sinks
// included) a buffer site. Merging identical children generates options
// that tie bit for bit — child a's option i with child b's option j
// against a's j with b's i — so these trees are where a prune's choice of
// representative shows in the placement.
func mirrorTree(t *testing.T, tc *tech.Technology, fan, depth int) *Tree {
	t.Helper()
	m4, err := tc.Layer("metal4")
	if err != nil {
		t.Fatal(err)
	}
	id := 0
	var build func(level int) *Node
	build = func(level int) *Node {
		id++
		l := (600 + 200*float64(level)) * units.Micron
		n := &Node{ID: id, EdgeR: l * m4.ROhmPerM, EdgeC: l * m4.CFPerM, BufferSite: true}
		if level == depth {
			n.SinkCap, n.SinkRAT = 40*units.FemtoFarad, 1.5*units.NanoSecond
			return n
		}
		for range fan {
			n.Children = append(n.Children, build(level+1))
		}
		return n
	}
	tr, err := New(&Node{ID: 0, BufferSite: true, Children: []*Node{build(0)}})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestSolverMatchesReference pins the Solver bit-for-bit — placements,
// slack, width, feasibility and work stats — against the preserved
// pre-Solver implementation, across objectives and libraries: on random
// trees, and on mirror-symmetric trees of every built-in node under the
// engine's 40u front library and the 10u reference library. At the two
// min-width deadlines some of these trees have asymmetric optima, so a
// merge that keeps a different tied representative than the reference
// changes the placement.
func TestSolverMatchesReference(t *testing.T) {
	s := NewSolver()
	check := func(name string, tr *Tree, opts Options) {
		t.Helper()
		want, errW := referenceInsert(tr, opts)
		got, errG := s.Insert(tr, opts)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("%s: error mismatch: %v vs %v", name, errW, errG)
		}
		if errW == nil {
			sameSolution(t, name, want, got)
		}
	}
	ts := tech.T180()
	libs := []struct {
		name   string
		widths []float64
	}{
		{"coarse", []float64{80, 160, 240, 320, 400}},
		{"fine", []float64{20, 40, 60, 80, 100, 150, 200, 300}},
	}
	for ti, tr := range diffTrees(t, 60) {
		for _, lb := range libs {
			for _, maxSlack := range []bool{false, true} {
				opts := Options{Library: lib(t, lb.widths...), Tech: ts, DriverWidth: 240, MaxSlack: maxSlack}
				check(fmt.Sprintf("tree %d %s maxslack=%v", ti, lb.name, maxSlack), tr, opts)
			}
		}
	}

	var ranges []repeater.Library
	for _, step := range []float64{40, 10} {
		l, err := repeater.Range(10, 400, step)
		if err != nil {
			t.Fatal(err)
		}
		ranges = append(ranges, l)
	}
	for _, tc := range []*tech.Technology{tech.T180(), tech.T130(), tech.T90(), tech.T65()} {
		for _, shape := range []struct{ fan, depth int }{{2, 3}, {3, 2}} {
			tr := mirrorTree(t, tc, shape.fan, shape.depth)
			for _, l := range ranges {
				name := fmt.Sprintf("%s mirror %dx%d lib %d", tc.Name, shape.fan, shape.depth, l.Size())
				opts := Options{Library: l, Tech: tc, DriverWidth: 240, MaxSlack: true}
				check(name+" maxslack", tr, opts)
				tmin, _, err := s.MinArrival(tr, opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.MaxSlack = false
				for _, mult := range []float64{1.1, 2} {
					check(fmt.Sprintf("%s min-width at %v·tmin", name, mult), tr.CloneWithRAT(mult*tmin), opts)
				}
			}
		}
	}
}

// TestBufferFrontsMatchGenerateAll pins the buffer-site class table
// against generating every buffered option and pruning them all: pruneS
// over the base options plus the table's per-width fronts must keep the
// same values as pruneS over the base plus all base×|B| buffered options,
// and each kept value's representative must be the first option
// generated with that value. The hand-made sets hold exact q ties inside
// one width class and across two, and a rounding collision: base widths 1
// and 1+2⁻⁵² buffered with width 1 both give exactly 2. Random sets on a
// coarse value grid add many more ties. Base loads avoid the buffered
// loads Co·wb, so every tie is inside one width's bucket.
func TestBufferFrontsMatchGenerateAll(t *testing.T) {
	ts := &tech.Technology{Rs: 1, Co: 1, Cp: 0.5}
	wide := math.Nextafter(1, 2)
	if wide+1 != 2 {
		t.Fatal("1+2⁻⁵² buffered with width 1 must round to exactly 2")
	}
	s := NewSolver()
	check := func(name string, widths []float64, base []sopt, width bool) {
		t.Helper()
		for i := range base {
			base[i].buf, base[i].kids = -1, int32(i)
		}
		gen := slices.Clone(base)
		for _, b := range base {
			for wi, wb := range widths {
				gen = append(gen, sopt{c: ts.Co * wb, q: b.q - (ts.Rs*ts.Cp + ts.Rs/wb*b.c), w: b.w + wb, buf: int32(wi), kids: b.kids})
			}
		}
		s.widths = widths
		want := s.pruneS(slices.Clone(gen), width)
		s.cur = append(s.cur[:0], base...)
		s.bufferFronts(ts, width)
		got := s.pruneS(s.cur, width)
		key := func(o sopt) [3]float64 {
			if !width {
				o.w = 0
			}
			return [3]float64{o.c, o.q, o.w}
		}
		if len(got) != len(want) {
			t.Fatalf("%s width=%v: kept %d options, generate-all keeps %d", name, width, len(got), len(want))
		}
		for i, o := range got {
			if key(o) != key(want[i]) {
				t.Fatalf("%s width=%v: kept %d is %v, generate-all keeps %v", name, width, i, key(o), key(want[i]))
			}
			if first := gen[slices.IndexFunc(gen, func(g sopt) bool { return key(g) == key(o) })]; o != first {
				t.Fatalf("%s width=%v: kept %d is %+v, first generated is %+v", name, width, i, o, first)
			}
		}
	}
	for _, c := range []struct {
		name string
		base []sopt
	}{
		{"tie in one class", []sopt{{c: 1.5, q: 3.5, w: 4}, {c: 2.5, q: 4.5, w: 4}}},
		{"collision tie", []sopt{{c: 1.5, q: 3.5, w: 1}, {c: 2.5, q: 4.5, w: wide}}},
		{"collision tie, wider class first", []sopt{{c: 2.5, q: 4.5, w: wide}, {c: 1.5, q: 3.5, w: 1}}},
		{"collision, wider class faster", []sopt{{c: 1.5, q: 3.5, w: 1}, {c: 2.5, q: 5.5, w: wide}}},
		{"collision, narrower class faster", []sopt{{c: 2.5, q: 4.5, w: wide}, {c: 1.5, q: 4.5, w: 1}}},
		{"collision under a narrower class", []sopt{{c: 1.5, q: 3.5, w: 1}, {c: 2.5, q: 4.5, w: wide}, {c: 0.5, q: 9, w: 0}}},
	} {
		for _, width := range []bool{true, false} {
			check(c.name, []float64{1, 2}, c.base, width)
		}
	}

	rng := rand.New(rand.NewSource(15))
	loads := []float64{0.5, 1.5, 3, 6}
	classes := []float64{0, 1, wide, 2, 3}
	for trial := 0; trial < 500; trial++ {
		var base []sopt
		for n := 1 + rng.Intn(12); len(base) < n; {
			o := sopt{c: loads[rng.Intn(len(loads))], q: float64(1 + rng.Intn(6)), w: classes[rng.Intn(len(classes))]}
			if !slices.ContainsFunc(base, func(b sopt) bool { return b.c == o.c && b.q == o.q }) {
				base = append(base, o)
			}
		}
		check(fmt.Sprintf("trial %d", trial), []float64{1, 2, 4}, base, trial%2 == 0)
	}
}

// TestSolverReuseDoesNotCorrupt solves many trees through one Solver and
// re-checks each against a fresh pooled solve: arena reuse must not leak
// state between instances, and returned Solutions must stay valid after
// later solves on the same Solver.
func TestSolverReuseDoesNotCorrupt(t *testing.T) {
	ts := tech.T180()
	opts := Options{Library: lib(t, 60, 120, 240, 360), Tech: ts, DriverWidth: 240}
	s := NewSolver()
	trees := diffTrees(t, 20)
	kept := make([]Solution, len(trees))
	for i, tr := range trees {
		sol, err := s.Insert(tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		kept[i] = sol
	}
	for i, tr := range trees {
		fresh, err := NewSolver().Insert(tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameSolution(t, fmt.Sprintf("tree %d after reuse", i), fresh, kept[i])
	}
}

// TestInsertIntoReusesBuffers checks the caller-owned-solution contract:
// the Buffers map is cleared and reused, not replaced, when present.
func TestInsertIntoReusesBuffers(t *testing.T) {
	ts := tech.T180()
	opts := Options{Library: lib(t, 100), Tech: ts, DriverWidth: 200}
	// Pick a RAT between the unbuffered and the buffered arrival so the
	// solve must place a buffer (the TestInsertBuffersWhenTight recipe).
	probe := chain(t, 1)
	slackNo, err := probe.Evaluate(nil, 200, ts.Rs, ts.Co, ts.Cp)
	if err != nil {
		t.Fatal(err)
	}
	slackBuf, err := probe.Evaluate(map[int]float64{1: 100}, 200, ts.Rs, ts.Co, ts.Cp)
	if err != nil {
		t.Fatal(err)
	}
	if !(slackBuf > slackNo) {
		t.Skip("buffering does not help this toy chain; adjust parameters")
	}
	tr := chain(t, 1-(slackNo+slackBuf)/2)
	s := NewSolver()
	var sol Solution
	if err := s.InsertInto(&sol, tr, opts); err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible || len(sol.Buffers) == 0 {
		t.Fatalf("expected a buffered feasible solution, got %+v", sol)
	}
	loose := chain(t, 1) // 1 s RAT: no buffers needed
	if err := s.InsertInto(&sol, loose, opts); err != nil {
		t.Fatal(err)
	}
	if len(sol.Buffers) != 0 {
		t.Errorf("loose tree should clear the reused map, got %v", sol.Buffers)
	}
}

// TestSolverSteadyStateAllocs bounds the steady-state allocation profile:
// after warmup, a solve allocates only the result map and its entries —
// the arenas, CSR, prune front and merge buffers are all reused.
func TestSolverSteadyStateAllocs(t *testing.T) {
	ts := tech.T180()
	cfg, err := DefaultGenConfig(ts)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sinks = 8
	tr, err := Generate(rand.New(rand.NewSource(9)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Library: lib(t, 80, 160, 240, 320, 400), Tech: ts, DriverWidth: 240}
	s := NewSolver()
	var sol Solution
	for i := 0; i < 3; i++ { // warm the arenas
		if err := s.InsertInto(&sol, tr, opts); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := s.InsertInto(&sol, tr, opts); err != nil {
			t.Fatal(err)
		}
	})
	// The reused Buffers map is cleared, not reallocated; nothing else
	// should allocate in steady state.
	if allocs > 0 {
		t.Errorf("steady-state solve allocates %.1f objects/run, want 0", allocs)
	}
}

// TestHybridWithMatchesHybrid pins InsertHybridWith (the engine's path,
// solver-threaded) against package InsertHybrid across random trees with
// a uniform deadline — the differential for the reusable solver path.
func TestHybridWithMatchesHybrid(t *testing.T) {
	ts := tech.T180()
	opts := Options{Tech: ts, DriverWidth: 240}
	s := NewSolver()
	for i, tr := range diffTrees(t, 12) {
		want, errW := InsertHybrid(tr, opts, HybridConfig{})
		got, errG := InsertHybridWith(s, tr, opts, HybridConfig{})
		if (errW == nil) != (errG == nil) {
			t.Fatalf("tree %d: error mismatch: %v vs %v", i, errW, errG)
		}
		if errW != nil {
			continue
		}
		if want.Picked != got.Picked {
			t.Errorf("tree %d: picked %q vs %q", i, want.Picked, got.Picked)
		}
		sameSolution(t, fmt.Sprintf("tree %d hybrid", i), want.Solution, got.Solution)
	}
}

// TestMinArrival checks the tree τmin analogue: it must be positive, no
// larger than any achievable arrival, and consistent with a max-slack
// solve at a uniform RAT.
func TestMinArrival(t *testing.T) {
	ts := tech.T180()
	cfg, err := DefaultGenConfig(ts)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sinks = 6
	tr, err := Generate(rand.New(rand.NewSource(4)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Library: lib(t, 40, 80, 160, 240, 320, 400), Tech: ts, DriverWidth: 240}
	tmin, err := MinArrival(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !(tmin > 0) {
		t.Fatalf("tmin = %g, want positive", tmin)
	}
	// A max-slack solve at uniform RAT r yields slack r - tmin.
	const r = 2e-9
	ms := opts
	ms.MaxSlack = true
	sol, err := Insert(tr.CloneWithRAT(r), ms)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs((r-sol.Slack)-tmin) > 1e-18 {
		t.Errorf("uniform-RAT max-slack arrival %g inconsistent with tmin %g", r-sol.Slack, tmin)
	}
	// Solving at 1.3·tmin must be feasible; at 0.9·tmin infeasible.
	tight, err := Insert(tr.CloneWithRAT(1.3*tmin), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !tight.Feasible {
		t.Error("1.3·tmin should be feasible")
	}
	under, err := Insert(tr.CloneWithRAT(0.9*tmin), opts)
	if err != nil {
		t.Fatal(err)
	}
	if under.Feasible {
		t.Error("0.9·tmin should be infeasible")
	}
}

// TestCloneWithRAT checks deadlines are replaced on the clone only.
func TestCloneWithRAT(t *testing.T) {
	tr := chain(t, 1e-9)
	c := tr.CloneWithRAT(5e-9)
	if got := c.Sinks()[0].SinkRAT; got != 5e-9 {
		t.Errorf("clone sink RAT = %g, want 5e-9", got)
	}
	if got := tr.Sinks()[0].SinkRAT; got != 1e-9 {
		t.Errorf("original sink RAT mutated to %g", got)
	}
	if tr.HasDeadlines() != true {
		t.Error("chain with RAT should report deadlines")
	}
	tr.Sinks()[0].SinkRAT = 0
	if tr.HasDeadlines() {
		t.Error("zero-RAT sink should not report deadlines")
	}
}

// BenchmarkTreeSolver measures the steady-state tree DP on the default
// 8-sink instance — the tree analogue of dp's BenchmarkSolve, wired into
// the CI bench-compare job.
func BenchmarkTreeSolver(b *testing.B) {
	ts := tech.T180()
	cfg, err := DefaultGenConfig(ts)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Sinks = 8
	tr, err := Generate(rand.New(rand.NewSource(2005)), cfg)
	if err != nil {
		b.Fatal(err)
	}
	l, err := repeater.Range(10, 400, 10)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Library: l, Tech: ts, DriverWidth: 240}
	s := NewSolver()
	var sol Solution
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.InsertInto(&sol, tr, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeHybrid measures the full tree pipeline through a reused
// Solver.
func BenchmarkTreeHybrid(b *testing.B) {
	ts := tech.T180()
	cfg, err := DefaultGenConfig(ts)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Sinks = 8
	tr, err := Generate(rand.New(rand.NewSource(2005)), cfg)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Tech: ts, DriverWidth: 240}
	s := NewSolver()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := InsertHybridWith(s, tr, opts, HybridConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
