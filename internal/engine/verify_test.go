package engine

import (
	"math"
	"slices"
	"testing"

	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/tree"
)

// builtinNodes are the four built-in technology nodes.
func builtinNodes() []*tech.Technology {
	return []*tech.Technology{tech.T180(), tech.T130(), tech.T90(), tech.T65()}
}

// relabeled returns j on a shape-equal copy of its net: renamed, and for
// trees with every node ID shifted by 1000.
func relabeled(t testing.TB, j Job) Job {
	t.Helper()
	if j.Net != nil {
		n := *j.Net
		n.Name += "-relabeled"
		j.Net = &n
		return j
	}
	var shift func(n *tree.Node) *tree.Node
	shift = func(n *tree.Node) *tree.Node {
		c := &tree.Node{ID: n.ID + 1000, EdgeR: n.EdgeR, EdgeC: n.EdgeC,
			SinkCap: n.SinkCap, SinkRAT: n.SinkRAT, BufferSite: n.BufferSite}
		for _, ch := range n.Children {
			c.Children = append(c.Children, shift(ch))
		}
		return c
	}
	tr, err := tree.New(shift(j.TreeNet.Tree.Root))
	if err != nil {
		t.Fatal(err)
	}
	j.TreeNet = &tree.Net{Name: j.TreeNet.Name + "-relabeled", Tree: tr, DriverWidth: j.TreeNet.DriverWidth}
	return j
}

// exportFront solves j's front on a fresh engine and returns the one
// cache entry it stored.
func exportFront(t testing.TB, node *tech.Technology, j Job) CacheEntry {
	t.Helper()
	eng, err := New(node, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fr := eng.Front(j); fr.Err != nil {
		t.Fatal(fr.Err)
	}
	ents := eng.ExportCache()
	if len(ents) != 1 {
		t.Fatalf("exported %d entries, want 1", len(ents))
	}
	return ents[0]
}

// cloneEntry deep-copies a sound exported entry.
func cloneEntry(t testing.TB, ent CacheEntry) CacheEntry {
	t.Helper()
	val, ok := importEntry(ent)
	if !ok {
		t.Fatal("base entry does not import")
	}
	return exportEntry(ent.Key, val)
}

// importedEngine returns a fresh engine on node holding only ent (when
// the import filter accepts it).
func importedEngine(t testing.TB, node *tech.Technology, ent CacheEntry) *Engine {
	t.Helper()
	eng, err := New(node, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.ImportCache([]CacheEntry{ent})
	return eng
}

// servedIndex returns the index of the front point a 1.3×τmin Solve of j
// picks from ent (the embedded-deadline point for budget-less trees).
func servedIndex(t testing.TB, ent CacheEntry, j Job) int {
	t.Helper()
	val, ok := importEntry(ent)
	if !ok {
		t.Fatal("entry does not import")
	}
	var idx int
	switch {
	case !ent.Tree:
		idx, ok = val.front.at(j.TargetMult * ent.TMin)
	case j.TargetMult > 0:
		idx, ok = val.treeFront.at(-j.TargetMult * ent.TMin)
	default:
		idx, ok = val.treeFront.at(0)
	}
	if !ok {
		t.Fatal("the front cannot answer the test budget")
	}
	return idx
}

// tamperCase is one net the tampered-import tests export, mutate and
// import again. job serves both Front (where its budget only selects a
// tree's mode) and Solve.
type tamperCase struct {
	name string
	node *tech.Technology
	job  Job
}

// tamperCases covers an uncoupled line, a worst/staggered coupled line,
// and a tree in uniform and in embedded mode. The embedded tree's sinks
// carry deadlines of 1.2–1.5×τmin, so its answer needs buffers.
func tamperCases(t testing.TB) []tamperCase {
	t.Helper()
	t180, t90 := tech.T180(), tech.T90()
	tn := netgenTrees(t, t180, 64, 1)[0]
	eng, err := New(t180, Options{Workers: 1, Cache: CacheOptions{Disabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	r := eng.Solve(Job{TreeNet: tn, TargetMult: 1.3})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	work := tn.Tree.Clone()
	for i, s := range work.Sinks() {
		s.SinkRAT = (1.2 + 0.1*float64(i%4)) * r.TMin
	}
	embedded := &tree.Net{Name: "embedded", Tree: work, DriverWidth: tn.DriverWidth}
	return []tamperCase{
		{"line", t180, Job{Net: netgenLines(t, t180, 61, 1)[0], TargetMult: 1.3}},
		{"coupled line", t90, Job{Net: netgenLines(t, t90, 62, 1)[0], TargetMult: 1.3, Aggressor: "worst", Scheme: "staggered"}},
		{"uniform tree", t180, Job{TreeNet: tn, TargetMult: 1.3}},
		{"embedded tree", t180, Job{TreeNet: embedded}},
	}
}

// mutation tampers with one exported entry; at is the front point a
// 1.3×τmin Solve picks.
type mutation struct {
	name  string
	apply func(t *testing.T, ent *CacheEntry, j Job, at int)
}

// tamperMutations halve every delay or slack, halve every total width,
// make one placement illegal, or make the point Solve picks read too slow.
// The placement mutation moves a line's first repeater into its forbidden
// zone, or a tree's first buffer to the root, which is never a buffer
// site; it hits the point Solve picks when that point has a repeater, else
// the first point that has one. The slow mutation inflates the picked
// line point's delay ×1.5, or puts the picked tree point's slack just
// below the budget's requirement, so the cached front offers the next
// wider point instead.
var tamperMutations = []mutation{
	{"timing x0.5", func(t *testing.T, ent *CacheEntry, j Job, at int) {
		for i := range ent.Line {
			ent.Line[i].Delay *= 0.5
		}
		for i := range ent.TreePts {
			ent.TreePts[i].Slack *= 0.5
		}
	}},
	{"width x0.5", func(t *testing.T, ent *CacheEntry, j Job, at int) {
		for i := range ent.Line {
			ent.Line[i].TotalWidth *= 0.5
		}
		for i := range ent.TreePts {
			ent.TreePts[i].TotalWidth *= 0.5
		}
	}},
	{"illegal placement", func(t *testing.T, ent *CacheEntry, j Job, at int) {
		n := len(ent.Line) + len(ent.TreePts)
		for k := 0; k < n; k++ {
			i := (at + k) % n
			if !ent.Tree && len(ent.Line[i].Positions) > 0 {
				z := j.Net.Line.Zones()[0]
				ent.Line[i].Positions[0] = (z.Start + z.End) / 2
				return
			}
			if ent.Tree && len(ent.TreePts[i].Walk) > 0 {
				if j.TreeNet.Tree.WalkOrder(nil)[0].BufferSite {
					t.Fatal("the root is a buffer site")
				}
				ent.TreePts[i].Walk[0] = 0
				return
			}
		}
		t.Fatal("no front point has a repeater")
	}},
	{"picked point slower", func(t *testing.T, ent *CacheEntry, j Job, at int) {
		if !ent.Tree {
			ent.Line[at].Delay *= 1.5
			return
		}
		req := 0.0 // embedded deadlines: slack ≥ 0
		if j.TargetMult > 0 {
			req = -j.TargetMult * ent.TMin
		}
		ent.TreePts[at].Slack = req - 1e-12
	}},
}

// TestTamperedImportsNeverServed: an imported entry whose values are
// finite but wrong is never served. Front counts exactly one rejection
// and answers the cache-disabled engine's curve bit for bit; Solve,
// whether it hits or rejects, answers the cache-disabled engine's
// placement and total width, with its delay within 1e-12.
func TestTamperedImportsNeverServed(t *testing.T) {
	for _, tc := range tamperCases(t) {
		ref, err := New(tc.node, Options{Workers: 1, Cache: CacheOptions{Disabled: true}})
		if err != nil {
			t.Fatal(err)
		}
		wantFront := ref.Front(tc.job)
		wantSolve := ref.Solve(tc.job)
		if wantFront.Err != nil || wantSolve.Err != nil {
			t.Fatalf("%s: %v / %v", tc.name, wantFront.Err, wantSolve.Err)
		}
		base := exportFront(t, tc.node, tc.job)
		at := servedIndex(t, base, tc.job)
		for _, m := range tamperMutations {
			t.Run(tc.name+"/"+m.name, func(t *testing.T) {
				ent := cloneEntry(t, base)
				m.apply(t, &ent, tc.job, at)

				eng := importedEngine(t, tc.node, ent)
				fr := eng.Front(tc.job)
				if fr.Err != nil {
					t.Fatal(fr.Err)
				}
				if st := eng.CacheStats(); st.Rejected != 1 || st.Hits != 0 || st.Misses != 0 {
					t.Fatalf("front: hits/misses/rejected = %d/%d/%d, want 0/0/1", st.Hits, st.Misses, st.Rejected)
				}
				if fr.CacheHit || fr.TMin != wantFront.TMin || !slices.Equal(fr.Points, wantFront.Points) {
					t.Fatalf("front served %+v, want the cache-disabled curve %+v", fr.Points, wantFront.Points)
				}

				r := importedEngine(t, tc.node, ent).Solve(tc.job)
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				assertSameAnswer(t, r, wantSolve)
			})
		}
	}
}

// assertSameAnswer requires got to serve want's placement and total
// width, with a line delay within 1e-12 relative and the same tree slack.
func assertSameAnswer(t *testing.T, got, want Result) {
	t.Helper()
	if got.Target != want.Target || got.TMin != want.TMin {
		t.Fatalf("target/τmin %g/%g, want %g/%g", got.Target, got.TMin, want.Target, want.TMin)
	}
	g, w := got.Res.Solution, want.Res.Solution
	if g.Feasible != w.Feasible || g.TotalWidth != w.TotalWidth ||
		!slices.Equal(g.Assignment.Positions, w.Assignment.Positions) ||
		!slices.Equal(g.Assignment.Widths, w.Assignment.Widths) || !slices.Equal(g.Schemes, w.Schemes) {
		t.Fatalf("line answer %+v, want %+v", g, w)
	}
	if math.Abs(g.Delay-w.Delay) > 1e-12*w.Delay {
		t.Fatalf("line delay %g, want %g", g.Delay, w.Delay)
	}
	gt, wt := got.TreeRes.Solution, want.TreeRes.Solution
	if gt.Feasible != wt.Feasible || gt.TotalWidth != wt.TotalWidth || gt.Slack != wt.Slack || len(gt.Buffers) != len(wt.Buffers) {
		t.Fatalf("tree answer %+v, want %+v", gt, wt)
	}
	for id, w := range wt.Buffers {
		if gt.Buffers[id] != w {
			t.Fatalf("tree buffers %v, want %v", gt.Buffers, wt.Buffers)
		}
	}
}

// TestFrontHitsNoFalseRejections: a warm Front is a hit, on the same net
// and on a relabeled shape-equal one, for netgen lines and trees (both
// modes) on all four nodes, worst/staggered lines and explicit-factor
// lines. No check rejects, and every warm curve is bit-identical to the
// cold one.
func TestFrontHitsNoFalseRejections(t *testing.T) {
	for i, node := range builtinNodes() {
		eng, err := New(node, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		lines := netgenLines(t, node, 71+int64(i), 2)
		trees := netgenTrees(t, node, 75+int64(i), 2)
		mf := node.MillerMax / 2
		jobs := []Job{
			{Net: lines[0]},
			{Net: lines[1]},
			{Net: lines[0], Aggressor: "worst", Scheme: "staggered"},
			{Net: lines[1], MF: &mf},
		}
		for _, tn := range trees {
			jobs = append(jobs, Job{TreeNet: tn, TargetMult: 1.3}, Job{TreeNet: tn})
		}
		for k, j := range jobs {
			cold := eng.Front(j)
			if cold.Err != nil || cold.CacheHit {
				t.Fatalf("%s job %d: cold front err=%v hit=%v", node.Name, k, cold.Err, cold.CacheHit)
			}
			base := eng.CacheStats()
			for _, w := range []Job{j, relabeled(t, j)} {
				warm := eng.Front(w)
				if warm.Err != nil || !warm.CacheHit {
					t.Fatalf("%s job %d: warm front err=%v hit=%v", node.Name, k, warm.Err, warm.CacheHit)
				}
				if warm.TMin != cold.TMin || !slices.Equal(warm.Points, cold.Points) {
					t.Fatalf("%s job %d: warm curve differs from the cold one", node.Name, k)
				}
			}
			if st := eng.CacheStats(); st.Rejected != base.Rejected || st.Hits != base.Hits+2 {
				t.Fatalf("%s job %d: hits %d→%d, rejected %d→%d", node.Name, k, base.Hits, st.Hits, base.Rejected, st.Rejected)
			}
		}
	}
}

// TestFrontEchoesScenario: Front echoes the scenario the way Solve does —
// an explicit factor as MF with no aggressor or scheme, a named scenario
// as aggressor and scheme with no MF.
func TestFrontEchoesScenario(t *testing.T) {
	node := tech.T90()
	eng, err := New(node, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	net := netgenLines(t, node, 81, 1)[0]
	mf := 1.0
	for _, j := range []Job{{Net: net, MF: &mf}, {Net: net, MF: &mf}} { // cold, then a hit
		fr := eng.Front(j)
		if fr.Err != nil {
			t.Fatal(fr.Err)
		}
		if fr.MF == nil || *fr.MF != 1 || fr.Aggressor != "" || fr.Scheme != "" {
			t.Fatalf("mf front echoes mf=%v aggressor=%q scheme=%q (hit %v)", fr.MF, fr.Aggressor, fr.Scheme, fr.CacheHit)
		}
	}
	fr := eng.Front(Job{Net: net, Aggressor: "worst", Scheme: "staggered"})
	if fr.Err != nil || fr.MF != nil || fr.Aggressor != "worst" || fr.Scheme != "staggered" {
		t.Fatalf("scenario front: err=%v mf=%v aggressor=%q scheme=%q", fr.Err, fr.MF, fr.Aggressor, fr.Scheme)
	}
}

// FuzzImportedFront imports one mutated field of a real exported entry —
// an uncoupled line, a worst/staggered coupled line or a uniform-mode
// tree — into fresh engines, then asks Front, Solve at 1.3×τmin and Solve
// on a 3-budget ladder. Nothing may panic, and Front must answer the
// cache-disabled curve bit for bit; only a hit whose tampering stayed
// under the check's own tolerance may differ, by at most 2·verifyTol.
// Every served Solve answer must be legal on the net (positions, buffer
// sites, schemes and their lengths), re-price within its budget, have
// widths that sum to its total width, and be no wider than the
// cache-disabled engine's answer to the same budget. TMin is left alone:
// an imported τmin is trusted (see export.go).
//
// Mutations: 0 scales a point's delay or slack; 1 scales its total
// width; 2 moves a line repeater into the forbidden zone, or points a
// tree walk position past the tree; 3 flips a coupled point's scheme; 4
// adds scale µm to a line point's staggered length.
func FuzzImportedFront(f *testing.F) {
	cases := tamperCases(f)[:3]
	type fuzzBase struct {
		tamperCase
		ent   CacheEntry
		front FrontResult
		// jobs are the Solve jobs asked of every import: the case's own
		// 1.3×τmin job and a 3-budget ladder; want their cache-disabled
		// answers.
		jobs []Job
		want []Result
	}
	var bases []fuzzBase
	for _, tc := range cases {
		ref, err := New(tc.node, Options{Workers: 1, Cache: CacheOptions{Disabled: true}})
		if err != nil {
			f.Fatal(err)
		}
		fr := ref.Front(tc.job)
		if fr.Err != nil {
			f.Fatal(fr.Err)
		}
		j := tc.job
		b := fuzzBase{tamperCase: tc, ent: exportFront(f, tc.node, tc.job), front: fr, jobs: []Job{j,
			{Net: j.Net, TreeNet: j.TreeNet, Aggressor: j.Aggressor, Scheme: j.Scheme,
				Budgets: []float64{1.1 * fr.TMin, 1.5 * fr.TMin, 2.5 * fr.TMin}}}}
		for _, j := range b.jobs {
			r := ref.Solve(j)
			if r.Err != nil {
				f.Fatal(r.Err)
			}
			b.want = append(b.want, r)
		}
		bases = append(bases, b)
	}
	for kind := range bases {
		for mut := range 5 {
			f.Add(uint8(kind), uint8(mut), uint16(3), uint16(1), 0.5)
		}
	}
	f.Add(uint8(0), uint8(0), uint16(0), uint16(0), 2.0)
	f.Add(uint8(2), uint8(1), uint16(1), uint16(0), 1+1e-9)
	// Scheme flips on the point a 1.3×τmin Solve of the coupled line picks.
	at := servedIndex(f, bases[1].ent, bases[1].job)
	for k := range min(len(bases[1].ent.Line[at].Schemes), 12) {
		f.Add(uint8(1), uint8(3), uint16(at), uint16(k), 0.5)
	}
	f.Add(uint8(1), uint8(4), uint16(at), uint16(0), 1.0)
	f.Fuzz(func(t *testing.T, kind, mut uint8, point, at uint16, scale float64) {
		b := bases[int(kind)%len(bases)]
		ent := cloneEntry(t, b.ent)
		n := len(ent.Line) + len(ent.TreePts)
		i := int(point) % n
		switch mut % 5 {
		case 0:
			if ent.Tree {
				ent.TreePts[i].Slack *= scale
			} else {
				ent.Line[i].Delay *= scale
			}
		case 1:
			if ent.Tree {
				ent.TreePts[i].TotalWidth *= scale
			} else {
				ent.Line[i].TotalWidth *= scale
			}
		case 2:
			if ent.Tree {
				if w := ent.TreePts[i].Walk; len(w) > 0 {
					w[int(at)%len(w)] = int32(b.job.TreeNet.Tree.NumNodes()) + int32(at)
				}
			} else if pos := ent.Line[i].Positions; len(pos) > 0 {
				z := b.job.Net.Line.Zones()[0]
				pos[int(at)%len(pos)] = z.Start + (z.End-z.Start)*math.Abs(math.Mod(scale, 1))
			}
		case 3:
			if !ent.Tree && len(ent.Line[i].Schemes) > 0 {
				s := ent.Line[i].Schemes
				s[int(at)%len(s)] = (s[int(at)%len(s)] + 1) % 3
			}
		case 4:
			if !ent.Tree {
				ent.Line[i].StaggerLen += scale * 1e-6
			}
		}

		// A hit serves cached values, which a tampering smaller than the
		// check's own tolerance may have moved; anything else re-solves and
		// must match bit for bit.
		fr := importedEngine(t, b.node, ent).Front(b.job)
		if fr.Err != nil {
			t.Fatal(fr.Err)
		}
		if fr.TMin != b.front.TMin || !(slices.Equal(fr.Points, b.front.Points) || fr.CacheHit && nearCurve(fr.Points, b.front.Points)) {
			t.Fatalf("front served %+v (hit %v), want the cache-disabled curve %+v", fr.Points, fr.CacheHit, b.front.Points)
		}
		for i, j := range b.jobs {
			eng := importedEngine(t, b.node, ent)
			r := eng.Solve(j)
			assertServedLegal(t, eng, j, r)
			assertNoWider(t, r, b.want[i])
		}
	})
}

// assertNoWider requires every feasible answer in got to be no wider than
// want's answer to the same budget, beyond the width tampering the check's
// own tolerance lets through.
func assertNoWider(t *testing.T, got, want Result) {
	t.Helper()
	g, w := budgetAnswers(got), budgetAnswers(want)
	if len(g) != len(w) {
		t.Fatalf("%d answers, want %d", len(g), len(w))
	}
	for i, a := range g {
		gw, gok := servedWidth(a)
		ww, wok := servedWidth(w[i])
		if gok && wok && gw > ww*(1+2*verifyTol) {
			t.Fatalf("budget %g: served width %g, the cache-disabled engine answers %g", a.Budget, gw, ww)
		}
	}
}

// servedWidth is a's total width, and whether a is feasible.
func servedWidth(a BudgetAnswer) (float64, bool) {
	if s := a.TreeRes.Solution; s.Feasible {
		return s.TotalWidth, true
	}
	return a.Res.Solution.TotalWidth, a.Res.Solution.Feasible
}

// budgetAnswers lists r's answers, one per budget.
func budgetAnswers(r Result) []BudgetAnswer {
	if len(r.Sweep) > 0 {
		return r.Sweep
	}
	return []BudgetAnswer{{Budget: r.Target, Res: r.Res, TreeRes: r.TreeRes}}
}

// nearCurve reports whether got matches want point for point, each value
// within twice verifyTol relative.
func nearCurve(got, want []FrontPoint) bool {
	if len(got) != len(want) {
		return false
	}
	close := func(g, w float64) bool { return math.Abs(g-w) <= 2*verifyTol*math.Abs(w) }
	for i, g := range got {
		w := want[i]
		if g.Repeaters != w.Repeaters || !close(g.Delay, w.Delay) || !close(g.Slack, w.Slack) ||
			!close(g.TotalWidth, w.TotalWidth) || !close(g.StaggerLen, w.StaggerLen) || !close(g.ShieldLen, w.ShieldLen) {
			return false
		}
	}
	return true
}

// assertServedLegal requires every feasible answer in r to be legal on
// j's net, to meet its budget when re-priced there, and to have widths
// that sum to its total width.
func assertServedLegal(t *testing.T, eng *Engine, j Job, r Result) {
	t.Helper()
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	node := eng.Technology()
	for _, a := range budgetAnswers(r) {
		if tn := j.TreeNet; tn != nil {
			sol := a.TreeRes.Solution
			if !sol.Feasible {
				continue
			}
			sites := map[int]bool{}
			for _, n := range tn.Tree.WalkOrder(nil) {
				sites[n.ID] = n.BufferSite
			}
			sum := 0.0
			for id, w := range sol.Buffers {
				if !sites[id] {
					t.Fatalf("budget %g: buffer at node %d, not a buffer site", a.Budget, id)
				}
				sum += w
			}
			if math.Abs(sum-sol.TotalWidth) > 1e-12*sum {
				t.Fatalf("budget %g: widths sum to %g, total width %g", a.Budget, sum, sol.TotalWidth)
			}
			slack, err := tn.Tree.CloneWithRAT(a.Budget).Evaluate(sol.Buffers, tn.DriverWidth, node.Rs, node.Co, node.Cp)
			if err != nil || slack < -1e-12*a.Budget {
				t.Fatalf("budget %g: re-priced slack %g (%v)", a.Budget, slack, err)
			}
			continue
		}
		sol := a.Res.Solution
		if !sol.Feasible {
			continue
		}
		ev, err := delay.NewEvaluator(j.Net, node)
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.Validate(sol.Assignment); err != nil {
			t.Fatalf("budget %g: served placement illegal: %v", a.Budget, err)
		}
		if sum := sol.Assignment.TotalWidth(); math.Abs(sum-sol.TotalWidth) > 1e-12*sum {
			t.Fatalf("budget %g: widths sum to %g, total width %g", a.Budget, sum, sol.TotalWidth)
		}
		d := ev.Total(sol.Assignment)
		if j.Aggressor != "" {
			agg, _ := delay.ParseAggressor(j.Aggressor)
			mode, _ := delay.ParseSchemeMode(j.Scheme)
			cpl, err := delay.NewCoupling(node, agg, mode)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range sol.Schemes {
				if !slices.Contains(cpl.Schemes, s) {
					t.Fatalf("budget %g: scheme %d outside the scenario", a.Budget, s)
				}
			}
			grid := append([]float64{0}, j.Net.Line.AppendLegalPositions(nil, eng.frontOpts.Pitch)...)
			grid = append(grid, j.Net.Line.Length())
			if d, err = ev.CoupledTotal(grid, sol.Schemes, cpl, sol.Assignment); err != nil {
				t.Fatalf("budget %g: %v", a.Budget, err)
			}
			if st, sh := delay.SchemeLengths(grid, sol.Schemes); st != sol.StaggerLen || sh != sol.ShieldLen {
				t.Fatalf("budget %g: staggered/shielded %g/%g, schemes give %g/%g", a.Budget, sol.StaggerLen, sol.ShieldLen, st, sh)
			}
		}
		if d > a.Budget*(1+1e-12) {
			t.Fatalf("budget %g: served placement re-prices to %g", a.Budget, d)
		}
	}
}
