package engine

import (
	"math"
	"testing"

	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/dp"
	"github.com/rip-eda/rip/internal/netgen"
	"github.com/rip-eda/rip/internal/tech"
)

// TestFrontCounterSingleIncrement is the regression test for the cache
// counter discipline: every lookup increments exactly one of
// hits/misses/rejected, ONCE — a multi-budget hit whose every budget is
// re-verified on the cached front still counts as one hit, a budget the
// front cannot meet counts as one rejection (never a miss on top), and a
// job that waited for another job's solve counts only its lookup after
// the wait.
func TestFrontCounterSingleIncrement(t *testing.T) {
	eng := mustEngine(t, Options{Workers: 1})
	net := corpus(t, 41, 1)[0]

	assertStats := func(step string, hits, misses, rejected uint64) {
		t.Helper()
		st := eng.CacheStats()
		if st.Hits != hits || st.Misses != misses || st.Rejected != rejected {
			t.Fatalf("%s: hits/misses/rejected = %d/%d/%d, want %d/%d/%d",
				step, st.Hits, st.Misses, st.Rejected, hits, misses, rejected)
		}
		if total := st.Hits + st.Misses + st.Rejected; total != hits+misses+rejected {
			t.Fatalf("%s: lookup accounting drifted: %+v", step, st)
		}
	}

	// 1. Cold single-budget solve: one miss.
	r1 := eng.Solve(Job{Net: net, TargetMult: 1.3})
	if r1.Err != nil {
		t.Fatal(r1.Err)
	}
	tmin := r1.TMin
	assertStats("cold solve", 0, 1, 0)

	// 2. Same job again: one hit.
	if r := eng.Solve(Job{Net: net, TargetMult: 1.3}); r.Err != nil || !r.CacheHit {
		t.Fatalf("repeat solve: err=%v hit=%v", r.Err, r.CacheHit)
	}
	assertStats("repeat solve", 1, 1, 0)

	// 3. Five-budget sweep served from the same front: still ONE hit,
	// even though five points are re-verified — this is the double-count
	// hazard the counter discipline exists to prevent.
	ladder := []float64{1.3 * tmin, 1.5 * tmin, 2 * tmin, 3 * tmin, 5 * tmin}
	r3 := eng.Solve(Job{Net: net, Budgets: ladder})
	if r3.Err != nil || !r3.CacheHit {
		t.Fatalf("sweep: err=%v hit=%v", r3.Err, r3.CacheHit)
	}
	if len(r3.Sweep) != len(ladder) {
		t.Fatalf("sweep answered %d budgets, want %d", len(r3.Sweep), len(ladder))
	}
	assertStats("multi-budget sweep", 2, 1, 0)

	// 4. A budget below the achievable minimum rejects the entry — one
	// rejection, and the fresh solve that follows does not add a miss.
	r4 := eng.Solve(Job{Net: net, Budgets: []float64{0.5 * tmin}})
	if r4.Err != nil {
		t.Fatal(r4.Err)
	}
	if r4.Sweep[0].Res.Solution.Feasible {
		t.Fatal("0.5×τmin should be infeasible")
	}
	assertStats("infeasible budget", 2, 1, 1)

	// Front lookups: one answer per budget asked (1+1+5+1), regardless of
	// how many lookups the cache counters charged.
	fs := eng.FrontStats()
	if fs.Lookups != 8 {
		t.Fatalf("front lookups = %d, want 8", fs.Lookups)
	}
	if fs.Solves != 2 { // cold solve + post-rejection re-solve
		t.Fatalf("front solves = %d, want 2", fs.Solves)
	}

	// 5. Concurrent followers of an in-flight solve.
	followerOutcomes(t, eng, assertStats)
}

// TestFrontMonotoneNoDominated pins the served curve's Pareto
// invariants for both net kinds: points sorted by strictly increasing
// delay, strictly decreasing total width (delay↑ ⇒ power↓), so no point
// dominates another.
func TestFrontMonotoneNoDominated(t *testing.T) {
	eng := mustEngine(t, Options{Workers: 2})
	var fronts []FrontResult
	for _, n := range corpus(t, 43, 3) {
		fronts = append(fronts, eng.Front(Job{Net: n}))
	}
	for _, tn := range treeCorpus(t, 44, 3) {
		fronts = append(fronts, eng.Front(Job{TreeNet: tn, TargetMult: 1.3})) // uniform mode
		fronts = append(fronts, eng.Front(Job{TreeNet: tn}))                  // embedded mode
	}
	for fi, fr := range fronts {
		if fr.Err != nil {
			t.Fatalf("front %d: %v", fi, fr.Err)
		}
		if len(fr.Points) == 0 {
			t.Fatalf("front %d: empty", fi)
		}
		timing := func(p FrontPoint) float64 {
			if p.Delay != 0 {
				return p.Delay
			}
			return -p.Slack // embedded mode: later (worse) slack = slower point
		}
		for i := 1; i < len(fr.Points); i++ {
			a, b := fr.Points[i-1], fr.Points[i]
			if !(timing(b) > timing(a)) {
				t.Fatalf("front %d: points %d,%d not strictly increasing in delay: %g, %g",
					fi, i-1, i, timing(a), timing(b))
			}
			if !(b.TotalWidth < a.TotalWidth) {
				t.Fatalf("front %d: point %d (width %g) does not undercut point %d (width %g): dominated",
					fi, i, b.TotalWidth, i-1, a.TotalWidth)
			}
		}
	}
}

// TestFrontStableUnderRelabeling: the cache key is the net's shape, not
// its name — a renamed but electrically identical net must be served the
// bit-identical front from cache.
func TestFrontStableUnderRelabeling(t *testing.T) {
	eng := mustEngine(t, Options{Workers: 1})
	net := corpus(t, 47, 1)[0]
	fr1 := eng.Front(Job{Net: net})
	if fr1.Err != nil {
		t.Fatal(fr1.Err)
	}
	renamed := *net
	renamed.Name = net.Name + "-relabeled"
	fr2 := eng.Front(Job{Net: &renamed})
	if fr2.Err != nil {
		t.Fatal(fr2.Err)
	}
	if !fr2.CacheHit {
		t.Fatal("relabeled net missed the shape-keyed cache")
	}
	if fr2.TMin != fr1.TMin || len(fr2.Points) != len(fr1.Points) {
		t.Fatalf("relabeled front differs: τmin %g vs %g, %d vs %d points",
			fr2.TMin, fr1.TMin, len(fr2.Points), len(fr1.Points))
	}
	for i := range fr1.Points {
		if fr1.Points[i] != fr2.Points[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, fr1.Points[i], fr2.Points[i])
		}
	}
}

// TestFrontLeftmostIsMinDelay: within the front's own solution space the
// leftmost point IS the minimum-delay solution — dp.MinimumDelay over
// the same options must equal Points[0].Delay bit for bit, for every
// built-in node.
func TestFrontLeftmostIsMinDelay(t *testing.T) {
	for _, node := range []*tech.Technology{tech.T180(), tech.T130(), tech.T90(), tech.T65()} {
		eng, err := New(node, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := netgen.DefaultConfig(node)
		if err != nil {
			t.Fatal(err)
		}
		nets, err := netgen.Corpus(51, 2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range nets {
			fr := eng.Front(Job{Net: n})
			if fr.Err != nil {
				t.Fatalf("%s/%s: %v", node.Name, n.Name, fr.Err)
			}
			ev, err := delay.NewEvaluator(n, node)
			if err != nil {
				t.Fatal(err)
			}
			dmin, err := dp.MinimumDelay(ev, eng.frontOpts)
			if err != nil {
				t.Fatal(err)
			}
			if fr.Points[0].Delay != dmin {
				t.Fatalf("%s/%s: leftmost front point %g != front-space MinDelay %g",
					node.Name, n.Name, fr.Points[0].Delay, dmin)
			}
		}
	}
}

// FuzzFrontLookup: an arbitrary budget either fails validation (NaN,
// ±Inf, non-positive) or gets a valid verdict — a feasible answer whose
// recomputed delay meets the budget, or infeasible only when the budget
// is genuinely below the front's achievable minimum.
func FuzzFrontLookup(f *testing.F) {
	node := tech.T180()
	cfg, err := netgen.DefaultConfig(node)
	if err != nil {
		f.Fatal(err)
	}
	nets, err := netgen.Corpus(53, 1, cfg)
	if err != nil {
		f.Fatal(err)
	}
	eng, err := New(node, Options{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	fr := eng.Front(Job{Net: nets[0]})
	if fr.Err != nil {
		f.Fatal(fr.Err)
	}
	minDelay := fr.Points[0].Delay

	f.Add(math.NaN())
	f.Add(math.Inf(1))
	f.Add(math.Inf(-1))
	f.Add(-1.0)
	f.Add(0.0)
	f.Add(1e-15) // positive but far beyond τmin
	f.Add(minDelay)
	f.Add(2 * minDelay)
	f.Add(1e9)
	f.Fuzz(func(t *testing.T, budget float64) {
		r := eng.Solve(Job{Net: nets[0], Budgets: []float64{budget}})
		if math.IsNaN(budget) || math.IsInf(budget, 0) || budget <= 0 {
			if r.Err == nil {
				t.Fatalf("budget %g: want a validation error, got none", budget)
			}
			return
		}
		if r.Err != nil {
			t.Fatalf("budget %g: %v", budget, r.Err)
		}
		if len(r.Sweep) != 1 {
			t.Fatalf("budget %g: %d sweep answers, want 1", budget, len(r.Sweep))
		}
		sol := r.Sweep[0].Res.Solution
		if sol.Feasible {
			if sol.Delay > budget {
				t.Fatalf("budget %g: served delay %g exceeds it", budget, sol.Delay)
			}
		} else if budget >= minDelay {
			t.Fatalf("budget %g ≥ achievable minimum %g but reported infeasible", budget, minDelay)
		}
	})
}

// TestMultiBudgetSolveRatio is the PR's acceptance bound: a 10-budget
// sweep over a 1k-net corpus must cost no more than 1.1× the DP solves
// of the single-budget run, measured by the rip_dp_* work counters. The
// front-native engine makes the ratio exactly 1 — both runs pay τmin +
// one front sweep per distinct shape and answer everything else by
// lookup.
func TestMultiBudgetSolveRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-net corpus sweep")
	}
	distinct := corpus(t, 59, 100)
	single := mustEngine(t, Options{})
	sweep := mustEngine(t, Options{})

	singleJobs := make([]Job, 0, 1000)
	sweepJobs := make([]Job, 0, 1000)
	for i := 0; i < 1000; i++ {
		n := distinct[i%len(distinct)]
		singleJobs = append(singleJobs, Job{Net: n, TargetMult: 1.3})
		ladder := make([]float64, 10)
		for k := range ladder {
			ladder[k] = 0 // filled after τmin is known, below
		}
		sweepJobs = append(sweepJobs, Job{Net: n, Budgets: ladder})
	}
	for i, r := range single.Run(singleJobs) {
		if r.Err != nil {
			t.Fatalf("single net %d: %v", i, r.Err)
		}
		ladder := sweepJobs[i].Budgets
		for k := range ladder {
			ladder[k] = (1.3 + 0.17*float64(k)) * r.TMin
		}
	}
	for i, r := range sweep.Run(sweepJobs) {
		if r.Err != nil {
			t.Fatalf("sweep net %d: %v", i, r.Err)
		}
		if len(r.Sweep) != 10 {
			t.Fatalf("sweep net %d: %d answers", i, len(r.Sweep))
		}
		for k, ba := range r.Sweep {
			if !ba.Res.Solution.Feasible {
				t.Fatalf("sweep net %d budget %d (%g) infeasible", i, k, ba.Budget)
			}
		}
	}
	ss, ws := single.DPStats(), sweep.DPStats()
	if ss.Solves == 0 {
		t.Fatal("single-budget run recorded no DP solves")
	}
	ratio := float64(ws.Solves) / float64(ss.Solves)
	if ratio > 1.1 {
		t.Fatalf("10-budget sweep cost %d solves vs %d single-budget (ratio %.3f > 1.1)",
			ws.Solves, ss.Solves, ratio)
	}
	if lk := sweep.FrontStats().Lookups; lk != 10000 {
		t.Fatalf("sweep answered %d budget lookups, want 10000", lk)
	}
}
