package engine

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/tree"
	"github.com/rip-eda/rip/internal/units"
)

func treeCorpus(t *testing.T, seed int64, n int) []*tree.Net {
	return netgenTrees(t, tech.T180(), seed, n)
}

// netgenTrees returns n generated trees on node, with 2–9 sinks each and
// the generator's uniform sink deadline.
func netgenTrees(t testing.TB, node *tech.Technology, seed int64, n int) []*tree.Net {
	t.Helper()
	cfg, err := tree.DefaultGenConfig(node)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	nets := make([]*tree.Net, n)
	for i := range nets {
		c := cfg
		c.Sinks = 2 + rng.Intn(8)
		tr, err := tree.Generate(rng, c)
		if err != nil {
			t.Fatal(err)
		}
		nets[i] = &tree.Net{Name: "tree", Tree: tr, DriverWidth: 240}
	}
	return nets
}

func mustEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	eng, err := New(tech.T180(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestTreeJobSolves runs one tree job through every budget form and
// cross-checks each solution with the independent tree evaluator.
func TestTreeJobSolves(t *testing.T) {
	node := tech.T180()
	eng := mustEngine(t, Options{Workers: 2})
	tn := treeCorpus(t, 5, 1)[0]

	for _, tc := range []struct {
		name string
		job  Job
	}{
		{"relative", Job{TreeNet: tn, TargetMult: 1.3}},
		{"absolute", Job{TreeNet: tn, Target: 1.2 * units.NanoSecond}},
		{"embedded", Job{TreeNet: tn}}, // generator sets every sink RAT
	} {
		r := eng.Solve(tc.job)
		if r.Err != nil {
			t.Fatalf("%s: %v", tc.name, r.Err)
		}
		if r.TreeNet != tn {
			t.Fatalf("%s: result does not echo the tree net", tc.name)
		}
		sol := r.TreeRes.Solution
		if !sol.Feasible {
			t.Fatalf("%s: expected feasible, got %+v", tc.name, sol)
		}
		work := tn.Tree
		if r.Target > 0 {
			work = tn.Tree.CloneWithRAT(r.Target)
		}
		slack, err := work.Evaluate(sol.Buffers, tn.DriverWidth, node.Rs, node.Co, node.Cp)
		if err != nil {
			t.Fatalf("%s: evaluate: %v", tc.name, err)
		}
		if slack < 0 {
			t.Errorf("%s: served placement violates deadlines (slack %g)", tc.name, slack)
		}
		if tc.job.TargetMult > 0 && !(r.TMin > 0) {
			t.Errorf("%s: relative job should report τmin, got %g", tc.name, r.TMin)
		}
	}
	if st := eng.TreeDPStats(); st.Solves == 0 || st.Generated == 0 {
		t.Errorf("tree DP counters not accumulated: %+v", st)
	}
}

// TestTreeJobValidation covers the polymorphic job shape errors.
func TestTreeJobValidation(t *testing.T) {
	eng := mustEngine(t, Options{Workers: 1})
	tn := treeCorpus(t, 6, 1)[0]
	ln := corpus(t, 6, 1)[0]

	noDeadline := &tree.Net{Name: "nodl", Tree: tn.Tree.CloneWithRAT(0), DriverWidth: 240}
	for _, tc := range []struct {
		name, wantSub string
		job           Job
	}{
		{"both kinds", "not both", Job{Net: ln, TreeNet: tn, TargetMult: 1.3}},
		{"no budget no deadlines", "deadline", Job{TreeNet: noDeadline}},
		{"both budgets", "not both", Job{TreeNet: tn, TargetMult: 1.3, Target: 1e-9}},
		{"invalid net", "driver width", Job{TreeNet: &tree.Net{Name: "bad", Tree: tn.Tree}, TargetMult: 1.3}},
	} {
		r := eng.Solve(tc.job)
		if r.Err == nil {
			t.Errorf("%s: expected an error", tc.name)
			continue
		}
		if !strings.Contains(r.Err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, r.Err, tc.wantSub)
		}
	}
}

// TestMixedBatchDeterministicOrder mixes tree and line jobs in one batch
// (the shape the worker pool now serves) and checks input-order results,
// correct per-kind payloads, and cross-run determinism. Run under -race
// in CI, this is also the mixed-workload race test.
func TestMixedBatchDeterministicOrder(t *testing.T) {
	lines := corpus(t, 21, 6)
	trees := treeCorpus(t, 22, 6)
	jobs := make([]Job, 0, 12)
	for i := 0; i < 6; i++ {
		jobs = append(jobs, Job{Net: lines[i], TargetMult: 1.3})
		jobs = append(jobs, Job{TreeNet: trees[i], TargetMult: 1.3})
	}
	eng := mustEngine(t, Options{Workers: 4})
	first := eng.Run(jobs)
	if len(first) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(first), len(jobs))
	}
	for i, r := range first {
		if r.Index != i {
			t.Fatalf("result %d carries index %d", i, r.Index)
		}
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if i%2 == 0 {
			if r.Net == nil || r.TreeNet != nil || !r.Res.Solution.Feasible {
				t.Fatalf("job %d should be a feasible line result", i)
			}
		} else {
			if r.TreeNet == nil || r.Net != nil || !r.TreeRes.Solution.Feasible {
				t.Fatalf("job %d should be a feasible tree result", i)
			}
		}
	}
	// A fresh engine must reproduce the batch exactly (cold cache both
	// times; the DP and hybrid phases are deterministic).
	second := mustEngine(t, Options{Workers: 4}).Run(jobs)
	for i := range first {
		a, b := first[i], second[i]
		if a.Target != b.Target || a.TMin != b.TMin {
			t.Errorf("job %d: budget drift (%g,%g) vs (%g,%g)", i, a.Target, a.TMin, b.Target, b.TMin)
		}
		if i%2 == 1 {
			if a.TreeRes.Solution.TotalWidth != b.TreeRes.Solution.TotalWidth ||
				a.TreeRes.Solution.Slack != b.TreeRes.Solution.Slack ||
				a.TreeRes.Picked != b.TreeRes.Picked {
				t.Errorf("tree job %d: nondeterministic outcome", i)
			}
		} else if a.Res.Solution.TotalWidth != b.Res.Solution.TotalWidth {
			t.Errorf("line job %d: nondeterministic outcome", i)
		}
	}
}

// TestTreeCacheHits: repeated tree shapes are served from cache after the
// first solve, per budget class, and the hit carries a verified placement.
func TestTreeCacheHits(t *testing.T) {
	eng := mustEngine(t, Options{Workers: 1})
	tn := treeCorpus(t, 9, 1)[0]
	jobs := []Job{
		{TreeNet: tn, TargetMult: 1.3},
		{TreeNet: tn, TargetMult: 1.3},
		{TreeNet: tn, TargetMult: 1.3},
	}
	results := eng.Run(jobs)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if wantHit := i > 0; r.CacheHit != wantHit {
			t.Errorf("job %d: cache hit = %v, want %v", i, r.CacheHit, wantHit)
		}
		if !r.TreeRes.Solution.Feasible {
			t.Errorf("job %d: infeasible", i)
		}
	}
	st := eng.CacheStats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("cache stats: %+v, want 2 hits / 1 miss", st)
	}
	if hit, miss := results[1], results[0]; hit.TreeRes.Solution.TotalWidth != miss.TreeRes.Solution.TotalWidth {
		t.Errorf("hit width %g differs from solve width %g",
			hit.TreeRes.Solution.TotalWidth, miss.TreeRes.Solution.TotalWidth)
	}
	// The key carries no budget: a different uniform budget is answered
	// from the same shape entry's front.
	r := eng.Solve(Job{TreeNet: tn, TargetMult: 1.5})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if !r.CacheHit {
		t.Error("a new uniform budget should be served from the shape entry's front")
	}
	if !r.TreeRes.Solution.Feasible {
		t.Error("looser budget served from the front should stay feasible")
	}
}

// TestTreeCacheServesRelabeledShape: the cache addresses buffers by walk
// position, so a shape-equal tree with different node IDs is a hit and
// the served placement lands on the corresponding nodes of the new tree.
func TestTreeCacheServesRelabeledShape(t *testing.T) {
	node := tech.T180()
	eng := mustEngine(t, Options{Workers: 1})
	tn := treeCorpus(t, 14, 1)[0]

	// Relabel: same shape and parasitics, IDs shifted by 1000.
	tn2 := relabeled(t, Job{TreeNet: tn}).TreeNet
	shifted := tn2.Tree

	r1 := eng.Solve(Job{TreeNet: tn, TargetMult: 1.3})
	if r1.Err != nil {
		t.Fatal(r1.Err)
	}
	r2 := eng.Solve(Job{TreeNet: tn2, TargetMult: 1.3})
	if r2.Err != nil {
		t.Fatal(r2.Err)
	}
	if !r2.CacheHit {
		t.Fatal("shape-equal relabeled tree should hit the cache")
	}
	for id := range r2.TreeRes.Solution.Buffers {
		if id < 1000 {
			t.Fatalf("served placement uses the original tree's IDs: %v", r2.TreeRes.Solution.Buffers)
		}
	}
	slack, err := shifted.CloneWithRAT(r2.Target).Evaluate(
		r2.TreeRes.Solution.Buffers, tn2.DriverWidth, node.Rs, node.Co, node.Cp)
	if err != nil {
		t.Fatal(err)
	}
	if slack < 0 {
		t.Errorf("served placement violates the relabeled tree's deadlines (slack %g)", slack)
	}
}

// TestTreeJobCancellation: a cancelled context surfaces as a per-net
// error before the next solver phase.
func TestTreeJobCancellation(t *testing.T) {
	eng := mustEngine(t, Options{Workers: 1})
	tn := treeCorpus(t, 3, 1)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := eng.SolveContext(ctx, Job{TreeNet: tn, TargetMult: 1.3})
	if r.Err == nil {
		t.Fatal("cancelled tree job should fail")
	}
}

// TestMixedConcurrentStress hammers one engine with interleaved tree and
// line jobs from many goroutines — the race detector's target for the
// shared cache, counters and solver pools.
func TestMixedConcurrentStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	lines := corpus(t, 31, 4)
	trees := treeCorpus(t, 32, 4)
	eng := mustEngine(t, Options{Workers: 4})
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 6; i++ {
				var r Result
				if (g+i)%2 == 0 {
					r = eng.Solve(Job{Net: lines[i%len(lines)], TargetMult: 1.3})
				} else {
					r = eng.Solve(Job{TreeNet: trees[i%len(trees)], TargetMult: 1.3})
				}
				if r.Err != nil {
					done <- r.Err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	st := eng.CacheStats()
	if st.Hits == 0 {
		t.Error("repeated mixed traffic should produce cache hits")
	}
}
