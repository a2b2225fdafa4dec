package engine

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/rip-eda/rip/internal/core"
	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/dp"
	"github.com/rip-eda/rip/internal/netgen"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/units"
	"github.com/rip-eda/rip/internal/wire"
)

func corpus(t *testing.T, seed int64, n int) []*wire.Net { return netgenLines(t, tech.T180(), seed, n) }

// netgenLines returns n netgen lines on node; each carries one forbidden
// zone.
func netgenLines(t testing.TB, node *tech.Technology, seed int64, n int) []*wire.Net {
	t.Helper()
	cfg, err := netgen.DefaultConfig(node)
	if err != nil {
		t.Fatal(err)
	}
	nets, err := netgen.Corpus(seed, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nets
}

func jobsFor(nets []*wire.Net, mult float64) []Job {
	jobs := make([]Job, len(nets))
	for i, n := range nets {
		jobs[i] = Job{Net: n, TargetMult: mult}
	}
	return jobs
}

// TestBatchMatchesSerial: with the cache disabled, the concurrent batch
// must reproduce the serial per-net pipeline bit for bit, in input order.
func TestBatchMatchesSerial(t *testing.T) {
	node := tech.T180()
	nets := corpus(t, 11, 8)
	jobs := jobsFor(nets, 1.3)

	eng, err := New(node, Options{Workers: 4, Cache: CacheOptions{Disabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	got := eng.Run(jobs)

	serial, err := New(node, Options{Workers: 1, Cache: CacheOptions{Disabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		r := got[i]
		if r.Index != i {
			t.Fatalf("result %d has index %d", i, r.Index)
		}
		if r.Err != nil {
			t.Fatalf("net %d: %v", i, r.Err)
		}
		want := serial.Solve(j)
		if want.Err != nil {
			t.Fatalf("serial net %d: %v", i, want.Err)
		}
		if r.Res.Solution.TotalWidth != want.Res.Solution.TotalWidth ||
			r.Res.Solution.Delay != want.Res.Solution.Delay ||
			r.Res.Solution.Feasible != want.Res.Solution.Feasible {
			t.Fatalf("net %d: batch %+v != serial %+v", i, r.Res.Solution, want.Res.Solution)
		}
	}
}

// TestCacheAccounting: with one worker the hit/miss sequence is exact —
// the first pass over d distinct nets misses d times, every repeat hits.
func TestCacheAccounting(t *testing.T) {
	node := tech.T180()
	distinct := corpus(t, 5, 4)
	var nets []*wire.Net
	for rep := 0; rep < 5; rep++ {
		nets = append(nets, distinct...)
	}
	eng, err := New(node, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	results := eng.Run(jobsFor(nets, 1.3))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("net %d: %v", i, r.Err)
		}
		if !r.Res.Solution.Feasible {
			t.Fatalf("net %d unexpectedly infeasible", i)
		}
		if hitWanted := i >= len(distinct); r.CacheHit != hitWanted {
			t.Fatalf("net %d: CacheHit=%v, want %v", i, r.CacheHit, hitWanted)
		}
	}
	st := eng.CacheStats()
	if st.Misses != uint64(len(distinct)) || st.Hits != uint64(len(nets)-len(distinct)) {
		t.Fatalf("stats %+v: want %d misses, %d hits", st, len(distinct), len(nets)-len(distinct))
	}
	if st.Entries != len(distinct) {
		t.Fatalf("entries %d, want %d", st.Entries, len(distinct))
	}
	// A cache hit must agree with the miss that populated it on the
	// quantities that matter, with the delay recomputed on the actual net.
	for i := len(distinct); i < len(results); i++ {
		base := results[i%len(distinct)]
		hit := results[i]
		if hit.Res.Solution.TotalWidth != base.Res.Solution.TotalWidth {
			t.Fatalf("hit %d width %g != base %g", i, hit.Res.Solution.TotalWidth, base.Res.Solution.TotalWidth)
		}
		if math.Abs(hit.Res.Solution.Delay-base.Res.Solution.Delay) > 1e-15 {
			t.Fatalf("hit %d delay %g != base %g", i, hit.Res.Solution.Delay, base.Res.Solution.Delay)
		}
		if hit.TMin != base.TMin {
			t.Fatalf("hit %d τmin %g != base %g", i, hit.TMin, base.TMin)
		}
	}
}

// TestDPStatsAccounting: full solves accumulate DP work counters (τmin +
// coarse + fine per miss) while cache hits contribute nothing.
func TestDPStatsAccounting(t *testing.T) {
	node := tech.T180()
	distinct := corpus(t, 5, 3)
	var nets []*wire.Net
	for rep := 0; rep < 3; rep++ {
		nets = append(nets, distinct...)
	}
	eng, err := New(node, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ds := eng.DPStats(); ds != (DPStats{}) {
		t.Fatalf("fresh engine has non-zero DP stats: %+v", ds)
	}
	for i, r := range eng.Run(jobsFor(nets, 1.3)) {
		if r.Err != nil {
			t.Fatalf("net %d: %v", i, r.Err)
		}
	}
	ds := eng.DPStats()
	// Each of the 3 distinct nets runs exactly τmin + the front sweep;
	// repeats are cache hits and add nothing.
	if ds.Solves < 2*uint64(len(distinct)) {
		t.Fatalf("Solves = %d, want ≥ %d (τmin + front per distinct net)", ds.Solves, 2*len(distinct))
	}
	if ds.Generated == 0 || ds.Kept == 0 || ds.MaxPerLevel == 0 {
		t.Fatalf("work counters not populated: %+v", ds)
	}
	if ds.Kept > ds.Generated {
		t.Fatalf("kept %d exceeds generated %d", ds.Kept, ds.Generated)
	}
	if ds.BudgetAborts != 0 {
		t.Fatalf("unexpected budget aborts: %+v", ds)
	}
	after := eng.DPStats()
	for i, r := range eng.Run(jobsFor(distinct, 1.3)) {
		if r.Err != nil {
			t.Fatalf("hit pass net %d: %v", i, r.Err)
		}
		if !r.CacheHit {
			t.Fatalf("hit pass net %d missed the cache", i)
		}
	}
	if got := eng.DPStats(); got != after {
		t.Fatalf("cache hits changed DP stats: %+v -> %+v", after, got)
	}
}

// TestDPBudgetAbortAccounting: a pipeline work budget small enough to
// trip surfaces per-net dp.ErrBudget failures AND is counted in DPStats,
// with the aborted runs' partial work still accumulated.
func TestDPBudgetAbortAccounting(t *testing.T) {
	node := tech.T180()
	nets := corpus(t, 5, 2)
	cfg := core.DefaultConfig()
	cfg.MaxGenerated = 10 // far below any real net's coarse-DP workload
	eng, err := New(node, Options{Workers: 1, Pipeline: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range eng.Run(jobsFor(nets, 1.3)) {
		if r.Err == nil || !errors.Is(r.Err, dp.ErrBudget) {
			t.Fatalf("net %d: want a dp.ErrBudget failure, got %v", i, r.Err)
		}
	}
	ds := eng.DPStats()
	if ds.BudgetAborts != uint64(len(nets)) {
		t.Fatalf("BudgetAborts = %d, want %d", ds.BudgetAborts, len(nets))
	}
	if ds.Generated == 0 {
		t.Fatal("aborted runs should still contribute their partial generated work")
	}
}

// TestConcurrentCacheInvariants: under full parallelism the exact hit
// split is racy, but every lookup is accounted exactly once and all
// results stay correct. Run with -race.
func TestConcurrentCacheInvariants(t *testing.T) {
	node := tech.T180()
	distinct := corpus(t, 7, 3)
	var nets []*wire.Net
	for rep := 0; rep < 8; rep++ {
		nets = append(nets, distinct...)
	}
	eng, err := New(node, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	results := eng.Run(jobsFor(nets, 1.4))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("net %d: %v", i, r.Err)
		}
		if r.Index != i {
			t.Fatalf("result %d has index %d", i, r.Index)
		}
		if !r.Res.Solution.Feasible {
			t.Fatalf("net %d infeasible", i)
		}
		if r.Res.Solution.Delay > r.Target*(1+1e-12) {
			t.Fatalf("net %d: delay %g exceeds target %g", i, r.Res.Solution.Delay, r.Target)
		}
	}
	st := eng.CacheStats()
	if st.Hits+st.Misses+st.Rejected != uint64(len(nets)) {
		t.Fatalf("lookup accounting leaks: %+v over %d jobs", st, len(nets))
	}
	if st.Misses < uint64(len(distinct)) {
		t.Fatalf("fewer misses (%d) than distinct nets (%d)", st.Misses, len(distinct))
	}
}

// TestErrorIsolation: malformed jobs fail individually without touching
// their neighbors, and infeasible nets are a verdict, not an error.
func TestErrorIsolation(t *testing.T) {
	node := tech.T180()
	nets := corpus(t, 3, 2)
	jobs := []Job{
		{Net: nets[0], TargetMult: 1.3},
		{Net: nil, TargetMult: 1.3},
		{Net: nets[1]},                                // no target at all
		{Net: nets[1], TargetMult: 1.2, Target: 1e-9}, // both targets
		{Net: nets[1], Target: 1e-15},                 // absurd target: infeasible, not an error
		{Net: nets[0], TargetMult: 1.3},
	}
	// One worker so the final job deterministically runs after the first
	// has populated the cache.
	eng, err := New(node, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	results := eng.Run(jobs)
	wantErr := []bool{false, true, true, true, false, false}
	for i, r := range results {
		if (r.Err != nil) != wantErr[i] {
			t.Fatalf("job %d: err=%v, want error=%v", i, r.Err, wantErr[i])
		}
	}
	if results[4].Res.Solution.Feasible {
		t.Fatal("femtosecond target cannot be feasible")
	}
	if !results[0].Res.Solution.Feasible || !results[5].Res.Solution.Feasible {
		t.Fatal("good jobs should have solved around the bad ones")
	}
	if !results[5].CacheHit {
		t.Fatal("repeated good job should hit the cache")
	}
}

// TestRunStream: streaming emits every result exactly once, in input
// order, even with a head-of-line job and full parallelism.
func TestRunStream(t *testing.T) {
	node := tech.T180()
	nets := corpus(t, 9, 6)
	const total = 48
	in := make(chan Job)
	eng, err := New(node, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	out := eng.RunStream(in)
	go func() {
		defer close(in)
		for i := 0; i < total; i++ {
			in <- Job{Net: nets[i%len(nets)], TargetMult: 1.25}
		}
	}()
	next := 0
	for r := range out {
		if r.Index != next {
			t.Fatalf("stream emitted index %d, want %d", r.Index, next)
		}
		if r.Err != nil {
			t.Fatalf("net %d: %v", r.Index, r.Err)
		}
		next++
	}
	if next != total {
		t.Fatalf("stream emitted %d results, want %d", next, total)
	}
}

// TestEviction: a capacity-bounded cache evicts and keeps working.
func TestEviction(t *testing.T) {
	node := tech.T180()
	nets := corpus(t, 13, 6)
	eng, err := New(node, Options{Workers: 1, Cache: CacheOptions{Capacity: 2, Shards: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 2; rep++ {
		for _, r := range eng.Run(jobsFor(nets, 1.3)) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}
	st := eng.CacheStats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions with capacity 2 over %d distinct nets", len(nets))
	}
	if st.Entries > 2 {
		t.Fatalf("cache holds %d entries, capacity 2", st.Entries)
	}
}

// TestAbsoluteTargetCaching: absolute-target jobs cache and verify too.
func TestAbsoluteTargetCaching(t *testing.T) {
	node := tech.T180()
	net := corpus(t, 17, 1)[0]
	eng, err := New(node, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	target := 2 * units.NanoSecond
	first := eng.Solve(Job{Net: net, Target: target})
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	second := eng.Solve(Job{Net: net, Target: target})
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	if !first.Res.Solution.Feasible {
		t.Skip("2 ns infeasible for this net; corpus drifted")
	}
	if !second.CacheHit {
		t.Fatal("identical absolute-target job should hit")
	}
	if second.Res.Solution.TotalWidth != first.Res.Solution.TotalWidth {
		t.Fatalf("hit width %g != miss width %g", second.Res.Solution.TotalWidth, first.Res.Solution.TotalWidth)
	}
}

// TestVerifiedHitRejection: an entry whose assignment is illegal on a
// signature-equal net must be rejected, not served. We force this by
// planting a quantized twin whose forbidden zone moved onto the cached
// repeater position (within the same 1 µm signature grid this cannot
// happen, so the twin uses a custom coarse quantum).
func TestVerifiedHitRejection(t *testing.T) {
	node := tech.T180()
	// A 10 mm uniform line; target forces several repeaters.
	mk := func(zoneStart, zoneEnd float64) *wire.Net {
		line, err := wire.New([]wire.Segment{
			{Length: 10e-3, ROhmPerM: 8e4, CFPerM: 2.3e-10, Layer: "metal4"},
		}, []wire.Zone{{Start: zoneStart, End: zoneEnd}})
		if err != nil {
			t.Fatal(err)
		}
		return &wire.Net{Name: "twin", Line: line, DriverWidth: 240, ReceiverWidth: 80}
	}
	// A 10 mm quantum collapses zone [1, 3] mm and zone [4, 4.9] mm to
	// the same signature even though their legal position sets differ
	// drastically: both bounds round to grid index 0.
	eng, err := New(node, Options{Workers: 1, Cache: CacheOptions{LengthQuantum: 10e-3}})
	if err != nil {
		t.Fatal(err)
	}
	a := eng.Solve(Job{Net: mk(1e-3, 3e-3), TargetMult: 1.2})
	if a.Err != nil {
		t.Fatal(a.Err)
	}
	if !a.Res.Solution.Feasible || a.Res.Solution.Assignment.N() == 0 {
		t.Fatalf("setup net should need repeaters, got %+v", a.Res.Solution)
	}
	b := eng.Solve(Job{Net: mk(4e-3, 4.9e-3), TargetMult: 1.2})
	if b.Err != nil {
		t.Fatal(b.Err)
	}
	// Whether the twin hit or was rejected, the served solution must be
	// legal for ITS net — that is the verification guarantee.
	evB, err := delay.NewEvaluator(mk(4e-3, 4.9e-3), node)
	if err != nil {
		t.Fatal(err)
	}
	if b.Res.Solution.Feasible {
		if err := evB.Validate(b.Res.Solution.Assignment); err != nil {
			t.Fatalf("served solution illegal on its own net: %v", err)
		}
	}
	st := eng.CacheStats()
	if st.Rejected == 0 && b.CacheHit {
		// Served from cache — then it must have verified legal above.
		t.Log("twin verified cleanly; rejection path not exercised this run")
	}
}

// TestPipelineConfigRespected: a non-default pipeline config flows
// through the engine into the native front space — the engine's answer
// must be bit-identical to a direct front solve over the space derived
// from that config.
func TestPipelineConfigRespected(t *testing.T) {
	node := tech.T180()
	net := corpus(t, 19, 1)[0]
	cfg := core.DefaultConfig()
	cfg.CoarsePitch = 400 * units.Micron
	cfg.RoundGranularity = 20 // front step 80u instead of the default 40u
	eng, err := New(node, Options{Workers: 1, Pipeline: cfg, Cache: CacheOptions{Disabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	r := eng.Solve(Job{Net: net, TargetMult: 1.3})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Res.Report.Picked != core.PhaseFront {
		t.Fatalf("picked %q, want %q", r.Res.Report.Picked, core.PhaseFront)
	}
	ev, err := delay.NewEvaluator(net, node)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := frontOptions(cfg)
	if err != nil {
		t.Fatal(err)
	}
	front, _, err := dp.SolveFront(ev, opts)
	if err != nil {
		t.Fatal(err)
	}
	idx, ok := front.At(r.Target)
	if !ok {
		t.Fatalf("direct front cannot meet target %g the engine met", r.Target)
	}
	want := front[idx]
	if r.Res.Solution.Delay != want.Delay || r.Res.Solution.TotalWidth != want.TotalWidth {
		t.Fatalf("engine (%g, %g) != direct front point (%g, %g) under custom config",
			r.Res.Solution.Delay, r.Res.Solution.TotalWidth, want.Delay, want.TotalWidth)
	}
	// The generation budget flows too: a tiny cap must abort the sweep.
	capped := core.DefaultConfig()
	capped.MaxGenerated = 10
	eng2, err := New(node, Options{Workers: 1, Pipeline: capped, Cache: CacheOptions{Disabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	if r := eng2.Solve(Job{Net: net, TargetMult: 1.3}); !errors.Is(r.Err, dp.ErrBudget) {
		t.Fatalf("capped engine err = %v, want dp.ErrBudget", r.Err)
	}
}

// TestSolveContextCancelled: a cancelled context short-circuits before
// any solver phase and surfaces as a per-job error that errors.Is-matches
// the context error.
func TestSolveContextCancelled(t *testing.T) {
	node := tech.T180()
	net := corpus(t, 23, 1)[0]
	eng, err := New(node, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := eng.SolveContext(ctx, Job{Net: net, TargetMult: 1.3})
	if r.Err == nil {
		t.Fatal("cancelled context should fail the job")
	}
	if !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("err %v should wrap context.Canceled", r.Err)
	}
	st := eng.CacheStats()
	if st.Hits+st.Misses+st.Rejected != 0 {
		t.Fatalf("cancelled job should not touch the cache: %+v", st)
	}
}

// TestRunContextCancelMidBatch: cancelling mid-batch fills every result
// slot — some solved, the rest context errors — and never deadlocks.
func TestRunContextCancelMidBatch(t *testing.T) {
	node := tech.T180()
	distinct := corpus(t, 29, 4)
	var nets []*wire.Net
	for rep := 0; rep < 16; rep++ {
		nets = append(nets, distinct...)
	}
	eng, err := New(node, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before start: every job must error, none may hang
	results := eng.RunContext(ctx, jobsFor(nets, 1.3))
	if len(results) != len(nets) {
		t.Fatalf("got %d results, want %d", len(results), len(nets))
	}
	for i, r := range results {
		if r.Err == nil {
			t.Fatalf("job %d solved under a cancelled context", i)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("job %d: err %v should wrap context.Canceled", i, r.Err)
		}
	}
}

// TestRunStreamContextDeadline: an already-expired deadline drains the
// stream (ordered, one result per job) instead of solving or hanging.
func TestRunStreamContextDeadline(t *testing.T) {
	node := tech.T180()
	nets := corpus(t, 31, 3)
	eng, err := New(node, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	in := make(chan Job)
	out := eng.RunStreamContext(ctx, in)
	go func() {
		defer close(in)
		for i := 0; i < 12; i++ {
			in <- Job{Net: nets[i%len(nets)], TargetMult: 1.3}
		}
	}()
	next := 0
	for r := range out {
		if r.Index != next {
			t.Fatalf("stream emitted index %d, want %d", r.Index, next)
		}
		if !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Fatalf("job %d: err %v should wrap context.DeadlineExceeded", r.Index, r.Err)
		}
		next++
	}
	if next != 12 {
		t.Fatalf("stream emitted %d results, want 12", next)
	}
}

// TestSolveQueueCancellation: a job queued behind a saturated engine-wide
// worker budget honors cancellation while waiting for a slot.
func TestSolveQueueCancellation(t *testing.T) {
	node := tech.T180()
	net := corpus(t, 47, 1)[0]
	eng, err := New(node, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.solveSlots <- struct{}{} // occupy the only slot
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	r := eng.SolveContext(ctx, Job{Net: net, TargetMult: 1.3})
	if !errors.Is(r.Err, context.DeadlineExceeded) {
		t.Fatalf("queued job err %v, want deadline exceeded", r.Err)
	}
	<-eng.solveSlots // release; the engine must be fully usable again
	if r := eng.Solve(Job{Net: net, TargetMult: 1.3}); r.Err != nil {
		t.Fatalf("post-release solve: %v", r.Err)
	}
}

// TestOverlappingRunsShareWorkerBudget: concurrent Run calls on one
// engine complete correctly while sharing the engine-wide solve bound.
// Run with -race.
func TestOverlappingRunsShareWorkerBudget(t *testing.T) {
	node := tech.T180()
	nets := corpus(t, 53, 3)
	eng, err := New(node, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	const callers = 3
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, r := range eng.Run(jobsFor(nets, 1.3)) {
				if r.Err != nil {
					t.Errorf("net %d: %v", i, r.Err)
				}
				if !r.Res.Solution.Feasible {
					t.Errorf("net %d infeasible", i)
				}
			}
		}()
	}
	wg.Wait()
	st := eng.CacheStats()
	if st.Hits+st.Misses+st.Rejected != uint64(callers*len(nets)) {
		t.Fatalf("lookup accounting leaks across overlapping runs: %+v", st)
	}
}
