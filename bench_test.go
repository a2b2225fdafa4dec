// Benchmarks regenerating the paper's evaluation, one benchmark per table
// or figure:
//
//	BenchmarkTable1_*    — one Table 1 cell: RIP and each baseline DP
//	BenchmarkTable2_*    — Table 2's runtime column: DP cost vs gDP, and RIP
//	BenchmarkFigure7_*   — one Figure 7 sample point per panel
//	BenchmarkAblation_*  — pipeline-variant costs (see experiments.Ablations)
//	Benchmark<micro>     — substrate costs (Elmore, width solve, REFINE)
//
// Benchmarks measure cost, not quality; the quality numbers are printed by
// cmd/ripbench.
package rip_test

import (
	"context"
	mrand "math/rand"
	"testing"

	rip "github.com/rip-eda/rip"
	"github.com/rip-eda/rip/internal/core"
	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/dp"
	"github.com/rip-eda/rip/internal/repeater"
	"github.com/rip-eda/rip/internal/sim"
	"github.com/rip-eda/rip/internal/tree"
	"github.com/rip-eda/rip/internal/units"
)

// benchCase lazily prepares one mid-corpus net with its τmin.
type benchCase struct {
	net    *rip.Net
	tech   *rip.Technology
	ev     *delay.Evaluator
	tmin   float64
	target float64
	// positions are three legal repeater slots spread across the net,
	// used by the width-solve and REFINE microbenchmarks.
	positions []float64
}

var benchShared *benchCase

func benchSetup(b *testing.B) *benchCase {
	b.Helper()
	if benchShared != nil {
		return benchShared
	}
	tech := rip.T180()
	nets, err := rip.GenerateNets(tech, 2005, 20)
	if err != nil {
		b.Fatal(err)
	}
	net := nets[7] // a representative mid-corpus net
	ev, err := delay.NewEvaluator(net, tech)
	if err != nil {
		b.Fatal(err)
	}
	tmin, err := rip.MinimumDelay(net, tech)
	if err != nil {
		b.Fatal(err)
	}
	legal := net.Line.LegalPositions(200 * units.Micron)
	if len(legal) < 3 {
		b.Fatal("bench net has too few legal positions")
	}
	positions := []float64{
		legal[len(legal)/4],
		legal[len(legal)/2],
		legal[3*len(legal)/4],
	}
	benchShared = &benchCase{net: net, tech: tech, ev: ev, tmin: tmin, target: 1.3 * tmin, positions: positions}
	return benchShared
}

func benchLib(b *testing.B, min, step float64, n int) repeater.Library {
	b.Helper()
	l, err := repeater.Uniform(min, step, n)
	if err != nil {
		b.Fatal(err)
	}
	return l
}

func benchRange(b *testing.B, g float64) repeater.Library {
	b.Helper()
	l, err := repeater.Range(10, 400, g)
	if err != nil {
		b.Fatal(err)
	}
	return l
}

// --- Table 1: one cell of the per-net comparison ---

func BenchmarkTable1_RIP(b *testing.B) {
	c := benchSetup(b)
	for i := 0; i < b.N; i++ {
		res, err := core.Insert(c.ev, c.target, core.DefaultConfig())
		if err != nil || !res.Solution.Feasible {
			b.Fatalf("err=%v feasible=%v", err, res.Solution.Feasible)
		}
	}
}

func benchmarkTable1DP(b *testing.B, g float64) {
	c := benchSetup(b)
	lib := benchLib(b, 10, g, 10)
	for i := 0; i < b.N; i++ {
		_, err := dp.Solve(c.ev, dp.Options{
			Library: lib, Pitch: 200 * units.Micron,
			Objective: dp.MinPower, Target: c.target,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_DP_g10(b *testing.B) { benchmarkTable1DP(b, 10) }
func BenchmarkTable1_DP_g20(b *testing.B) { benchmarkTable1DP(b, 20) }
func BenchmarkTable1_DP_g40(b *testing.B) { benchmarkTable1DP(b, 40) }

// --- Table 2: DP cost growth with library granularity vs flat RIP cost ---

func benchmarkTable2DP(b *testing.B, g float64) {
	c := benchSetup(b)
	lib := benchRange(b, g)
	for i := 0; i < b.N; i++ {
		_, err := dp.Solve(c.ev, dp.Options{
			Library: lib, Pitch: 200 * units.Micron,
			Objective: dp.MinPower, Target: c.target,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_DP_gDP40(b *testing.B) { benchmarkTable2DP(b, 40) }
func BenchmarkTable2_DP_gDP30(b *testing.B) { benchmarkTable2DP(b, 30) }
func BenchmarkTable2_DP_gDP20(b *testing.B) { benchmarkTable2DP(b, 20) }
func BenchmarkTable2_DP_gDP10(b *testing.B) { benchmarkTable2DP(b, 10) }

func BenchmarkTable2_RIP(b *testing.B) {
	c := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := core.Insert(c.ev, c.target, core.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 7: one sample point per panel (RIP + baseline at one target) ---

func benchmarkFigure7Point(b *testing.B, g float64) {
	c := benchSetup(b)
	lib := benchLib(b, 10, g, 10)
	for i := 0; i < b.N; i++ {
		if _, err := core.Insert(c.ev, c.target, core.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
		if _, err := dp.Solve(c.ev, dp.Options{
			Library: lib, Pitch: 200 * units.Micron,
			Objective: dp.MinPower, Target: c.target,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7a_Point(b *testing.B) { benchmarkFigure7Point(b, 10) }
func BenchmarkFigure7b_Point(b *testing.B) { benchmarkFigure7Point(b, 40) }

// --- Ablation benches: a subset of experiments.Ablations' variants ---

func benchmarkAblation(b *testing.B, mut func(*core.Config)) {
	c := benchSetup(b)
	cfg := core.DefaultConfig()
	mut(&cfg)
	for i := 0; i < b.N; i++ {
		if _, err := core.Insert(c.ev, c.target, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_Window2(b *testing.B) {
	benchmarkAblation(b, func(c *core.Config) { c.LocalWindow = 2 })
}
func BenchmarkAblation_Window20(b *testing.B) {
	benchmarkAblation(b, func(c *core.Config) { c.LocalWindow = 20 })
}
func BenchmarkAblation_Refine3(b *testing.B) {
	benchmarkAblation(b, func(c *core.Config) { c.RefinePasses = 3 })
}
func BenchmarkAblation_ZoneCrossing(b *testing.B) {
	benchmarkAblation(b, func(c *core.Config) { c.Refine.ZoneCrossing = true })
}

// --- Substrate microbenchmarks ---

func BenchmarkElmoreTotal(b *testing.B) {
	c := benchSetup(b)
	a := delay.Assignment{
		Positions: c.positions,
		Widths:    []float64{200, 180, 150},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.ev.Total(a)
	}
}

func BenchmarkWidthSolve(b *testing.B) {
	c := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveWidths(c.ev, c.positions, c.target, core.WidthOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRefine(b *testing.B) {
	c := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := core.Refine(c.ev, c.positions, c.target, core.RefineOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoarseDP(b *testing.B) {
	c := benchSetup(b)
	lib := benchLib(b, 80, 80, 5)
	for i := 0; i < b.N; i++ {
		if _, err := dp.Solve(c.ev, dp.Options{
			Library: lib, Pitch: 200 * units.Micron,
			Objective: dp.MinPower, Target: c.target,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Tree extension (§7): insertion cost on a random 8-sink tree ---

func BenchmarkTreeInsert(b *testing.B) {
	tech := rip.T180()
	cfg, err := tree.DefaultGenConfig(tech)
	if err != nil {
		b.Fatal(err)
	}
	rng := newBenchRand()
	tr, err := tree.Generate(rng, cfg)
	if err != nil {
		b.Fatal(err)
	}
	lib := benchLib(b, 60, 60, 5)
	for i := 0; i < b.N; i++ {
		if _, err := tree.Insert(tr, tree.Options{Library: lib, Tech: tech, DriverWidth: 240}); err != nil {
			b.Fatal(err)
		}
	}
}

// newBenchRand returns a fixed-seed source so tree benches are stable.
func newBenchRand() *mrand.Rand { return mrand.New(mrand.NewSource(2005)) }

// BenchmarkTreeHybrid measures the tree RIP pipeline on the same instance
// BenchmarkTreeInsert uses with a fine library, exposing the cost gap the
// TreeStudy experiment reports.
func BenchmarkTreeHybrid(b *testing.B) {
	tech := rip.T180()
	cfg, err := tree.DefaultGenConfig(tech)
	if err != nil {
		b.Fatal(err)
	}
	rng := newBenchRand()
	tr, err := tree.Generate(rng, cfg)
	if err != nil {
		b.Fatal(err)
	}
	fine := benchRange(b, 10)
	opts := tree.Options{Library: fine, Tech: tech, DriverWidth: 240}
	for i := 0; i < b.N; i++ {
		if _, err := tree.InsertHybrid(tr, opts, tree.HybridConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeFineDP is the expensive comparator for BenchmarkTreeHybrid.
func BenchmarkTreeFineDP(b *testing.B) {
	tech := rip.T180()
	cfg, err := tree.DefaultGenConfig(tech)
	if err != nil {
		b.Fatal(err)
	}
	rng := newBenchRand()
	tr, err := tree.Generate(rng, cfg)
	if err != nil {
		b.Fatal(err)
	}
	fine := benchRange(b, 10)
	opts := tree.Options{Library: fine, Tech: tech, DriverWidth: 240}
	for i := 0; i < b.N; i++ {
		if _, err := tree.Insert(tr, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Batch engine: chip-scale throughput (ISSUE 1 tentpole) ---
//
// The workload tiles `distinct` generated nets to `total` jobs, modeling
// real designs where buses and arrayed macros repeat net geometry. The
// serial baseline is the one-net-at-a-time facade loop (τmin + Insert per
// net); the engine variants measure the worker pool alone (NoCache), a
// cold shared cache (intra-run repeats hit), and a pre-warmed cache.

func batchBenchJobs(b *testing.B, distinct, total int) []rip.BatchJob {
	b.Helper()
	nets, err := rip.GenerateNets(rip.T180(), 2005, distinct)
	if err != nil {
		b.Fatal(err)
	}
	jobs := make([]rip.BatchJob, total)
	for i := range jobs {
		jobs[i] = rip.BatchJob{Net: nets[i%distinct], TargetMult: 1.3}
	}
	return jobs
}

func reportNetsPerSec(b *testing.B, total int) {
	b.Helper()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(total*b.N)/s, "nets/s")
	}
}

func benchmarkBatchSerial(b *testing.B, distinct, total int) {
	tech := rip.T180()
	jobs := batchBenchJobs(b, distinct, total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			tmin, err := rip.MinimumDelay(j.Net, tech)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := rip.Insert(j.Net, tech, j.TargetMult*tmin, rip.DefaultConfig()); err != nil {
				b.Fatal(err)
			}
		}
	}
	reportNetsPerSec(b, total)
}

func benchmarkBatchEngine(b *testing.B, distinct, total int, cache rip.CacheOptions, warm bool) {
	benchmarkBatchEngineJobs(b, batchBenchJobs(b, distinct, total), cache, warm)
}

func BenchmarkBatch_1k_Serial(b *testing.B) { benchmarkBatchSerial(b, 100, 1000) }
func BenchmarkBatch_1k_Parallel_NoCache(b *testing.B) {
	benchmarkBatchEngine(b, 100, 1000, rip.CacheOptions{Disabled: true}, false)
}
func BenchmarkBatch_1k_Cold(b *testing.B) {
	benchmarkBatchEngine(b, 100, 1000, rip.CacheOptions{}, false)
}
func BenchmarkBatch_1k_Warm(b *testing.B) {
	benchmarkBatchEngine(b, 100, 1000, rip.CacheOptions{}, true)
}

// All-distinct variants isolate the zero-hit-rate cost: every lookup
// misses, so this measures pure signature+bookkeeping overhead on top of
// the worker pool.
func BenchmarkBatch_1k_AllDistinct_Cold(b *testing.B) {
	benchmarkBatchEngine(b, 1000, 1000, rip.CacheOptions{}, false)
}

func BenchmarkBatch_10k_Serial(b *testing.B) { benchmarkBatchSerial(b, 250, 10000) }
func BenchmarkBatch_10k_Cold(b *testing.B) {
	benchmarkBatchEngine(b, 250, 10000, rip.CacheOptions{}, false)
}
func BenchmarkBatch_10k_Warm(b *testing.B) {
	benchmarkBatchEngine(b, 250, 10000, rip.CacheOptions{}, true)
}

// Tree and mixed batches: the engine's polymorphic work items. The tree
// workload tiles `distinct` generated trees to `total` jobs; Mixed
// interleaves lines and trees 1:1, the shape a real netlist hands the
// service.

func batchBenchTreeJobs(b *testing.B, distinct, total int) []rip.BatchJob {
	b.Helper()
	nets, err := rip.GenerateTreeNets(rip.T180(), 2005, distinct)
	if err != nil {
		b.Fatal(err)
	}
	jobs := make([]rip.BatchJob, total)
	for i := range jobs {
		jobs[i] = rip.BatchJob{TreeNet: nets[i%distinct], TargetMult: 1.3}
	}
	return jobs
}

func benchmarkBatchEngineJobs(b *testing.B, jobs []rip.BatchJob, cache rip.CacheOptions, warm bool) {
	b.Helper()
	tech := rip.T180()
	eng, err := rip.NewEngine(tech, rip.EngineOptions{Cache: cache})
	if err != nil {
		b.Fatal(err)
	}
	if warm {
		eng.Run(jobs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !warm && !cache.Disabled {
			// Cold means cold: fresh cache each iteration.
			b.StopTimer()
			eng, err = rip.NewEngine(tech, rip.EngineOptions{Cache: cache})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		for _, r := range eng.Run(jobs) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	reportNetsPerSec(b, len(jobs))
}

func BenchmarkBatchTree_1k_Cold(b *testing.B) {
	benchmarkBatchEngineJobs(b, batchBenchTreeJobs(b, 100, 1000), rip.CacheOptions{}, false)
}
func BenchmarkBatchTree_1k_Warm(b *testing.B) {
	benchmarkBatchEngineJobs(b, batchBenchTreeJobs(b, 100, 1000), rip.CacheOptions{}, true)
}
func BenchmarkBatchMixed_1k_Cold(b *testing.B) {
	lines := batchBenchJobs(b, 50, 500)
	trees := batchBenchTreeJobs(b, 50, 500)
	jobs := make([]rip.BatchJob, 0, 1000)
	for i := 0; i < 500; i++ {
		jobs = append(jobs, lines[i], trees[i])
	}
	benchmarkBatchEngineJobs(b, jobs, rip.CacheOptions{}, false)
}

// Multi-budget batches: the front-native workload — every job asks for a
// 10-budget ladder, all answered from one cached front per distinct
// shape. Ladders are relative to each net's own τmin so every budget is
// feasible; an infeasible budget would reject the cached entry and force
// a fresh solve, hiding the front's leverage.

func batchBenchMultiBudgetJobs(b *testing.B, distinct, total int) []rip.BatchJob {
	b.Helper()
	tech := rip.T180()
	nets, err := rip.GenerateNets(tech, 2005, distinct)
	if err != nil {
		b.Fatal(err)
	}
	ladders := make([][]float64, distinct)
	for i, n := range nets {
		tmin, err := rip.MinimumDelay(n, tech)
		if err != nil {
			b.Fatal(err)
		}
		ladder := make([]float64, 10)
		for k := range ladder {
			ladder[k] = (1.3 + 0.17*float64(k)) * tmin
		}
		ladders[i] = ladder
	}
	jobs := make([]rip.BatchJob, total)
	for i := range jobs {
		jobs[i] = rip.BatchJob{Net: nets[i%distinct], Budgets: ladders[i%distinct]}
	}
	return jobs
}

func BenchmarkBatchMultiBudget_1k_Cold(b *testing.B) {
	benchmarkBatchEngineJobs(b, batchBenchMultiBudgetJobs(b, 100, 1000), rip.CacheOptions{}, false)
}
func BenchmarkBatchMultiBudget_1k_Warm(b *testing.B) {
	benchmarkBatchEngineJobs(b, batchBenchMultiBudgetJobs(b, 100, 1000), rip.CacheOptions{}, true)
}

// BenchmarkFrontLookup isolates the warm-path cost of answering one
// budget from an already-cached front: signature, front point selection,
// and the verifying re-evaluation on the actual net — no DP solve.
func BenchmarkFrontLookup(b *testing.B) {
	c := benchSetup(b)
	eng, err := rip.NewEngine(c.tech, rip.EngineOptions{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	job := rip.BatchJob{Net: c.net, Target: c.target}
	if r := eng.Solve(job); r.Err != nil {
		b.Fatal(r.Err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := eng.Solve(job); r.Err != nil {
			b.Fatal(r.Err)
		}
	}
	st := eng.CacheStats()
	if st.Misses != 1 || st.Rejected != 0 {
		b.Fatalf("lookup bench should only hit after the first solve: %+v", st)
	}
}

// Multi-technology batches: the same tiled workload spread round-robin
// over all four built-in nodes through one MultiEngine — the mixed-node
// JSONL shape ripd serves. Cold measures per-node cache fill plus
// routing; Warm the steady state where every node's cache is hot.

func batchBenchMultiTechJobs(b *testing.B, distinct, total int) []rip.BatchJob {
	b.Helper()
	techs := []string{"180nm", "130nm", "90nm", "65nm"}
	jobs := batchBenchJobs(b, distinct, total)
	for i := range jobs {
		jobs[i].Tech = techs[i%len(techs)]
	}
	return jobs
}

func benchmarkBatchMultiTech(b *testing.B, distinct, total int, warm bool) {
	b.Helper()
	jobs := batchBenchMultiTechJobs(b, distinct, total)
	newEng := func() *rip.MultiEngine {
		eng, err := rip.NewMultiEngine(rip.BuiltinTechRegistry(), "180nm", rip.EngineOptions{})
		if err != nil {
			b.Fatal(err)
		}
		return eng
	}
	eng := newEng()
	if warm {
		eng.Run(jobs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !warm {
			// Cold means cold: fresh per-node caches each iteration.
			b.StopTimer()
			eng = newEng()
			b.StartTimer()
		}
		for _, r := range eng.Run(jobs) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	reportNetsPerSec(b, len(jobs))
}

func BenchmarkBatchMultiTech_1k_Cold(b *testing.B) { benchmarkBatchMultiTech(b, 100, 1000, false) }
func BenchmarkBatchMultiTech_1k_Warm(b *testing.B) { benchmarkBatchMultiTech(b, 100, 1000, true) }

// BenchmarkSimStage measures the transient golden-model cost per stage.
func BenchmarkSimStage(b *testing.B) {
	c := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := sim.StageDelay50(c.net.Line, c.tech, c.positions[0], c.positions[1], 200, 150); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Bus co-optimization: joint track-group solves (ISSUE 10 tentpole) ---
//
// The workload is a deterministic corpus of bus groups (2–6 parallel
// tracks each). Cold builds a fresh engine per iteration, so every
// (track shape, factor) front is solved live; Warm reuses one engine,
// so groups serve entirely from the shared solution cache — the
// steady-state cost of a bus request on a long-lived ripd.

func busBenchJobs(b *testing.B, groups int) []rip.BusJob {
	b.Helper()
	gs, err := rip.GenerateBusGroups(rip.T180(), 2005, groups)
	if err != nil {
		b.Fatal(err)
	}
	jobs := make([]rip.BusJob, len(gs))
	for i, g := range gs {
		jobs[i] = rip.BusJob{Tracks: g, TargetMult: 1.3}
	}
	return jobs
}

// busDistinctJobs is busBenchJobs with every track a distinct netgen
// line, the same group sizes: no track copies another, so no member
// answer is shared.
func busDistinctJobs(b *testing.B, groups int) []rip.BusJob {
	b.Helper()
	jobs := busBenchJobs(b, groups)
	total := 0
	for _, j := range jobs {
		total += len(j.Tracks)
	}
	nets, err := rip.GenerateNets(rip.T180(), 2005, total)
	if err != nil {
		b.Fatal(err)
	}
	for i := range jobs {
		n := len(jobs[i].Tracks)
		jobs[i].Tracks, nets = nets[:n], nets[n:]
	}
	return jobs
}

func benchmarkBusSolve(b *testing.B, jobs []rip.BusJob, warm bool) {
	newEng := func() *rip.Engine {
		eng, err := rip.NewEngine(rip.T180(), rip.EngineOptions{})
		if err != nil {
			b.Fatal(err)
		}
		return eng
	}
	eng := newEng()
	ctx := context.Background()
	tracks := 0
	for _, j := range jobs {
		tracks += len(j.Tracks)
	}
	if warm {
		for _, j := range jobs {
			if br := eng.SolveBus(ctx, j); br.Err != nil {
				b.Fatal(br.Err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !warm {
			b.StopTimer()
			eng = newEng()
			b.StartTimer()
		}
		for _, j := range jobs {
			if br := eng.SolveBus(ctx, j); br.Err != nil {
				b.Fatal(br.Err)
			}
		}
	}
	reportNetsPerSec(b, tracks)
}

func BenchmarkBusSolve_Cold(b *testing.B) { benchmarkBusSolve(b, busBenchJobs(b, 8), false) }
func BenchmarkBusSolve_Warm(b *testing.B) { benchmarkBusSolve(b, busBenchJobs(b, 8), true) }

// BenchmarkBusSolve_WarmDistinct replays 8 groups of distinct tracks on a
// warm engine, where grouping renamed copies finds none and is pure cost.
func BenchmarkBusSolve_WarmDistinct(b *testing.B) { benchmarkBusSolve(b, busDistinctJobs(b, 8), true) }
