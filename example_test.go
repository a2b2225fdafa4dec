package rip_test

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	rip "github.com/rip-eda/rip"
)

// ExampleInsert runs the full hybrid pipeline on a two-segment net and
// prints the repeater count and whether timing was met.
func ExampleInsert() {
	tech := rip.T180()
	line, err := rip.NewLine([]rip.Segment{
		{Length: 6e-3, ROhmPerM: 8e4, CFPerM: 2.3e-10, Layer: "metal4"},
		{Length: 6e-3, ROhmPerM: 6e4, CFPerM: 2.1e-10, Layer: "metal5"},
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	net := &rip.Net{Name: "ex", Line: line, DriverWidth: 240, ReceiverWidth: 80}
	tmin, err := rip.MinimumDelay(net, tech)
	if err != nil {
		log.Fatal(err)
	}
	res, err := rip.Insert(net, tech, 1.5*tmin, rip.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("feasible: %v, repeaters: %d, meets 1.5·τmin: %v\n",
		res.Solution.Feasible, res.Solution.Assignment.N(), res.Solution.Delay <= 1.5*tmin)
	// Output:
	// feasible: true, repeaters: 1, meets 1.5·τmin: true
}

// ExampleSolveWidths shows the analytical KKT width solve: the Lagrange
// condition makes every ∂τ/∂w_i equal to −1/λ.
func ExampleSolveWidths() {
	tech := rip.T180()
	line, err := rip.UniformLine(10e-3, 8e4, 2.3e-10, "metal4")
	if err != nil {
		log.Fatal(err)
	}
	net := &rip.Net{Name: "kkt", Line: line, DriverWidth: 240, ReceiverWidth: 80}
	tmin, err := rip.MinimumDelay(net, tech)
	if err != nil {
		log.Fatal(err)
	}
	wr, err := rip.SolveWidths(net, tech, []float64{2.5e-3, 5e-3, 7.5e-3}, 1.4*tmin)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("widths: %d, λ > 0: %v, delay pinned to target: %v\n",
		len(wr.Widths), wr.Lambda > 0, wr.Delay <= 1.4*tmin*(1+1e-9))
	// Output:
	// widths: 3, λ > 0: true, delay pinned to target: true
}

// ExampleOptimizeBatch optimizes a stream of nets concurrently through
// the batch engine. Results come back in input order, one per net, and
// repeated-signature nets are served from the solution cache instead of
// re-running the dynamic programs. (Workers is pinned to 1 here only so
// the hit pattern is reproducible in the example output.)
func ExampleOptimizeBatch() {
	tech := rip.T180()
	mk := func(name string, lengthMM float64) *rip.Net {
		line, err := rip.UniformLine(lengthMM*1e-3, 8e4, 2.3e-10, "metal4")
		if err != nil {
			log.Fatal(err)
		}
		return &rip.Net{Name: name, Line: line, DriverWidth: 240, ReceiverWidth: 80}
	}
	// bus0/bus1 share one geometry, spine is distinct: two solves, one hit.
	nets := []*rip.Net{mk("bus0", 8), mk("spine", 12), mk("bus1", 8)}
	results, err := rip.OptimizeBatch(nets, tech, 1.3, rip.EngineOptions{Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		fmt.Printf("%s: feasible=%v repeaters=%d cached=%v\n",
			r.Net.Name, r.Res.Solution.Feasible, r.Res.Solution.Assignment.N(), r.CacheHit)
	}
	// Output:
	// bus0: feasible=true repeaters=1 cached=false
	// spine: feasible=true repeaters=2 cached=false
	// bus1: feasible=true repeaters=1 cached=true
}

// ExampleNewEngine_cacheConfiguration builds a long-lived engine with an
// explicit cache geometry and reuses it across calls — the shape a
// service embedding RIP would use. Capacity bounds memory, shards bound
// lock contention, and the quanta define which nets count as
// signature-identical. Hits are re-verified on the actual net before
// being served (illegal or timing-violating assignments fall through to
// a full solve); relative budgets on quantized-neighbor hits use the
// signature's τmin, so widen the quanta only within your timing
// tolerance — see the engine package docs.
func ExampleNewEngine_cacheConfiguration() {
	tech := rip.T180()
	eng, err := rip.NewEngine(tech, rip.EngineOptions{
		Workers: 1,
		Cache: rip.CacheOptions{
			Capacity:      1 << 16, // solutions kept across batches
			Shards:        32,      // lock striping for many workers
			LengthQuantum: 1e-6,    // 1 µm signature grid
			TargetQuantum: 1e-13,   // 0.1 ps embedded tree-deadline grid
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	line, err := rip.UniformLine(9e-3, 8e4, 2.3e-10, "metal4")
	if err != nil {
		log.Fatal(err)
	}
	net := &rip.Net{Name: "clk", Line: line, DriverWidth: 240, ReceiverWidth: 80}
	for i := 0; i < 3; i++ {
		r := eng.Solve(rip.BatchJob{Net: net, TargetMult: 1.25})
		if r.Err != nil {
			log.Fatal(r.Err)
		}
	}
	st := eng.CacheStats()
	fmt.Printf("lookups: %d hits, %d misses, %d entries\n", st.Hits, st.Misses, st.Entries)
	// Output:
	// lookups: 2 hits, 1 misses, 1 entries
}

// ExampleInsertTreeNet runs the hybrid tree pipeline on a hand-built
// three-sink routing tree at 1.3× its minimum achievable worst-sink
// arrival. The same TreeNet solves through the batch engine
// (BatchJob.TreeNet), ripcli -tree and ripd's {"tree": ...} requests.
func ExampleInsertTreeNet() {
	tech := rip.T180()
	// root ── n1 ─┬─ s2 (40 fF sink)
	//             └─ n3 ─┬─ s4 (30 fF sink)
	//                    └─ s5 (30 fF sink)
	sink := func(id int, capFF float64) *rip.TreeNode {
		return &rip.TreeNode{ID: id, EdgeR: 300, EdgeC: 250e-15, SinkCap: capFF * 1e-15}
	}
	n3 := &rip.TreeNode{ID: 3, EdgeR: 350, EdgeC: 280e-15, BufferSite: true,
		Children: []*rip.TreeNode{sink(4, 30), sink(5, 30)}}
	n1 := &rip.TreeNode{ID: 1, EdgeR: 400, EdgeC: 320e-15, BufferSite: true,
		Children: []*rip.TreeNode{sink(2, 40), n3}}
	root := &rip.TreeNode{ID: 0, Children: []*rip.TreeNode{n1}}
	tr, err := rip.NewTree(root)
	if err != nil {
		log.Fatal(err)
	}
	tn := &rip.TreeNet{Name: "clk3", Tree: tr, DriverWidth: 240}

	tmin, err := rip.TreeMinimumDelay(tn, tech)
	if err != nil {
		log.Fatal(err)
	}
	res, err := rip.InsertTreeNet(tn, tech, 1.3*tmin)
	if err != nil {
		log.Fatal(err)
	}
	sol := res.Solution
	fmt.Printf("feasible: %v, buffers: %d, slack ≥ 0: %v\n",
		sol.Feasible, len(sol.Buffers), sol.Slack >= 0)
	// Output:
	// feasible: true, buffers: 2, slack ≥ 0: true
}

// ExampleNewEngine_mixedWorkload runs line and tree nets through one
// engine: both kinds share the worker pool and the solution cache, so a
// repeated tree shape is a verified cache hit. (Workers is pinned to 1
// only so the hit pattern is reproducible in the example output.)
func ExampleNewEngine_mixedWorkload() {
	tech := rip.T180()
	eng, err := rip.NewEngine(tech, rip.EngineOptions{Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	line, err := rip.UniformLine(8e-3, 8e4, 2.3e-10, "metal4")
	if err != nil {
		log.Fatal(err)
	}
	trees, err := rip.GenerateTreeNets(tech, 2005, 1)
	if err != nil {
		log.Fatal(err)
	}
	jobs := []rip.BatchJob{
		{Net: &rip.Net{Name: "bus", Line: line, DriverWidth: 240, ReceiverWidth: 80}, TargetMult: 1.3},
		{TreeNet: trees[0], TargetMult: 1.3},
		{TreeNet: trees[0], TargetMult: 1.3}, // same shape: cache hit
	}
	for _, r := range eng.Run(jobs) {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		switch {
		case r.TreeNet != nil:
			fmt.Printf("tree %s: feasible=%v buffers=%d cached=%v\n",
				r.TreeNet.Name, r.TreeRes.Solution.Feasible, len(r.TreeRes.Solution.Buffers), r.CacheHit)
		default:
			fmt.Printf("line %s: feasible=%v repeaters=%d cached=%v\n",
				r.Net.Name, r.Res.Solution.Feasible, r.Res.Solution.Assignment.N(), r.CacheHit)
		}
	}
	// Output:
	// line bus: feasible=true repeaters=1 cached=false
	// tree tree01: feasible=true buffers=1 cached=false
	// tree tree01: feasible=true buffers=1 cached=true
}

// ExampleEngine_front asks the engine for a net's whole power–delay
// Pareto front — the curve POST /v1/front serves — and then answers a
// three-budget sweep from the same cached front: one job, one solve,
// every budget a lookup. The front runs from the fastest (widest) point
// to the cheapest; a multi-budget BatchJob.Budgets sweep reads answers
// off that curve without re-running any dynamic program.
func ExampleEngine_front() {
	tech := rip.T180()
	eng, err := rip.NewEngine(tech, rip.EngineOptions{Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	line, err := rip.UniformLine(8e-3, 8e4, 2.3e-10, "metal4")
	if err != nil {
		log.Fatal(err)
	}
	net := &rip.Net{Name: "bus", Line: line, DriverWidth: 240, ReceiverWidth: 80}
	fr := eng.Front(rip.BatchJob{Net: net})
	if fr.Err != nil {
		log.Fatal(fr.Err)
	}
	first, last := fr.Points[0], fr.Points[len(fr.Points)-1]
	fmt.Printf("front: %d points, fastest %v wider than cheapest: %v\n",
		len(fr.Points), first.Delay < last.Delay, first.TotalWidth > last.TotalWidth)

	sweep := eng.Solve(rip.BatchJob{Net: net, Budgets: []float64{
		1.2 * fr.TMin, 1.5 * fr.TMin, 3 * fr.TMin,
	}})
	if sweep.Err != nil {
		log.Fatal(sweep.Err)
	}
	for _, ba := range sweep.Sweep {
		fmt.Printf("budget %.2g×τmin: feasible=%v\n", ba.Budget/fr.TMin, ba.Res.Solution.Feasible)
	}
	fmt.Printf("fronts solved: %d (sweep was a cache hit: %v)\n", eng.FrontStats().Solves, sweep.CacheHit)
	// Output:
	// front: 19 points, fastest true wider than cheapest: true
	// budget 1.2×τmin: feasible=true
	// budget 1.5×τmin: feasible=true
	// budget 3×τmin: feasible=true
	// fronts solved: 1 (sweep was a cache hit: true)
}

// ExampleNewEngine_coupled solves one coupled bus wire under pessimistic
// crosstalk (every neighbor switching against the victim) and again with
// staggered repeaters allowed — the same absolute budget, strictly less
// repeater area, because offsetting repeaters in adjacent tracks halves
// the worst-case Miller factor for free. The same two scenarios run as
// `ripcli -aggressor worst [-scheme staggered]` and as
// {"aggressor": "worst", "scheme": "staggered"} on every /v1/* endpoint.
func ExampleNewEngine_coupled() {
	tech := rip.T180() // MillerMax 2, per-layer coupling capacitance
	eng, err := rip.NewEngine(tech, rip.EngineOptions{Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	line, err := rip.NewLine([]rip.Segment{
		{Length: 8e-3, ROhmPerM: 8e4, CFPerM: 2.3e-10, CcFPerM: 1.6e-10, Layer: "metal4"},
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	net := &rip.Net{Name: "bus", Line: line, DriverWidth: 240, ReceiverWidth: 80}

	plain := eng.Solve(rip.BatchJob{Net: net, TargetMult: 1.3, Aggressor: "worst"})
	if plain.Err != nil {
		log.Fatal(plain.Err)
	}
	// Same absolute budget, staggering on the menu.
	stag := eng.Solve(rip.BatchJob{Net: net, Target: plain.Target, Aggressor: "worst", Scheme: "staggered"})
	if stag.Err != nil {
		log.Fatal(stag.Err)
	}
	p, s := plain.Res.Solution, stag.Res.Solution
	fmt.Printf("%s/%s: feasible=%v\n", plain.Aggressor, plain.Scheme, p.Feasible)
	fmt.Printf("%s/%s: feasible=%v, no wider: %v, staggered length > 0: %v\n",
		stag.Aggressor, stag.Scheme, s.Feasible, s.TotalWidth <= p.TotalWidth, s.StaggerLen > 0)
	// Output:
	// worst/plain: feasible=true
	// worst/staggered: feasible=true, no wider: true, staggered length > 0: true
}

// ExampleUniformLibrary builds the paper's coarse library.
func ExampleUniformLibrary() {
	lib, err := rip.UniformLibrary(80, 80, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(lib)
	// Output:
	// {80u,160u,240u,320u,400u}
}

// ExampleNewMultiEngine serves two technology nodes from one engine:
// each job names its node, results carry the canonical name they were
// solved under, and the per-node caches never cross.
func ExampleNewMultiEngine() {
	reg := rip.BuiltinTechRegistry()
	eng, err := rip.NewMultiEngine(reg, "180nm", rip.EngineOptions{Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	line, err := rip.UniformLine(8e-3, 8e4, 2.3e-10, "metal4")
	if err != nil {
		log.Fatal(err)
	}
	net := &rip.Net{Name: "bus", Line: line, DriverWidth: 240, ReceiverWidth: 80}
	jobs := []rip.BatchJob{
		{Net: net, TargetMult: 1.4},               // default node
		{Net: net, Tech: "t65", TargetMult: 1.4},  // alias for 65nm
		{Net: net, Tech: "65nm", TargetMult: 1.4}, // same node: a cache hit
	}
	for _, r := range eng.Run(jobs) {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		fmt.Printf("%s on %s: feasible=%v cached=%v\n", r.Net.Name, r.Tech, r.Res.Solution.Feasible, r.CacheHit)
	}
	// Output:
	// bus on 180nm: feasible=true cached=false
	// bus on 65nm: feasible=true cached=false
	// bus on 65nm: feasible=true cached=true
}

// ExampleLoadTechnology loads a custom node from JSON and registers it
// next to the built-ins, making it addressable per request.
func ExampleLoadTechnology() {
	dir, err := os.MkdirTemp("", "nodes")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	custom := rip.T180()
	custom.Name = "foundry-90lp"
	custom.Vdd = 1.0
	f, err := os.Create(filepath.Join(dir, "foundry-90lp.json"))
	if err != nil {
		log.Fatal(err)
	}
	if err := custom.Write(f); err != nil {
		log.Fatal(err)
	}
	f.Close()

	node, err := rip.LoadTechnology(filepath.Join(dir, "foundry-90lp.json"))
	if err != nil {
		log.Fatal(err)
	}
	reg := rip.BuiltinTechRegistry()
	if err := reg.Register(node.Name, node); err != nil {
		log.Fatal(err)
	}
	reg.Freeze() // immutable from here on
	_, canonical, err := reg.Get("FOUNDRY-90LP")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s at %gV among %d nodes\n", canonical, node.Vdd, reg.Len())
	// Output:
	// foundry-90lp at 1V among 5 nodes
}
