// Package rip is a Go reproduction of "RIP: An Efficient Hybrid Repeater
// Insertion Scheme for Low Power" (Liu, Peng, Papaefthymiou — DATE 2005).
//
// Given a routed two-pin global interconnect — segments with per-unit RC,
// forbidden zones under macro blocks, fixed driver and receiver — and a
// timing budget, RIP computes the number, widths and locations of repeaters
// that meet the budget with minimum repeater power (equivalently, minimum
// total repeater width). The hybrid pipeline combines:
//
//  1. a coarse van Ginneken / Lillis dynamic program,
//  2. REFINE — an analytical Lagrangian solver that sizes repeaters
//     continuously and moves them along the line using one-sided Elmore
//     delay derivatives, and
//  3. a final dynamic program over a concise library and candidate set
//     synthesized from the analytical solution.
//
// # Quick start
//
//	t := rip.T180()
//	line, _ := rip.NewLine([]rip.Segment{
//		{Length: 5e-3, ROhmPerM: 8e4, CFPerM: 2.3e-10, Layer: "metal4"},
//	}, nil)
//	net := &rip.Net{Name: "n", Line: line, DriverWidth: 240, ReceiverWidth: 80}
//	tmin, _ := rip.MinimumDelay(net, t)
//	res, _ := rip.Insert(net, t, 1.3*tmin, rip.DefaultConfig())
//	fmt.Println(res.Solution.Assignment)
//
// # Batch optimization
//
// For chip-scale workloads, OptimizeBatch and NewEngine fan nets out
// over a worker pool with a sharded LRU solution cache keyed by
// canonical net signature, so repeated-geometry nets are solved once:
//
//	results, _ := rip.OptimizeBatch(nets, t, 1.3, rip.EngineOptions{})
//
// See ARCHITECTURE.md for the engine's design and cmd/ripcli's -batch
// flag for the streaming JSONL form.
//
// # Tree workloads
//
// Routing trees (the paper's §7 extension) are a first-class workload:
// TreeNet wraps an RC tree with a driver width, InsertTreeNet runs the
// hybrid tree pipeline, TreeMinimumDelay computes the τmin analogue,
// and BatchJob.TreeNet sends trees through the same engine, cache and
// service endpoints as lines — batches may mix both kinds:
//
//	trees, _ := rip.GenerateTreeNets(t, 2005, 1)
//	tmin, _ := rip.TreeMinimumDelay(trees[0], t)
//	res, _ := rip.InsertTreeNet(trees[0], t, 1.3*tmin)
//
// # Multi-technology serving
//
// The process node is a per-request input: a TechRegistry names the
// served nodes (built-ins plus JSON-loaded custom nodes, frozen after
// assembly), and a MultiEngine routes each BatchJob by its Tech name to
// a per-node engine — isolated per-node solution caches over one shared
// worker budget:
//
//	eng, _ := rip.NewMultiEngine(rip.BuiltinTechRegistry(), "180nm", rip.EngineOptions{})
//	results := eng.Run([]rip.BatchJob{
//		{Net: net, TargetMult: 1.3},               // default node
//		{Net: net, Tech: "65nm", TargetMult: 1.3}, // same net, smaller node
//	})
//
// The subpackages under internal implement the substrates (wire model,
// Elmore evaluator, DP baseline, analytical solver, batch engine,
// experiment harness); this package re-exports the stable surface.
// cmd/ripbench reproduces every table and figure of the paper's
// evaluation.
package rip
