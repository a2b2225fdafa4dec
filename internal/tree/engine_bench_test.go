package tree_test

import (
	"math/rand"
	"testing"

	"github.com/rip-eda/rip/internal/netgen"
	"github.com/rip-eda/rip/internal/repeater"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/tree"
)

// engineTreeBench is the fixed 65nm netgen tree ripd solves in the tree
// kernel benchmarks, with the two options it sweeps it under: the 10u
// reference library (10u–400u) for MinArrival and the engine's 40u front
// library for InsertFront, whose sweep runs on the zero-RAT clone work.
func engineTreeBench(b *testing.B) (net *tree.Net, work *tree.Tree, ref, fo tree.Options) {
	tc := tech.T65()
	cfg, err := netgen.DefaultTreeConfig(tc)
	if err != nil {
		b.Fatal(err)
	}
	net, err = netgen.GenerateTree(rand.New(rand.NewSource(1)), cfg, "bench-65nm-tree")
	if err != nil {
		b.Fatal(err)
	}
	refLib, err := repeater.Range(10, 400, 10)
	if err != nil {
		b.Fatal(err)
	}
	frontLib, err := repeater.Range(10, 400, 40)
	if err != nil {
		b.Fatal(err)
	}
	ref = tree.Options{Library: refLib, Tech: tc, DriverWidth: net.DriverWidth}
	fo = tree.Options{Library: frontLib, Tech: tc, DriverWidth: net.DriverWidth}
	return net, net.Tree.CloneWithRAT(0), ref, fo
}

// BenchmarkTreeFront_Engine measures the two tree DPs ripd runs for every
// cold uniform-deadline tree shape: MinArrival on the 10u reference
// library and InsertFront on the engine's 40u front library, over the
// zero-RAT clone. BenchmarkTreeMinArrival_Engine and
// BenchmarkTreeInsertFront_Engine time each sweep on its own.
func BenchmarkTreeFront_Engine(b *testing.B) {
	net, work, ref, fo := engineTreeBench(b)
	s := tree.NewSolver()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.MinArrival(net.Tree, ref); err != nil {
			b.Fatal(err)
		}
		front, _, err := s.InsertFront(work, fo)
		if err != nil {
			b.Fatal(err)
		}
		if len(front) == 0 {
			b.Fatal("benchmark instance must have a front")
		}
	}
}

// BenchmarkTreeMinArrival_Engine measures the width-blind τmin sweep of
// BenchmarkTreeFront_Engine alone.
func BenchmarkTreeMinArrival_Engine(b *testing.B) {
	net, _, ref, _ := engineTreeBench(b)
	s := tree.NewSolver()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.MinArrival(net.Tree, ref); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeInsertFront_Engine measures the width-aware front sweep of
// BenchmarkTreeFront_Engine alone.
func BenchmarkTreeInsertFront_Engine(b *testing.B) {
	_, work, _, fo := engineTreeBench(b)
	s := tree.NewSolver()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		front, _, err := s.InsertFront(work, fo)
		if err != nil {
			b.Fatal(err)
		}
		if len(front) == 0 {
			b.Fatal("benchmark instance must have a front")
		}
	}
}
