// Package experiments reproduces the RIP paper's evaluation section: the
// per-net power-savings comparison of Table 1, the savings-vs-target curves
// of Figure 7, the quality/runtime tradeoff of Table 2, and a set of
// ablations over the pipeline's design choices (§7). Each runner returns a
// structured result plus ASCII and CSV renderers, which the ripbench CLI
// prints.
package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/rip-eda/rip/internal/core"
	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/dp"
	"github.com/rip-eda/rip/internal/netgen"
	"github.com/rip-eda/rip/internal/repeater"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/units"
	"github.com/rip-eda/rip/internal/wire"
)

// Setup is the shared experimental context: the corpus, the timing-target
// multipliers, and the solver configurations.
type Setup struct {
	// Tech is the process node (default: T180).
	Tech *tech.Technology
	// Nets is the interconnect corpus (default: the seeded 20-net corpus).
	Nets []*wire.Net
	// Multipliers are the timing targets relative to each net's τmin
	// (default: 1.05, 1.10, ..., 2.00 — the paper's 20 targets).
	Multipliers []float64
	// Pitch is the uniform DP candidate spacing (default 200 µm).
	Pitch float64
	// RIP is the hybrid pipeline configuration (default: the paper's).
	RIP core.Config
	// Workers bounds the parallelism of runners whose metrics are
	// quality-only (Table 1, the analytical comparison). Timing-sensitive
	// runners (Table 2) always run serially so wall-clock columns stay
	// honest. 0 means GOMAXPROCS.
	Workers int

	cases []*Case
}

// workers resolves the effective parallelism.
func (s *Setup) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// forEachCase runs fn(i, case) over all cases with bounded parallelism,
// collecting the first error. fn implementations write only to index i of
// their output slices, which keeps the runners deterministic.
func (s *Setup) forEachCase(cases []*Case, fn func(int, *Case) error) error {
	sem := make(chan struct{}, s.workers())
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for i, c := range cases {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, c *Case) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := fn(i, c); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(i, c)
	}
	wg.Wait()
	return firstErr
}

// Case is one prepared net: its evaluator and reference minimum delay.
type Case struct {
	Net  *wire.Net
	Eval *delay.Evaluator
	// TMin is the minimum achievable delay over the reference space (the
	// richest library, Range(10,400,10), at the uniform pitch); targets
	// are multiples of it, as in the paper.
	TMin float64
}

// DefaultMultipliers returns the paper's 20 timing targets: 1.05·τmin
// through 2.00·τmin in steps of 0.05.
func DefaultMultipliers() []float64 {
	out := make([]float64, 20)
	for i := range out {
		out[i] = 1.05 + 0.05*float64(i)
	}
	return out
}

// NewSetup builds the default experimental context for a seed: technology
// T180, the §6 20-net corpus, the 20 paper targets, 200 µm pitch and the
// paper's RIP configuration.
func NewSetup(seed int64) (*Setup, error) {
	t := tech.T180()
	nets, err := netgen.Paper20(t, seed)
	if err != nil {
		return nil, err
	}
	return &Setup{
		Tech:        t,
		Nets:        nets,
		Multipliers: DefaultMultipliers(),
		Pitch:       200 * units.Micron,
		RIP:         core.DefaultConfig(),
	}, nil
}

// Prepare computes evaluators and τmin for every net; it is idempotent and
// invoked lazily by the runners.
func (s *Setup) Prepare() ([]*Case, error) {
	if s.cases != nil {
		return s.cases, nil
	}
	if len(s.Nets) == 0 {
		return nil, errors.New("experiments: no nets")
	}
	if len(s.Multipliers) == 0 {
		return nil, errors.New("experiments: no timing-target multipliers")
	}
	refLib, err := repeater.Range(10, 400, 10)
	if err != nil {
		return nil, err
	}
	cases := make([]*Case, 0, len(s.Nets))
	for _, n := range s.Nets {
		ev, err := delay.NewEvaluator(n, s.Tech)
		if err != nil {
			return nil, fmt.Errorf("experiments: net %s: %w", n.Name, err)
		}
		tmin, err := dp.MinimumDelay(ev, dp.Options{Library: refLib, Pitch: s.Pitch})
		if err != nil {
			return nil, fmt.Errorf("experiments: τmin for %s: %w", n.Name, err)
		}
		cases = append(cases, &Case{Net: n, Eval: ev, TMin: tmin})
	}
	s.cases = cases
	return cases, nil
}

// baselineLib returns the Table 1 baseline library: size 10, minimum width
// 10u, granularity g (widths 10u + j·g for j = 0..9).
func baselineLib(g float64) (repeater.Library, error) {
	return repeater.Uniform(10, g, 10)
}

// solveBaseline runs the comparison DP for one case and target.
func (s *Setup) solveBaseline(c *Case, lib repeater.Library, target float64) (dp.Solution, time.Duration, error) {
	t0 := time.Now()
	sol, err := dp.Solve(c.Eval, dp.Options{
		Library:   lib,
		Pitch:     s.Pitch,
		Objective: dp.MinPower,
		Target:    target,
	})
	return sol, time.Since(t0), err
}

// solveRIP runs the hybrid pipeline for one case and target.
func (s *Setup) solveRIP(c *Case, target float64) (core.Result, time.Duration, error) {
	t0 := time.Now()
	res, err := core.Insert(c.Eval, target, s.RIP)
	return res, time.Since(t0), err
}

// savingsPct returns 100·(base−ours)/base. When both schemes spend zero
// width (targets loose enough that the bare wire meets timing) the saving
// is zero by definition rather than 0/0.
func savingsPct(base, ours float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (base - ours) / base
}
