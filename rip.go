package rip

import (
	"math/rand"

	"github.com/rip-eda/rip/internal/core"
	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/dp"
	"github.com/rip-eda/rip/internal/netgen"
	"github.com/rip-eda/rip/internal/power"
	"github.com/rip-eda/rip/internal/repeater"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/units"
	"github.com/rip-eda/rip/internal/wire"
)

// Re-exported model types. The aliases keep one canonical definition in the
// implementation packages while giving users a single import.
type (
	// Net is a routed two-pin interconnect instance with its driver and
	// receiver widths (Problem LPRI's input).
	Net = wire.Net
	// Line is the immutable segment chain with forbidden zones.
	Line = wire.Line
	// Segment is one wire piece with homogeneous RC density (SI units).
	Segment = wire.Segment
	// Zone is a forbidden interval where no repeater may be placed.
	Zone = wire.Zone
	// Technology is a process node: unit-repeater Rs/Co/Cp, supply,
	// activity and routing layers.
	Technology = tech.Technology
	// Layer is one routing layer's RC densities.
	Layer = tech.Layer
	// Library is a sorted set of allowed repeater widths (units of u).
	Library = repeater.Library
	// Assignment is a repeater placement: positions plus widths.
	Assignment = delay.Assignment
	// Evaluator computes Elmore delays and derivatives for one net.
	Evaluator = delay.Evaluator
	// Solution is a discrete repeater insertion result.
	Solution = dp.Solution
	// Config parameterizes the RIP pipeline.
	Config = core.Config
	// Result is the RIP pipeline's outcome with per-phase report.
	Result = core.Result
	// RefineOptions tunes the analytical REFINE solver.
	RefineOptions = core.RefineOptions
	// RefineResult is REFINE's continuous solution.
	RefineResult = core.RefineResult
	// WidthResult is the continuous KKT width solve's outcome.
	WidthResult = core.WidthResult
	// PowerModel converts total repeater width into watts.
	PowerModel = power.Model
)

// Unit conversion constants (SI internally; the paper quotes µm and fF/µm).
const (
	// Micron is one micrometer in meters.
	Micron = units.Micron
	// NanoSecond is one nanosecond in seconds.
	NanoSecond = units.NanoSecond
	// FemtoFarad is one femtofarad in farads.
	FemtoFarad = units.FemtoFarad
)

// T180 returns the default synthetic 0.18 µm node the experiments use.
func T180() *Technology { return tech.T180() }

// BuiltinTech returns a built-in node by name: "180nm", "130nm", "90nm" or
// "65nm".
func BuiltinTech(name string) (*Technology, error) { return tech.Builtin(name) }

// NewLine validates segments and zones and builds a Line.
func NewLine(segs []Segment, zones []Zone) (*Line, error) { return wire.New(segs, zones) }

// UniformLine builds a single-segment line without zones.
func UniformLine(length, rOhmPerM, cFPerM float64, layer string) (*Line, error) {
	return wire.Uniform(length, rOhmPerM, cFPerM, layer)
}

// NewLibrary builds a repeater library from explicit widths.
func NewLibrary(widths []float64) (Library, error) { return repeater.NewLibrary(widths) }

// UniformLibrary builds {min, min+step, ...} with count entries — the
// paper's baseline construction.
func UniformLibrary(min, step float64, count int) (Library, error) {
	return repeater.Uniform(min, step, count)
}

// DefaultConfig returns the paper's §6 pipeline configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewEvaluator builds a delay evaluator for the net under the technology.
func NewEvaluator(n *Net, t *Technology) (*Evaluator, error) { return delay.NewEvaluator(n, t) }

// Insert runs the full RIP pipeline: coarse DP → REFINE → concise library
// and local candidates → fine DP, returning the best feasible discrete
// solution and a per-phase report.
func Insert(n *Net, t *Technology, target float64, cfg Config) (Result, error) {
	ev, err := delay.NewEvaluator(n, t)
	if err != nil {
		return Result{}, err
	}
	return core.Insert(ev, target, cfg)
}

// Refine runs only the analytical phase: continuous width sizing (Eqs. 5
// and 8) plus derivative-guided movement (Fig. 5), from the given initial
// positions.
func Refine(n *Net, t *Technology, positions []float64, target float64, opts RefineOptions) (RefineResult, error) {
	ev, err := delay.NewEvaluator(n, t)
	if err != nil {
		return RefineResult{}, err
	}
	return core.Refine(ev, positions, target, opts)
}

// SolveWidths computes the continuous optimal repeater widths and Lagrange
// multiplier for fixed positions.
func SolveWidths(n *Net, t *Technology, positions []float64, target float64) (WidthResult, error) {
	ev, err := delay.NewEvaluator(n, t)
	if err != nil {
		return WidthResult{}, err
	}
	return core.SolveWidths(ev, positions, target, core.WidthOptions{})
}

// SolveDP runs the baseline dynamic program [14] directly with a uniform
// candidate pitch, minimizing total width subject to the timing target.
func SolveDP(n *Net, t *Technology, lib Library, pitch, target float64) (Solution, error) {
	ev, err := delay.NewEvaluator(n, t)
	if err != nil {
		return Solution{}, err
	}
	return dp.Solve(ev, dp.Options{Library: lib, Pitch: pitch, Objective: dp.MinPower, Target: target})
}

// MinimumDelay returns τmin — the minimum achievable Elmore delay over the
// reference candidate space (dp.ReferenceOptions: library 10u..400u step
// 10u at 200 µm pitch), the quantity the paper's timing targets are
// multiples of.
func MinimumDelay(n *Net, t *Technology) (float64, error) {
	ev, err := delay.NewEvaluator(n, t)
	if err != nil {
		return 0, err
	}
	opts, err := dp.ReferenceOptions()
	if err != nil {
		return 0, err
	}
	return dp.MinimumDelay(ev, opts)
}

// Delay evaluates the total Elmore delay of an assignment on the net.
func Delay(n *Net, t *Technology, a Assignment) (float64, error) {
	ev, err := delay.NewEvaluator(n, t)
	if err != nil {
		return 0, err
	}
	if err := ev.Validate(a); err != nil {
		return 0, err
	}
	return ev.Total(a), nil
}

// NewPowerModel builds a power model for converting solutions to watts.
func NewPowerModel(t *Technology) (*PowerModel, error) { return power.NewModel(t) }

// GenerateNets produces count random paper-style nets (§6 distribution)
// deterministically from the seed.
func GenerateNets(t *Technology, seed int64, count int) ([]*Net, error) {
	cfg, err := netgen.DefaultConfig(t)
	if err != nil {
		return nil, err
	}
	return netgen.Corpus(seed, count, cfg)
}

// GenerateNet produces one random net from the §6 distribution using the
// supplied random source.
func GenerateNet(t *Technology, rng *rand.Rand, name string) (*Net, error) {
	cfg, err := netgen.DefaultConfig(t)
	if err != nil {
		return nil, err
	}
	return netgen.Generate(rng, cfg, name)
}

// GenerateBusGroups produces count random bus track groups (2–6 parallel
// tracks each, §6 segment distribution, one shared geometry per group)
// deterministically from the seed — the workload Engine.SolveBus and
// /v1/bus co-optimize.
func GenerateBusGroups(t *Technology, seed int64, count int) ([][]*Net, error) {
	cfg, err := netgen.DefaultConfig(t)
	if err != nil {
		return nil, err
	}
	return netgen.BusCorpus(seed, count, cfg)
}
