// Package engine is the batch-optimization layer that turns the per-net
// RIP dynamic programs into a chip-scale service: a worker pool fans a
// stream of nets out over the solver while a bounded, sharded LRU cache
// memoizes each net's whole power–delay Pareto front by canonical net
// signature (technology node, quantized segment length/RC profile, zone
// layout and terminal widths — the timing budget is deliberately NOT part
// of the key). One width-aware DP sweep per distinct shape retains the
// complete trade-off curve, and every budget — MinPower at any target,
// MinDelay, a whole Job.Budgets sweep — is answered from that front by
// lookup, so repeated-signature nets (buses, arrayed macros) and repeated
// what-if budgets alike skip the dynamic programs entirely.
//
// Three properties the layer guarantees:
//
//   - Deterministic ordering: results come back in input order no matter
//     how workers interleave, so batch output is reproducible.
//   - Error isolation: a net that fails to validate or solve yields a
//     Result with Err set; it never aborts the rest of the batch.
//   - Verified hits: every job takes one path (acquire.go), and a cached
//     entry is served only after a check on the actual net. Every checked
//     point must be legal there (positions, walk positions, schemes) and
//     its widths must sum to its total width. Solve re-prices the point
//     chosen for each budget and serves the recomputed delay, which must
//     meet the budget, and re-prices the next cheaper point, which must
//     not meet it by more than verifyTol; Front re-prices every point and
//     serves the cached values only when each recomputed delay or slack
//     is within verifyTol (1e-12 relative) of them. An entry that fails
//     falls through to a full solve. For absolute targets the delay
//     check is exact. For relative targets the budget is TargetMult
//     times the signature's τmin — exact for byte-identical nets, while
//     a quantized neighbor inherits a τmin that can differ by up to the
//     quantization error (≈0.01 % of a global net at the default 1 µm
//     LengthQuantum). Widen the quanta only when that tolerance is
//     acceptable. The τmin of an imported entry is likewise trusted, not
//     re-derived.
//
// Cold solves are single-flight per signature: a job that misses while
// another job is already solving its signature gives its solve slot
// back, waits for that leader to land, takes a slot again and runs the
// ordinary lookup and verification on its own net. A follower never
// inherits the leader's outcome — a leader that is cancelled, exhausts
// its DP budget or panics stores nothing, and the follower, which waits
// at most once, then solves as an ordinary miss. Parked jobs hold no
// slot and no solver, so Run and RunStream keep more jobs in flight than
// there are slots. Letting duplicates race instead cost the chip-flow
// benchmark workload (arrayed nets on two workers) 819 front solves for
// 540 distinct shapes; single flight solves 540, generates 41 % fewer DP
// candidates, and raised the workload's median throughput from 178 to
// 308 nets/s on a 2-vCPU host.
//
// A front is budget-independent, so entries are cached even when the
// triggering job's budget was infeasible — but a hit whose front cannot
// meet the requested budget is rejected and re-solved fresh, so an
// infeasibility verdict is always pronounced by a solve on the exact net,
// never inherited by a quantized neighbor.
//
// Work items are polymorphic: a Job carries either a two-pin line net or
// a routing tree (tree.Net), and both kinds share the worker pool, the
// ordering and error-isolation machinery, and the solution cache — tree
// entries are keyed by tree shape and addressed by walk position, so
// repeated tree shapes (arrayed clock subtrees) hit regardless of node
// labeling. See acquire.go for the one path both kinds take and tree.go
// for the tree-specific solve and key.
//
// An Engine solves for exactly one technology node. Multi-technology
// serving wraps a set of per-node Engines behind a Multi (multi.go),
// which routes each job by its Tech name: per-node caches, one shared
// worker budget.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"

	"github.com/rip-eda/rip/internal/core"
	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/dp"
	"github.com/rip-eda/rip/internal/repeater"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/tree"
	"github.com/rip-eda/rip/internal/wire"
)

// Job is one unit of batch work: a net — two-pin line or routing tree —
// plus its timing budget. Exactly one of Net and TreeNet must be set.
//
// For line nets exactly one of TargetMult (budget = TargetMult·τmin, the
// paper's convention) or Target (absolute seconds) must be positive. For
// tree nets the same rule applies, except both may be zero when every
// sink of the tree carries its own positive required arrival time — the
// tree is then solved against those embedded deadlines. A uniform
// budget, when given, is applied to every sink (on a private clone; the
// caller's tree is never mutated), with TargetMult relative to the
// tree's minimum achievable worst-sink arrival (the τmin analogue).
type Job struct {
	// Net is the routed two-pin interconnect to optimize.
	Net *wire.Net
	// TreeNet is the routing tree to optimize.
	TreeNet *tree.Net
	// Tech names the process node to solve under. It is interpreted by a
	// Multi, which routes the job to the matching per-technology engine
	// (empty = the Multi's default node). A single-technology Engine
	// accepts only its own node's name here and fails the job otherwise —
	// silently solving under the wrong node would be far worse.
	Tech string
	// TargetMult expresses the budget as a multiple of the net's minimum
	// achievable delay τmin, which the engine computes (and caches) per
	// signature.
	TargetMult float64
	// Target is the absolute timing budget in seconds.
	Target float64
	// Budgets is the multi-budget batch form: a list of absolute timing
	// budgets in seconds, all answered from the net's single retained
	// Pareto front (one solve, len(Budgets) answers, in Result.Sweep).
	// Mutually exclusive with TargetMult and Target; every entry must be
	// positive and finite. For trees each budget is a uniform per-sink
	// deadline.
	Budgets []float64
	// Aggressor opts the job into crosstalk-aware solving (line nets
	// only): the neighbor-switching assumption coupling capacitance is
	// priced under — "worst", "best", "quiet", or ""/"none" for the
	// classic ground-only model. Requires a technology with a coupling
	// model (tech.HasCoupling). Coupled fronts are cached under keys
	// disjoint from uncoupled ones and from other scenarios.
	Aggressor string
	// Scheme selects the per-interval countermeasures a coupled solve may
	// deploy: "plain" (or "", no countermeasures), "staggered", "shielded"
	// or "auto" (both). Only meaningful with a non-none Aggressor; a
	// scheme without an aggressor is rejected.
	Scheme string
	// MF prices the job's coupling capacitance under an explicit Miller
	// factor instead of a named aggressor scenario (line nets only, no
	// countermeasure schemes). Bus co-optimization uses it to solve each
	// track under the factor its actual neighbors produce. Mutually
	// exclusive with Aggressor/Scheme; must be finite and within
	// [0, MillerMax]. Factor fronts are cached under keys disjoint from
	// scenario fronts and from the uncoupled front.
	MF *float64

	// shape, when set by the engine that solves the job, is Net's
	// scenario-independent preparation, shared read-only with the other
	// jobs on the same net (see solveBus). A forwarded job drops it.
	shape *lineShape
}

// Result is one net's outcome. Err is per-net: a failed job never aborts
// the batch.
type Result struct {
	// Index is the job's position in the input; Run and RunStream emit
	// results in increasing Index order.
	Index int
	// Net echoes a line job's net (nil for tree jobs).
	Net *wire.Net
	// TreeNet echoes a tree job's net (nil for line jobs).
	TreeNet *tree.Net
	// Tech is the node the job was solved under: the canonical registry
	// name when routed through a Multi, the node's Technology.Name when
	// solved on a bare Engine, or the (unknown) requested name on a
	// routing failure.
	Tech string
	// Target is the resolved absolute budget in seconds (zero for tree
	// jobs solved against embedded per-sink deadlines).
	Target float64
	// TMin is the net's minimum achievable delay — worst-sink arrival
	// for trees; non-zero only for TargetMult jobs (cache hits reuse the
	// signature's τmin).
	TMin float64
	// Res is a line job's pipeline outcome. On a cache hit the Report
	// carries only the picked phase; the per-phase accounting belongs to
	// the solve that populated the cache.
	Res core.Result
	// TreeRes is a tree job's pipeline outcome; only Solution and Picked
	// are populated on a cache hit.
	TreeRes tree.HybridResult
	// Sweep holds a multi-budget job's per-budget answers, in
	// Job.Budgets order; Res and TreeRes are left zero and Target is 0
	// for such jobs. All answers come from one front solve (or one
	// verified front hit).
	Sweep []BudgetAnswer
	// Aggressor and Scheme echo a coupled job's crosstalk scenario in
	// normalized form ("worst"/"best"/"quiet" and "plain"/"staggered"/
	// "shielded"/"auto"); both empty for uncoupled jobs. The per-answer
	// scheme attribution lives on the served dp.Solution (Schemes,
	// StaggerLen, ShieldLen).
	Aggressor string
	Scheme    string
	// MF echoes an explicit-Miller-factor job's factor (nil otherwise);
	// such jobs leave Aggressor and Scheme empty.
	MF *float64
	// CacheHit reports whether the solution was served from cache.
	CacheHit bool
	// Err records a per-net failure (validation or solver error).
	Err error
}

// BudgetAnswer is one budget's outcome within a multi-budget job.
type BudgetAnswer struct {
	// Budget is the absolute target in seconds, echoed from Job.Budgets.
	Budget float64
	// Res carries a line job's answer at this budget (infeasible budgets
	// yield Feasible=false, never an error).
	Res core.Result
	// TreeRes carries a tree job's answer at this budget.
	TreeRes tree.HybridResult
}

// CacheOptions configures the engine's solution cache.
type CacheOptions struct {
	// Disabled turns memoization off entirely.
	Disabled bool
	// Capacity bounds the total number of cached solutions across all
	// shards (default 4096).
	Capacity int
	// Shards is the lock-striping factor (default 16).
	Shards int
	// LengthQuantum is the grid, in meters, that segment lengths and zone
	// bounds are snapped to when forming signatures (default 1 µm).
	LengthQuantum float64
	// TargetQuantum is the grid, in seconds, that embedded per-sink tree
	// deadlines are snapped to when forming signatures (default 0.1 ps).
	// Uniform budgets do not enter signatures at all.
	TargetQuantum float64
}

// Options configures an Engine.
type Options struct {
	// Workers bounds parallelism (default GOMAXPROCS).
	Workers int
	// Pipeline parameterizes the per-net RIP pipeline; the zero value
	// means the paper's §6 defaults.
	Pipeline core.Config
	// Cache configures solution memoization.
	Cache CacheOptions
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	// Hits counts lookups served from cache after verification.
	Hits uint64
	// Misses counts lookups that found no entry.
	Misses uint64
	// Rejected counts entries found but discarded because re-verification
	// on the actual net failed (quantized-neighbor mismatch).
	Rejected uint64
	// Evictions counts LRU evictions.
	Evictions uint64
	// Entries is the current number of cached solutions.
	Entries int
}

const (
	defaultCacheCapacity = 4096
	defaultCacheShards   = 16
)

// ErrBadJob classifies a job that failed validation before any solving
// started — a malformed request rather than a solver failure. Transports
// test Result.Err with errors.Is(err, ErrBadJob) to pick a client-error
// status and the "bad_request" envelope code; the error message itself
// is unchanged by the classification.
var ErrBadJob = errors.New("engine: invalid job")

// badJobError tags an error as ErrBadJob without altering its message.
type badJobError struct{ err error }

func (e badJobError) Error() string        { return e.err.Error() }
func (e badJobError) Unwrap() error        { return e.err }
func (e badJobError) Is(target error) bool { return target == ErrBadJob }

// badJob builds a validation failure carrying the ErrBadJob class.
func badJob(format string, args ...any) error {
	return badJobError{fmt.Errorf(format, args...)}
}

// asBadJob wraps an existing validation error with the ErrBadJob class.
func asBadJob(err error) error { return badJobError{err} }

// Engine is a concurrent batch optimizer for one technology node. It is
// safe for concurrent use; a single Engine may serve many goroutines and
// overlapping Run / RunStream calls, all sharing one cache and one
// worker budget — total concurrent solves never exceed Workers, however
// many calls are in flight.
type Engine struct {
	tech    *tech.Technology
	cfg     core.Config
	workers int
	// refOpts is the τmin candidate space (dp.ReferenceOptions), shared
	// with the facade so relative targets mean the same thing everywhere.
	refOpts dp.Options
	// frontOpts is the native front space: the width-aware DP sweep that
	// produces the retained Pareto front runs over this library and
	// candidate pitch (built by New from the pipeline config's width
	// range, granularity and coarse pitch). Every served answer is a
	// point of a front solved over this space.
	frontOpts dp.Options
	cache     *solutionCache
	sig       *signer
	// techAliases are additional (lowercased) names the own-node guard
	// accepts in Job.Tech besides tech.Name — set by NewMulti to the
	// node's registry names, so an engine unwrapped via Multi.Engine
	// still accepts jobs addressed by canonical name or alias.
	techAliases map[string]bool
	// solveSlots bounds concurrent solves engine-wide, not per call:
	// overlapping Run / RunStream / Solve callers share the worker
	// budget, so a shared engine's CPU and memory footprint stays
	// O(workers) no matter how many requests fan into it.
	solveSlots chan struct{}
	// flights is the single-flight table of running cold solves.
	flights flightTable
	// testHookSolve, when non-nil, runs as each cold line solve begins;
	// single-flight tests use it to hold a flight's leader until its
	// followers have parked, or to make it panic.
	testHookSolve func()

	hits     atomic.Uint64
	misses   atomic.Uint64
	rejected atomic.Uint64

	// Cumulative DP work counters, aggregated from every dp solve the
	// engine performs (τmin, coarse and fine phases). ripd exports them at
	// /metrics next to the cache stats, so operators can watch the actual
	// pruning workload — the cost Table 2 is about — not just request
	// rates.
	dpSolves       atomic.Uint64
	dpGenerated    atomic.Uint64
	dpKept         atomic.Uint64
	dpMaxPerLevel  atomic.Uint64
	dpBudgetAborts atomic.Uint64

	// Tree DP work counters, the rip_tree_dp_* analogue of the above:
	// aggregated from every tree dynamic program the engine runs (τmin
	// max-slack sweeps plus the native front sweeps).
	treeSolves     atomic.Uint64
	treeGenerated  atomic.Uint64
	treeKept       atomic.Uint64
	treeMaxPerNode atomic.Uint64

	// Front counters, exported at /metrics as rip_front_*: how many
	// fronts were computed, how many points they retain, and how many
	// budget answers were served by front lookup.
	frontSolves    atomic.Uint64
	frontPoints    atomic.Uint64
	frontMaxPoints atomic.Uint64
	frontLookups   atomic.Uint64
	frontCoalesced atomic.Uint64

	// Crosstalk counters, exported at /metrics as rip_coupling_*: how
	// many coupled jobs were accepted, how many coupled front solves ran
	// (hits add none), and how many served answers actually deployed each
	// countermeasure.
	couplingJobs     atomic.Uint64
	couplingSolves   atomic.Uint64
	staggeredAnswers atomic.Uint64
	shieldedAnswers  atomic.Uint64

	// Bus co-optimization counters, exported at /metrics as rip_bus_*
	// (see bus.go).
	busC busCounters
}

// New builds an Engine for the technology node.
func New(t *tech.Technology, opts Options) (*Engine, error) {
	if t == nil {
		return nil, errors.New("engine: nil technology")
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	refOpts, err := dp.ReferenceOptions()
	if err != nil {
		return nil, err
	}
	frontOpts, err := frontOptions(opts.Pipeline)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		tech:       t,
		cfg:        opts.Pipeline,
		workers:    workers,
		refOpts:    refOpts,
		frontOpts:  frontOpts,
		solveSlots: make(chan struct{}, workers),
		// The signer exists even with the cache disabled: Signature backs
		// consistent-hash peer routing, which is orthogonal to memoization.
		sig: newSigner(t, opts.Cache),
	}
	if !opts.Cache.Disabled {
		capacity := opts.Cache.Capacity
		if capacity <= 0 {
			capacity = defaultCacheCapacity
		}
		shards := opts.Cache.Shards
		if shards <= 0 {
			shards = defaultCacheShards
		}
		e.cache = newSolutionCache(capacity, shards)
	}
	return e, nil
}

// frontStepFactor scales the pipeline's concise-library granularity
// (paper §6: 10u) up to the native front space's width step (40u by
// default), so that one unbounded width-aware sweep per shape stays
// cheap: a traced chip_batch run (seed 3101: netgen lines of 4–10
// segments on all four nodes, 2-vCPU host, Go 1.24.0) measured a median
// of 3.1 ms and a p99 of 17.3 ms per front solve (dp.front_p50_ms,
// dp.front_p99_ms), against 0.27 ms for the τmin sweep. The coarse
// step costs answer quality. Measured against a flat fine DP (10u
// library, 50 µm pitch) on 8 netgen lines per node (4–10 segments) at
// 1.1, 1.3, 1.6 and 2.0×τmin, served answers spend median 6.2 / 7.1 /
// 7.7 / 11.1 % more repeater width on 180 / 130 / 90 / 65nm, with a p90
// of 22–30 % and a worst case of 50–67 %. The ROADMAP.md item "Serve the
// paper's answer quality, not a 4×-coarsened one" tracks closing that
// gap.
const frontStepFactor = 4

// frontOptions derives the native front space from the pipeline config:
// the concise library's width range at frontStepFactor times its
// granularity, on the coarse candidate pitch, under the same generation
// budget as the pipeline's DP phases. Zero config fields take the
// paper's §6 defaults, matching the pipeline's own behavior.
func frontOptions(cfg core.Config) (dp.Options, error) {
	d := core.DefaultConfig()
	if cfg.MinWidth <= 0 {
		cfg.MinWidth = d.MinWidth
	}
	if cfg.MaxWidth <= 0 {
		cfg.MaxWidth = d.MaxWidth
	}
	if cfg.RoundGranularity <= 0 {
		cfg.RoundGranularity = d.RoundGranularity
	}
	if cfg.CoarsePitch <= 0 {
		cfg.CoarsePitch = d.CoarsePitch
	}
	lib, err := repeater.Range(cfg.MinWidth, cfg.MaxWidth, frontStepFactor*cfg.RoundGranularity)
	if err != nil {
		return dp.Options{}, fmt.Errorf("engine: front library: %w", err)
	}
	return dp.Options{
		Library:      lib,
		Pitch:        cfg.CoarsePitch,
		MaxGenerated: cfg.MaxGenerated,
	}, nil
}

// Workers returns the engine's parallelism bound.
func (e *Engine) Workers() int { return e.workers }

// acceptsTech reports whether a Job.Tech value addresses this engine's
// own node: empty, the node's Name, or (under a Multi) any registered
// alias.
func (e *Engine) acceptsTech(name string) bool {
	return name == "" || name == e.tech.Name || e.techAliases[strings.ToLower(name)]
}

// Technology returns the process node the engine solves for. Consumers
// that are handed a shared engine (internal/flow, internal/server) use it
// to build matching power models and reports without re-plumbing the node.
func (e *Engine) Technology() *tech.Technology { return e.tech }

// DPStats is a point-in-time snapshot of the cumulative dynamic-program
// work the engine has performed across all jobs (cache hits skip the DP
// entirely and contribute nothing).
type DPStats struct {
	// Solves counts dp runs that performed work (τmin + pipeline phases),
	// including runs aborted by the work budget — BudgetAborts counts
	// that subset.
	Solves uint64
	// Generated and Kept accumulate dp.Stats over those runs; aborted
	// runs contribute the partial work done before the abort.
	Generated uint64
	Kept      uint64
	// MaxPerLevel is the largest surviving option set any level of any run
	// held — a high-water mark, not a sum.
	MaxPerLevel uint64
	// BudgetAborts counts solves aborted by Options.MaxGenerated
	// (dp.ErrBudget).
	BudgetAborts uint64
}

// DPStats snapshots the DP work counters.
func (e *Engine) DPStats() DPStats {
	return DPStats{
		Solves:       e.dpSolves.Load(),
		Generated:    e.dpGenerated.Load(),
		Kept:         e.dpKept.Load(),
		MaxPerLevel:  e.dpMaxPerLevel.Load(),
		BudgetAborts: e.dpBudgetAborts.Load(),
	}
}

// noteDP folds one dp run's stats into the cumulative counters.
func (e *Engine) noteDP(st dp.Stats) {
	if st.Candidates == 0 && st.Generated == 0 {
		return // phase did not run (e.g. unbuffered shortcut)
	}
	e.dpSolves.Add(1)
	e.dpGenerated.Add(uint64(st.Generated))
	e.dpKept.Add(uint64(st.Kept))
	for {
		cur := e.dpMaxPerLevel.Load()
		if uint64(st.MaxPerLevel) <= cur {
			break
		}
		if e.dpMaxPerLevel.CompareAndSwap(cur, uint64(st.MaxPerLevel)) {
			break
		}
	}
}

// TreeDPStats is a point-in-time snapshot of the cumulative tree
// dynamic-program work — the rip_tree_dp_* counters ripd exports next to
// DPStats. Cache hits skip the DP entirely and contribute nothing.
type TreeDPStats struct {
	// Solves counts tree DP runs that performed work (τmin sweeps plus
	// the hybrid pipeline's coarse and fine phases).
	Solves uint64
	// Generated and Kept accumulate tree.Stats over those runs.
	Generated uint64
	Kept      uint64
	// MaxPerNode is the largest surviving option set any node of any run
	// held — a high-water mark, not a sum.
	MaxPerNode uint64
}

// TreeDPStats snapshots the tree DP work counters.
func (e *Engine) TreeDPStats() TreeDPStats {
	return TreeDPStats{
		Solves:     e.treeSolves.Load(),
		Generated:  e.treeGenerated.Load(),
		Kept:       e.treeKept.Load(),
		MaxPerNode: e.treeMaxPerNode.Load(),
	}
}

// noteTree folds one tree DP run's stats into the cumulative counters.
func (e *Engine) noteTree(st tree.Stats) {
	if st.Generated == 0 && st.Kept == 0 {
		return // phase did not run
	}
	e.treeSolves.Add(1)
	e.treeGenerated.Add(uint64(st.Generated))
	e.treeKept.Add(uint64(st.Kept))
	for {
		cur := e.treeMaxPerNode.Load()
		if uint64(st.MaxPerNode) <= cur {
			break
		}
		if e.treeMaxPerNode.CompareAndSwap(cur, uint64(st.MaxPerNode)) {
			break
		}
	}
}

// FrontStats is a point-in-time snapshot of the engine's Pareto-front
// activity — the rip_front_* counters ripd exports next to the cache
// stats.
type FrontStats struct {
	// Solves counts fronts computed (one per cold shape; hits add none).
	Solves uint64
	// Points is the total number of front points retained across those
	// solves.
	Points uint64
	// MaxPoints is the largest single front computed — a high-water
	// mark, not a sum.
	MaxPoints uint64
	// Lookups counts budget answers served by front lookup, across cold
	// solves and verified hits. Front curve queries answer no budget and
	// are not counted.
	Lookups uint64
	// Coalesced counts jobs answered by another job's in-flight solve:
	// followers that waited for a running solve of their signature and
	// were then served a verified hit. Each is a front solve the engine
	// did not duplicate.
	Coalesced uint64
}

// FrontStats snapshots the front counters.
func (e *Engine) FrontStats() FrontStats {
	return FrontStats{
		Solves:    e.frontSolves.Load(),
		Points:    e.frontPoints.Load(),
		MaxPoints: e.frontMaxPoints.Load(),
		Lookups:   e.frontLookups.Load(),
		Coalesced: e.frontCoalesced.Load(),
	}
}

// noteFront folds one computed front into the counters.
func (e *Engine) noteFront(points int) {
	e.frontSolves.Add(1)
	e.frontPoints.Add(uint64(points))
	for {
		cur := e.frontMaxPoints.Load()
		if uint64(points) <= cur {
			break
		}
		if e.frontMaxPoints.CompareAndSwap(cur, uint64(points)) {
			break
		}
	}
}

// CouplingStats is a point-in-time snapshot of the engine's crosstalk-
// aware activity — the rip_coupling_* counters ripd exports.
type CouplingStats struct {
	// Jobs counts accepted coupled jobs (solve and front queries alike).
	Jobs uint64
	// Solves counts coupled front solves performed (cache hits add none).
	Solves uint64
	// StaggeredAnswers and ShieldedAnswers count served answers whose
	// chosen scheme vector staggers / shields at least one interval,
	// across cold solves and verified hits. An answer using both
	// countermeasures increments both.
	StaggeredAnswers uint64
	ShieldedAnswers  uint64
}

// CouplingStats snapshots the crosstalk counters.
func (e *Engine) CouplingStats() CouplingStats {
	return CouplingStats{
		Jobs:             e.couplingJobs.Load(),
		Solves:           e.couplingSolves.Load(),
		StaggeredAnswers: e.staggeredAnswers.Load(),
		ShieldedAnswers:  e.shieldedAnswers.Load(),
	}
}

// noteCouplingAnswer records one served coupled answer's countermeasures.
func (e *Engine) noteCouplingAnswer(staggerLen, shieldLen float64) {
	if staggerLen > 0 {
		e.staggeredAnswers.Add(1)
	}
	if shieldLen > 0 {
		e.shieldedAnswers.Add(1)
	}
}

// resolveCoupling validates a job's crosstalk fields against the engine's
// node and resolves them to a scenario (nil for uncoupled jobs). Errors
// carry the ErrBadJob class: they are malformed requests, found before
// any solving.
func (e *Engine) resolveCoupling(j Job, name string) (*delay.Coupling, error) {
	if j.MF != nil {
		if j.Aggressor != "" || j.Scheme != "" {
			return nil, badJob("engine: net %q: give MF or an aggressor/scheme scenario, not both", name)
		}
		if j.TreeNet != nil {
			return nil, badJob("engine: tree net %q: coupling-aware solving is only supported for line nets", name)
		}
		if mf := *j.MF; math.IsNaN(mf) || math.IsInf(mf, 0) {
			return nil, badJob("engine: net %q: Miller factor %g is not finite", name, mf)
		}
		cpl, err := delay.NewCouplingFactor(e.tech, *j.MF)
		if err != nil {
			return nil, asBadJob(err)
		}
		return cpl, nil
	}
	agg, err := delay.ParseAggressor(j.Aggressor)
	if err != nil {
		return nil, asBadJob(fmt.Errorf("engine: net %q: %w", name, err))
	}
	mode, err := delay.ParseSchemeMode(j.Scheme)
	if err != nil {
		return nil, asBadJob(fmt.Errorf("engine: net %q: %w", name, err))
	}
	if agg == delay.AggressorNone {
		if j.Scheme != "" {
			return nil, badJob("engine: net %q: scheme %q needs an aggressor (set Aggressor to worst, best or quiet)", name, j.Scheme)
		}
		return nil, nil
	}
	if j.TreeNet != nil {
		return nil, badJob("engine: tree net %q: coupling-aware solving is only supported for line nets", name)
	}
	cpl, err := delay.NewCoupling(e.tech, agg, mode)
	if err != nil {
		return nil, asBadJob(err)
	}
	return cpl, nil
}

// noteDPErr counts budget-aborted solves.
func (e *Engine) noteDPErr(err error) {
	if errors.Is(err, dp.ErrBudget) {
		e.dpBudgetAborts.Add(1)
	}
}

// CacheStats snapshots the cache counters.
func (e *Engine) CacheStats() CacheStats {
	s := CacheStats{
		Hits:     e.hits.Load(),
		Misses:   e.misses.Load(),
		Rejected: e.rejected.Load(),
	}
	if e.cache != nil {
		s.Evictions = e.cache.evictions.Load()
		s.Entries = e.cache.len()
	}
	return s
}

// Run optimizes every job and returns results in input order. Per-net
// failures are reported in Result.Err; Run itself never fails.
func (e *Engine) Run(jobs []Job) []Result {
	return e.RunContext(context.Background(), jobs)
}

// RunContext is Run with cancellation: once ctx is done, jobs that have
// not started solving return immediately with Err set to the context
// error, while jobs already in a solver phase finish that phase first
// (the dynamic programs are not interruptible mid-sweep). Every result
// slot is filled either way, so partial batches remain well-formed.
func (e *Engine) RunContext(ctx context.Context, jobs []Job) []Result {
	return runJobs(ctx, e.solveSlots, jobs, e.solve)
}

// RunStream optimizes jobs as they arrive and emits results on the
// returned channel in input order, holding at most a bounded reordering
// window in memory — the shape cmd/ripcli's JSONL mode uses to process
// chip-scale inputs without materializing them. The channel closes after
// the last result; the caller must drain it.
func (e *Engine) RunStream(in <-chan Job) <-chan Result {
	return e.RunStreamContext(context.Background(), in)
}

// RunStreamContext is RunStream with cancellation: once ctx is done,
// admitted jobs that have not started solving drain through as context
// errors rather than being solved. The caller still owns the input
// channel and must close it (typically by stopping its feeder when it
// observes ctx.Done()); the output channel still closes after the last
// admitted job's result.
func (e *Engine) RunStreamContext(ctx context.Context, in <-chan Job) <-chan Result {
	return runStream(ctx, e.solveSlots, in, e.solve)
}

// Solve optimizes one job synchronously (Result.Index is left zero).
// It is the primitive Run and RunStream are built on, exposed so other
// fan-out layers (internal/flow) can share the engine's cache.
func (e *Engine) Solve(j Job) Result {
	return e.SolveContext(context.Background(), j)
}

// SolveContext is Solve with cancellation. The context is checked at the
// job's phase boundaries — before the cache lookup, before the τmin
// dynamic program and before the pipeline solve — so a cancelled job
// stops before its next expensive phase rather than mid-sweep. A
// cancelled job's Result carries the context error in Err, wrapped so
// errors.Is(r.Err, ctx.Err()) holds. A job parked behind another job's
// solve of the same signature (see the package comment) returns promptly
// when ctx is done.
func (e *Engine) SolveContext(ctx context.Context, j Job) Result {
	sl := slot{ch: e.solveSlots}
	defer sl.release()
	return e.solve(ctx, &sl, j)
}

// solve runs one job, taking the solve slot sl once the job has passed
// validation, unless the caller already holds it: Run and RunStream take
// each job's slot before starting the job, so one call's jobs start in
// input order. The caller releases sl.
func (e *Engine) solve(ctx context.Context, sl *slot, j Job) (res Result) {
	defer func() {
		// A panicking solver run must not take down a million-net batch.
		if p := recover(); p != nil {
			res = Result{Net: j.Net, TreeNet: j.TreeNet, Tech: e.tech.Name, Err: fmt.Errorf("engine: solver panic: %v", p)}
		}
	}()
	p, err := e.prepare(j, true)
	var ent cached
	hit := false
	if err == nil {
		ent, hit, err = e.acquire(ctx, sl, &p, func(ent cached) (ok bool) {
			res, ok = e.answer(&p, ent, true)
			return ok
		})
	}
	switch {
	case err != nil:
		res = p.head
		res.Err = err
	case !hit:
		res, _ = e.answer(&p, ent, false)
	}
	return res
}

// solveLineFront computes a line shape's reference-space τmin and native
// Pareto front — the two dynamic programs of a cold solve — folding the
// work into the DP counters and caching the entry under key. The τmin is
// computed unconditionally: the entry must serve future relative-target
// jobs without re-running any DP, and the second sweep is the expensive
// one anyway. The front is one flat width-aware sweep. The returned
// points alias the cached entry's slices, which share the front's
// backing arrays; callers must copy before serving. The caller holds a
// solve slot; the DP arenas are taken here, so only a job that is
// actually solving pins any.
func (e *Engine) solveLineFront(ctx context.Context, ev *delay.Evaluator, name, key string, cpl *delay.Coupling) (_ lineFront, tmin float64, _ error) {
	if e.testHookSolve != nil {
		e.testHookSolve()
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, fmt.Errorf("engine: net %q: %w", name, err)
	}
	s := dp.AcquireSolver()
	defer dp.ReleaseSolver(s)
	// A coupled job's τmin is priced under the same crosstalk scenario as
	// its front: a relative target must mean "α times the best this net
	// can do under these neighbors", not under the ground-only model.
	ro := e.refOpts
	ro.Coupling = cpl
	tmin, st, err := s.MinimumDelayStats(ev, ro)
	e.noteDP(st)
	if err != nil {
		e.noteDPErr(err)
		return nil, 0, fmt.Errorf("engine: τmin for %q: %w", name, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, fmt.Errorf("engine: net %q: %w", name, err)
	}
	fo := e.frontOpts
	fo.Coupling = cpl
	if cpl != nil {
		e.couplingSolves.Add(1)
	}
	front, fst, err := s.SolveFront(ev, fo)
	e.noteDP(fst)
	if err != nil {
		e.noteDPErr(err)
		return nil, 0, fmt.Errorf("engine: solving %q: %w", name, err)
	}
	e.noteFront(len(front))
	pts := make(lineFront, len(front))
	for i, p := range front {
		pts[i] = linePoint{
			delay:      p.Delay,
			totalWidth: p.TotalWidth,
			positions:  p.Assignment.Positions,
			widths:     p.Assignment.Widths,
			schemes:    p.Schemes,
			staggerLen: p.StaggerLen,
			shieldLen:  p.ShieldLen,
		}
	}
	if e.cache != nil {
		e.cache.put(key, cached{front: pts, tmin: tmin})
	}
	return pts, tmin, nil
}
