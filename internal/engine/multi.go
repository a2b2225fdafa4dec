package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"github.com/rip-eda/rip/internal/tech"
)

// Forwarder lets a transport claim jobs before the Multi solves them
// locally — the hook consistent-hash peer routing plugs into. Every
// method receives the job with Tech already resolved to its canonical
// name. Owner names the peer that owns the job, or reports ok=false to
// keep it local (job unroutable, shape owned locally, request already
// forwarded, ...); only then are ForwardSolve and ForwardFront called,
// with that peer. They report handled=false to decline after all (peer
// unreachable with fallback enabled), in which case the Multi solves
// locally as if no forwarder were installed. A forwarder that returns
// handled=true must return a complete Result / FrontResult (its Err
// field carrying any remote failure).
//
// Hooking at the Multi rather than the transport means every path —
// single solves, array batches, JSONL streams, bus members — inherits
// routing. A forwarded job waits on a peer, not a CPU, so it holds no
// solve slot; one Run, RunStream or bus pass forwards at most Workers
// jobs at a time instead.
type Forwarder interface {
	Owner(ctx context.Context, j Job) (peer string, ok bool)
	ForwardSolve(ctx context.Context, peer string, j Job) (Result, bool)
	ForwardFront(ctx context.Context, peer string, j Job) (FrontResult, bool)
}

// Multi is the multi-technology facade over a set of per-node Engines:
// every job carries an optional Tech name and is routed to the engine
// built for that node, so one process serves T180 and T65 traffic side
// by side with the same ordering, error-isolation and caching guarantees
// a single Engine gives.
//
// Isolation and sharing are deliberately split:
//
//   - Solution caches are per technology — each engine keys and stores
//     its own entries (whose signatures embed the node's full electrical
//     identity on top), so a T90 result can never be served for a T180
//     request.
//   - The worker budget is shared — every engine's solve slots are one
//     channel, so total concurrent solves stay bounded by Workers no
//     matter how many nodes are served or how traffic skews across them.
//
// A Multi is built from a frozen tech.Registry (NewMulti freezes it if
// the caller has not), which is what makes the node set immutable for the
// Multi's lifetime. Like Engine, a Multi is safe for concurrent use.
type Multi struct {
	reg     *tech.Registry
	engines map[string]*Engine // canonical name → engine
	def     string             // canonical default node
	slots   chan struct{}      // the solve slots every engine shares
	fwd     atomic.Value       // Forwarder; nil until SetForwarder
}

// NewMulti builds one Engine per node in the registry, with shared solve
// slots and per-node caches, and routes jobs whose Tech is empty to
// defaultTech (any alias accepted). The registry is frozen as a side
// effect: the node set must not change under a running Multi.
func NewMulti(reg *tech.Registry, defaultTech string, opts Options) (*Multi, error) {
	if reg == nil {
		return nil, errors.New("engine: nil technology registry")
	}
	if reg.Len() == 0 {
		return nil, errors.New("engine: technology registry has no nodes")
	}
	reg.Freeze()
	_, def, err := reg.Get(defaultTech)
	if err != nil {
		return nil, fmt.Errorf("engine: default technology: %w", err)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	opts.Workers = workers
	// One slot channel for the whole Multi: per-engine channels would let
	// N nodes run N×workers concurrent solves.
	slots := make(chan struct{}, workers)
	m := &Multi{
		reg:     reg,
		engines: make(map[string]*Engine, reg.Len()),
		def:     def,
		slots:   slots,
	}
	for _, name := range reg.Names() {
		node, _, err := reg.Get(name)
		if err != nil {
			return nil, err
		}
		e, err := New(node, opts)
		if err != nil {
			return nil, fmt.Errorf("engine: building %s engine: %w", name, err)
		}
		e.solveSlots = slots
		// An engine unwrapped via Engine(name) must accept jobs addressed
		// by any of the node's registry names, not just Technology.Name.
		e.techAliases = make(map[string]bool)
		for _, alias := range reg.Aliases(name) {
			e.techAliases[alias] = true
		}
		m.engines[name] = e
	}
	return m, nil
}

// Workers returns the shared parallelism bound.
func (m *Multi) Workers() int { return cap(m.slots) }

// Default returns the canonical name of the default node.
func (m *Multi) Default() string { return m.def }

// Names lists the served nodes' canonical names, sorted.
func (m *Multi) Names() []string { return m.reg.Names() }

// Resolve maps a requested technology name (or "" for the default) to
// its canonical name. An unknown name yields the registry's error, which
// lists every known node — transports surface it verbatim.
func (m *Multi) Resolve(name string) (string, error) {
	if name == "" {
		return m.def, nil
	}
	_, canon, err := m.reg.Get(name)
	return canon, err
}

// Engine returns the per-node engine for the named technology (any
// alias), for per-technology stats and direct single-node use. The
// boolean is false for unknown names.
func (m *Multi) Engine(name string) (*Engine, bool) {
	canon, err := m.Resolve(name)
	if err != nil {
		return nil, false
	}
	e, ok := m.engines[canon]
	return e, ok
}

// CacheStats aggregates cache effectiveness across every node's engine.
// Per-node snapshots come from Engine(name).CacheStats().
func (m *Multi) CacheStats() CacheStats {
	var s CacheStats
	for _, e := range m.engines {
		st := e.CacheStats()
		s.Hits += st.Hits
		s.Misses += st.Misses
		s.Rejected += st.Rejected
		s.Evictions += st.Evictions
		s.Entries += st.Entries
	}
	return s
}

// SetForwarder installs (or, with nil, removes) the peer-routing hook.
// Install before serving traffic; swapping forwarders under load is
// safe but routes jobs already in flight unpredictably.
func (m *Multi) SetForwarder(f Forwarder) {
	m.fwd.Store(&f)
}

// forwarder returns the installed hook, or nil.
func (m *Multi) forwarder() Forwarder {
	if p, ok := m.fwd.Load().(*Forwarder); ok && p != nil {
		return *p
	}
	return nil
}

// Signature returns the job's canonical cache key under its resolved
// technology node — the identity peer routing hashes — and false when
// the job is unroutable (unknown node, or a shape that cannot be
// keyed). It never solves anything.
func (m *Multi) Signature(j Job) (string, bool) {
	eng, _, err := m.route(j.Tech)
	if err != nil {
		return "", false
	}
	j.Tech = ""
	return eng.Signature(j)
}

// solve routes one job: resolve the node, offer the job to the forwarder
// (if installed), else delegate to the node's engine on slot sl (see
// Engine.solve); either way the canonical name is stamped into the
// result. An unknown node is a per-job failure, isolated like any other.
//
// A job a peer owns yields its slot before it is forwarded: it waits on
// the peer, not on a CPU, and the peer's own forwards may need this
// node's slots. fwd, when not nil, is the calling batch's forward budget
// (see batch).
func (m *Multi) solve(ctx context.Context, sl *slot, fwd chan struct{}, j Job) Result {
	eng, canon, err := m.route(j.Tech)
	if err != nil {
		return Result{Net: j.Net, TreeNet: j.TreeNet, Tech: j.Tech, Err: err}
	}
	if f := m.forwarder(); f != nil {
		fj := j
		fj.Tech = canon
		if peer, ok := f.Owner(ctx, fj); ok {
			sl.yield()
			if r, handled := forwardSolve(ctx, f, fwd, peer, fj); handled {
				r.Tech = canon
				return r
			}
		}
	}
	j.Tech = "" // resolved here; the engine's own-node guard must not re-judge the alias
	r := eng.solve(ctx, sl, j)
	r.Tech = canon
	return r
}

// forwardSolve sends j to peer holding one token of the forward budget
// fwd (nil: unbounded). A job whose context ends while it waits for a
// token is not sent: it reports handled=false, and the local path
// answers with the context's error.
func forwardSolve(ctx context.Context, f Forwarder, fwd chan struct{}, peer string, j Job) (Result, bool) {
	if fwd != nil {
		tok := slot{ch: fwd}
		defer tok.release()
		if tok.acquire(ctx) != nil {
			return Result{}, false
		}
	}
	return f.ForwardSolve(ctx, peer, j)
}

// batch returns the solve one Run, RunStream or bus pass drives. Its
// forwards share a budget of Workers at a time: the bound a batch had
// when it ran on a pool of Workers goroutines, and well inside the
// 4·Workers requests a peer admits by default, so one batch alone cannot
// make the owners it forwards to shed load. Jobs owned here are bounded
// by the solve slots as usual.
func (m *Multi) batch() solveFunc {
	fwd := make(chan struct{}, cap(m.slots))
	return func(ctx context.Context, sl *slot, j Job) Result { return m.solve(ctx, sl, fwd, j) }
}

func (m *Multi) route(name string) (*Engine, string, error) {
	canon, err := m.Resolve(name)
	if err != nil {
		return nil, "", fmt.Errorf("engine: %w", err)
	}
	return m.engines[canon], canon, nil
}

// Front returns one net's full Pareto front, routed by technology like
// Solve.
func (m *Multi) Front(j Job) FrontResult { return m.FrontContext(context.Background(), j) }

// FrontContext is Front with cancellation, with Engine.FrontContext's
// phase-boundary semantics.
func (m *Multi) FrontContext(ctx context.Context, j Job) FrontResult {
	eng, canon, err := m.route(j.Tech)
	if err != nil {
		return FrontResult{Net: j.Net, TreeNet: j.TreeNet, Tech: j.Tech, Err: err}
	}
	if f := m.forwarder(); f != nil {
		fj := j
		fj.Tech = canon
		if peer, ok := f.Owner(ctx, fj); ok {
			if fr, handled := f.ForwardFront(ctx, peer, fj); handled {
				fr.Tech = canon
				return fr
			}
		}
	}
	j.Tech = "" // resolved here; the engine's own-node guard must not re-judge the alias
	fr := eng.FrontContext(ctx, j)
	fr.Tech = canon
	return fr
}

// Solve optimizes one job synchronously (Result.Index is left zero).
func (m *Multi) Solve(j Job) Result { return m.SolveContext(context.Background(), j) }

// SolveContext is Solve with cancellation, with Engine.SolveContext's
// phase-boundary semantics.
func (m *Multi) SolveContext(ctx context.Context, j Job) Result {
	sl := slot{ch: m.slots}
	defer sl.release()
	return m.solve(ctx, &sl, nil, j)
}

// Run optimizes every job and returns results in input order. Per-net
// failures (including unknown technology names) are reported in
// Result.Err; Run itself never fails.
func (m *Multi) Run(jobs []Job) []Result { return m.RunContext(context.Background(), jobs) }

// RunContext is Run with cancellation, mirroring Engine.RunContext: jobs
// not yet solving drain as context errors, every slot is filled.
func (m *Multi) RunContext(ctx context.Context, jobs []Job) []Result {
	return runJobs(ctx, m.slots, jobs, m.batch())
}

// RunStream optimizes jobs as they arrive and emits results in input
// order under a bounded reordering window; the channel closes after the
// last result and must be drained. Mixed-technology streams are the
// point: each line routes independently.
func (m *Multi) RunStream(in <-chan Job) <-chan Result {
	return m.RunStreamContext(context.Background(), in)
}

// RunStreamContext is RunStream with cancellation, mirroring
// Engine.RunStreamContext's window and ownership rules.
func (m *Multi) RunStreamContext(ctx context.Context, in <-chan Job) <-chan Result {
	return runStream(ctx, m.slots, in, m.batch())
}
