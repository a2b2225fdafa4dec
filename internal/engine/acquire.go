package engine

import (
	"context"
	"fmt"
	"math"
	"slices"

	"github.com/rip-eda/rip/internal/core"
	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/dp"
	"github.com/rip-eda/rip/internal/tree"
	"github.com/rip-eda/rip/internal/wire"
)

// This file is the one path every line and tree job takes through the
// engine: prepare validates a job once, acquire turns it into a front
// entry (a cached entry that passed the caller's check, or a fresh solve),
// and the readers — Solve's answer, Front's curve — only read that entry.

// verifyTol is the relative tolerance within which a value re-priced on
// the job's own net must reproduce the cached one. Independent
// re-evaluation differs from the DP's own arithmetic by a few ulps (at
// most 3.5e-15 relative on netgen lines and trees on all four nodes),
// while a quantized neighbor's values differ by about 1e-7 or more.
const verifyTol = 1e-12

// near reports whether got is within verifyTol·scale of want.
func near(got, want, scale float64) bool { return math.Abs(got-want) <= verifyTol*scale }

// prepared is a job that passed validation, with what acquiring and
// reading its entry need resolved once.
type prepared struct {
	j Job
	// head is the result every answer to the job starts from: the echoed
	// net, the node, and the crosstalk scenario echo.
	head Result
	// kind and name label the job in error messages ("net" or "tree net").
	kind, name string
	cpl        *delay.Coupling
	// ev and stages are a line job's evaluator and, when coupled, its
	// candidate grid's wire table (see lineShape); shapeKey is its
	// signature's geometry prefix when a shared preparation supplied one.
	ev       *delay.Evaluator
	stages   *delay.Stages
	shapeKey string
	// walk is a tree job's nodes in pre-order, which cached walk
	// positions index; embedded selects the embedded-deadline front, and
	// deadline is then the latest sink deadline, the scale of its slacks.
	walk     []*tree.Node
	embedded bool
	deadline float64
}

// errorf labels err with the job's kind and name.
func (p *prepared) errorf(err error) error {
	return fmt.Errorf("engine: %s %q: %w", p.kind, p.name, err)
}

// prepare validates j: the own-node guard, the net kind, the budget
// fields (solve only; Front ignores them), the crosstalk scenario, and
// the line's evaluator or the tree's validity. p.head is set even when
// validation fails. Errors carry the ErrBadJob class.
func (e *Engine) prepare(j Job, solve bool) (p prepared, err error) {
	p.j = j
	p.head = Result{Net: j.Net, TreeNet: j.TreeNet, Tech: e.tech.Name}
	p.kind = "net"
	if j.Net != nil {
		p.name = j.Net.Name
	} else if j.TreeNet != nil {
		p.kind, p.name = "tree net", j.TreeNet.Name
	}
	switch {
	case !e.acceptsTech(j.Tech):
		// A Multi resolves Tech and clears it before delegating; a bare
		// Engine reaching this point would solve under the wrong node.
		p.head.Tech = j.Tech
		return p, badJob("engine: net %q requests node %q but this engine solves %q (serve multiple nodes through a Multi)",
			p.name, j.Tech, e.tech.Name)
	case j.Net == nil && j.TreeNet == nil:
		return p, badJob("engine: job has a nil net")
	case j.Net != nil && j.TreeNet != nil:
		return p, badJob("engine: net %q: give Net or TreeNet, not both", p.name)
	}
	if solve {
		switch {
		case j.TargetMult > 0 && j.Target > 0:
			return p, badJob("engine: net %q: give TargetMult or Target, not both", p.name)
		case len(j.Budgets) > 0 && (j.TargetMult > 0 || j.Target > 0):
			return p, badJob("engine: net %q: give Budgets or a single TargetMult/Target, not both", p.name)
		case j.Net != nil && j.TargetMult <= 0 && j.Target <= 0 && len(j.Budgets) == 0:
			return p, badJob("engine: net %q: a positive TargetMult or Target is required", p.name)
		case j.TreeNet != nil && j.TargetMult <= 0 && j.Target <= 0 && len(j.Budgets) == 0 && !j.TreeNet.HasDeadlines():
			return p, badJob("engine: tree net %q: a positive TargetMult or Target is required unless every sink carries its own deadline", p.name)
		}
		for _, bgt := range j.Budgets {
			if math.IsNaN(bgt) || math.IsInf(bgt, 0) || bgt <= 0 {
				return p, badJob("engine: net %q: budget %g is not a positive finite time", p.name, bgt)
			}
		}
	}
	if p.cpl, err = e.resolveCoupling(j, p.name); err != nil {
		return p, err
	}
	if p.cpl != nil {
		if j.MF != nil {
			p.head.MF = j.MF
		} else {
			p.head.Aggressor = p.cpl.Aggressor.String()
			p.head.Scheme = p.cpl.Mode.String()
		}
		e.couplingJobs.Add(1)
	}
	if tn := j.TreeNet; tn != nil {
		if err := tn.Validate(); err != nil {
			return p, asBadJob(err)
		}
		p.walk = tn.Tree.WalkOrder(nil)
		if p.embedded = treeEmbedded(j); p.embedded {
			for _, s := range tn.Tree.Sinks() {
				p.deadline = max(p.deadline, s.SinkRAT)
			}
		}
		return p, nil
	}
	if sh := j.shape; sh != nil && sh.eng == e {
		p.ev, p.stages, p.shapeKey = sh.ev, sh.stages, sh.key
		return p, nil
	}
	if p.ev, err = delay.NewEvaluator(j.Net, e.tech); err != nil {
		return p, asBadJob(err)
	}
	if p.cpl != nil {
		p.stages = e.gridStages(p.ev)
	}
	return p, nil
}

// lineShape is what every job on one line net needs whatever its
// scenario: the evaluator, the wire table of its coupled candidate grid,
// and its signature's geometry prefix. solveBus builds one per track and
// hands it to all of the track's member jobs, which then skip validating
// the net, building the grid and table, and writing the geometry's key.
type lineShape struct {
	eng    *Engine
	ev     *delay.Evaluator
	stages *delay.Stages
	key    string
}

// newLineShape prepares net for e, or returns nil when the net fails
// validation, so its jobs report the error from prepare as usual.
func (e *Engine) newLineShape(net *wire.Net) *lineShape {
	ev, err := delay.NewEvaluator(net, e.tech)
	if err != nil {
		return nil
	}
	return &lineShape{eng: e, ev: ev, stages: e.gridStages(ev), key: e.sig.shapeKey(net)}
}

// gridStages tabulates a line's coupled candidate grid: both ends plus
// every legal position on the front space's pitch, the intervals a
// coupled point's schemes index.
func (e *Engine) gridStages(ev *delay.Evaluator) *delay.Stages {
	grid := ev.Line.AppendLegalPositions([]float64{0}, e.frontOpts.Pitch)
	return ev.NewStages(append(grid, ev.Line.Length()))
}

// acquire returns the entry that answers p and whether it was a hit: a
// cached entry that passed check on the job's own net, or else a fresh
// solve, cached under the job's signature (Signature). It takes the solve
// slot sl before the lookup, unless the caller already holds it, and
// looks up under single flight (see lookup); an entry that fails check
// counts one rejection and is re-solved.
func (e *Engine) acquire(ctx context.Context, sl *slot, p *prepared, check func(cached) bool) (ent cached, hit bool, err error) {
	// Take an engine-wide solve slot: concurrent callers queue here
	// rather than multiplying parallelism beyond the worker budget.
	if err := sl.acquire(ctx); err != nil {
		return cached{}, false, p.errorf(err)
	}
	tn := p.j.TreeNet
	var key string
	if e.cache != nil {
		key = e.key(p)
		o, lead, err := e.lookup(ctx, sl, key, func() lookupOutcome {
			var ok bool
			if ent, ok = e.cache.get(key); !ok || ent.tree != (tn != nil) {
				return lookupMiss
			}
			if check(ent) {
				return lookupHit
			}
			return lookupRejected
		})
		if lead {
			defer e.flights.land(key)
		}
		if err != nil {
			return cached{}, false, p.errorf(err)
		}
		if o == lookupHit {
			return ent, true, nil
		}
	}
	// Cold solve: one τmin reference sweep plus one unbounded width-aware
	// front sweep per distinct shape; the front then answers every budget
	// this job (and any future shape-equal job) asks for.
	ent = cached{tree: tn != nil}
	if tn != nil {
		ent.treeFront, ent.tmin, err = e.solveTreeFront(ctx, tn, p.embedded, key)
	} else {
		ent.front, ent.tmin, err = e.solveLineFront(ctx, p.ev, p.name, key, p.cpl)
	}
	return ent, false, err
}

// key is p's signature (Signature), keyed by its resolved scenario and
// from its shared geometry prefix when it has one.
func (e *Engine) key(p *prepared) string {
	switch {
	case p.j.TreeNet != nil:
		return e.sig.treeKey(p.j, p.embedded)
	case p.shapeKey != "":
		return e.sig.scenarioKey(p.shapeKey, p.cpl)
	}
	return e.sig.key(p.j.Net, p.cpl)
}

// answer resolves the job's budgets on ent: a Budgets sweep, or one
// budget, TargetMult times the entry's τmin or Target. Each budget picks
// the front's cheapest point that meets it. On a fresh entry (verify
// false) a budget the front cannot meet is answered infeasible, a verdict
// rather than an error, and lines serve the DP's own delay.
//
// On a cached entry (verify true) this is Solve's check: every chosen
// point must pass the point check on the job's own net and meet its
// budget when re-priced, or the whole answer fails. So must the next
// cheaper point, re-priced the same way, when it passes the point check:
// if it meets the budget by more than verifyTol, the entry's timing reads
// slower than this net's and a fresh solve would answer narrower.
// Infeasibility must be pronounced by a fresh solve on the exact net,
// never inherited from a quantized neighbor's front. Verified line
// answers serve the re-priced delay. Relative budgets are evaluated
// against the entry's τmin (recomputing τmin per hit would cost the DP
// the cache exists to skip); see the package comment for the resulting
// tolerance on quantized neighbors.
func (e *Engine) answer(p *prepared, ent cached, verify bool) (Result, bool) {
	one := func(target float64) (ba BudgetAnswer, ok bool) {
		ba.Budget = target
		if ent.tree {
			ba.TreeRes, ok = e.treeAnswer(p, ent.treeFront, target, verify)
		} else {
			ba.Res, ok = e.lineAnswer(p, ent.front, target, verify)
		}
		return ba, ok
	}
	res := p.head
	if len(p.j.Budgets) > 0 {
		res.Sweep = make([]BudgetAnswer, len(p.j.Budgets))
		for i, bgt := range p.j.Budgets {
			var ok bool
			if res.Sweep[i], ok = one(bgt); !ok {
				return Result{}, false
			}
		}
		e.frontLookups.Add(uint64(len(p.j.Budgets)))
	} else {
		target := p.j.Target
		if p.j.TargetMult > 0 {
			if verify && !(ent.tmin > 0) {
				return Result{}, false
			}
			res.TMin = ent.tmin
			target = p.j.TargetMult * ent.tmin
		}
		res.Target = target
		ba, ok := one(target)
		if !ok {
			return Result{}, false
		}
		res.Res, res.TreeRes = ba.Res, ba.TreeRes
		e.frontLookups.Add(1)
	}
	// Coupled answers count only once the whole answer stands: a rejected
	// hit falls through to a fresh solve whose answers are counted there.
	if p.cpl != nil {
		e.noteCouplingAnswer(res.Res.Solution.StaggerLen, res.Res.Solution.ShieldLen)
		for _, ba := range res.Sweep {
			e.noteCouplingAnswer(ba.Res.Solution.StaggerLen, ba.Res.Solution.ShieldLen)
		}
	}
	res.CacheHit = verify
	return res, true
}

// lineAnswer answers one budget from a line front (see answer).
func (e *Engine) lineAnswer(p *prepared, f lineFront, target float64, verify bool) (core.Result, bool) {
	out := core.Result{Report: core.Report{Picked: core.PhaseFront}}
	idx, ok := f.at(target)
	if !ok {
		return out, !verify
	}
	pt := f[idx]
	d := pt.delay
	if verify {
		if d, ok = checkLinePoint(p, pt); !ok || d > target {
			return out, false
		}
		if idx+1 < len(f) {
			if dn, ok := checkLinePoint(p, f[idx+1]); ok && dn < target*(1-verifyTol) {
				return out, false
			}
		}
	}
	// Served assignments are copies: a caller mutating its result must
	// not corrupt the shared cache entry.
	out.Solution = dp.Solution{
		Assignment: delay.Assignment{
			Positions: append([]float64(nil), pt.positions...),
			Widths:    append([]float64(nil), pt.widths...),
		},
		Delay:      d,
		TotalWidth: pt.totalWidth,
		Feasible:   true,
	}
	if p.cpl != nil {
		out.Solution.Schemes = append([]uint8(nil), pt.schemes...)
		out.Solution.StaggerLen = pt.staggerLen
		out.Solution.ShieldLen = pt.shieldLen
	}
	return out, true
}

// treeAnswer answers one budget from a tree front (see answer). Uniform
// budgets are answered on the zero-RAT front, where an option's slack is
// the negated worst-sink arrival: the requirement for budget T is slack ≥
// −T, so one front answers every uniform deadline. Embedded deadlines
// are answered at slack ≥ 0. Fresh and cached points alike are re-priced
// by the independent evaluator, so miss and hit answers agree bit for bit.
func (e *Engine) treeAnswer(p *prepared, f treeFront, target float64, verify bool) (tree.HybridResult, bool) {
	out := tree.HybridResult{Picked: treePickedFront}
	minSlack, work := 0.0, p.j.TreeNet.Tree
	if !p.embedded {
		minSlack = -target
	}
	idx, ok := f.at(minSlack)
	if !ok {
		return out, !verify
	}
	if !p.embedded {
		work = work.CloneWithRAT(target)
	}
	pt := f[idx]
	buffers, slack, ok := e.checkTreePoint(p, work, pt)
	if !ok || slack < 0 {
		return out, !verify
	}
	if verify && idx+1 < len(f) {
		// The next cheaper point must miss (see answer). Slacks are scaled
		// like checkFront's: by the budget, or the latest deadline.
		scale := p.deadline
		if !p.embedded {
			scale = target
		}
		if _, s, ok := e.checkTreePoint(p, work, f[idx+1]); ok && s > verifyTol*(scale+math.Abs(s)) {
			return out, false
		}
	}
	out.Solution = tree.Solution{
		Buffers:    buffers,
		Slack:      slack,
		TotalWidth: pt.totalWidth,
		Feasible:   true,
	}
	return out, true
}

// checkFront is Front's check: it re-prices every point of a cached front
// on the job's own net with the point checks Solve's hits use, and
// accepts the entry only when every re-priced delay (line) or slack
// (tree) is within verifyTol of the cached value, scaled by the delay. An
// accepted entry is served with its cached values, so a hit's curve is
// bit-identical to the solve that stored it; a quantized neighbor
// re-solves instead of inheriting its neighbor's curve. The cached points
// already form a Pareto front, so no dominance filter is needed.
func (e *Engine) checkFront(p *prepared, ent cached) bool {
	if tn := p.j.TreeNet; tn != nil {
		if len(ent.treeFront) == 0 {
			return false
		}
		// Uniform-mode points live on one zero-RAT clone, where the slack
		// is the negated arrival. Embedded slacks can sit near zero, so
		// they are scaled by the latest deadline plus the slack, which
		// bounds the worst sink's arrival.
		work := tn.Tree
		if !p.embedded {
			work = tn.Tree.CloneWithRAT(0)
		}
		for _, pt := range ent.treeFront {
			_, slack, ok := e.checkTreePoint(p, work, pt)
			if !ok || !near(slack, pt.slack, p.deadline+math.Abs(slack)) {
				return false
			}
		}
		return true
	}
	if len(ent.front) == 0 {
		return false
	}
	for _, pt := range ent.front {
		d, ok := checkLinePoint(p, pt)
		if !ok || !near(d, pt.delay, d) {
			return false
		}
	}
	return true
}

// checkLinePoint re-prices a line front point on the job's own net. The
// assignment must be legal there and its widths must sum to the point's
// total width. An uncoupled point must carry no schemes; a coupled
// point's scheme vector must match the job's grid interval for interval,
// use only the scenario's schemes, and reproduce the point's staggered
// and shielded lengths. It returns the recomputed delay: Total, or the
// coupled walk over the job's grid table for a coupled point.
func checkLinePoint(p *prepared, pt linePoint) (float64, bool) {
	a := delay.Assignment{Positions: pt.positions, Widths: pt.widths}
	if p.ev.Validate(a) != nil {
		return 0, false
	}
	if sum := a.TotalWidth(); !near(sum, pt.totalWidth, sum) {
		return 0, false
	}
	if p.cpl == nil {
		if len(pt.schemes) > 0 || pt.staggerLen != 0 || pt.shieldLen != 0 {
			return 0, false
		}
		return p.ev.Total(a), true
	}
	if len(pt.schemes) != len(p.stages.Points)-1 {
		return 0, false
	}
	for _, s := range pt.schemes {
		if !slices.Contains(p.cpl.Schemes, s) {
			return 0, false
		}
	}
	if st, sh := delay.SchemeLengths(p.stages.Points, pt.schemes); !near(st, pt.staggerLen, st) || !near(sh, pt.shieldLen, sh) {
		return 0, false
	}
	d, err := p.ev.CoupledStages(p.stages, pt.schemes, p.cpl, a)
	return d, err == nil
}

// checkTreePoint maps a tree front point onto the job's tree and
// re-prices it on work, the tree under the deadlines to check against.
// Walk positions must ascend strictly and each must be a buffer site of
// this tree, and the widths must sum to the point's total width. It
// returns the placement by node ID and its worst slack, recomputed by the
// independent evaluator.
func (e *Engine) checkTreePoint(p *prepared, work *tree.Tree, pt treePoint) (map[int]float64, float64, bool) {
	buffers := make(map[int]float64, len(pt.ids))
	sum, prev := 0.0, int32(-1)
	for i, q := range pt.ids {
		if q <= prev || int(q) >= len(p.walk) || !p.walk[q].BufferSite {
			return nil, 0, false
		}
		prev = q
		buffers[p.walk[q].ID] = pt.widths[i]
		sum += pt.widths[i]
	}
	if !near(sum, pt.totalWidth, sum) {
		return nil, 0, false
	}
	slack, err := work.Evaluate(buffers, p.j.TreeNet.DriverWidth, e.tech.Rs, e.tech.Co, e.tech.Cp)
	return buffers, slack, err == nil
}
