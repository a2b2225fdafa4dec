package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"github.com/rip-eda/rip/internal/tree"
)

// treePickedFront marks tree answers read off a retained Pareto front,
// the tree analogue of core.PhaseFront.
const treePickedFront = "front"

// errTreeShape flags a cached walk position that does not exist on the
// tree being served — a shape mismatch under quantization.
var errTreeShape = errors.New("engine: cached walk position outside tree")

// treeEmbedded reports whether the job solves against the tree's
// embedded per-sink deadlines: no uniform budget of any form, and every
// sink carries its own RAT. SolveContext's validation rejects the
// no-budget no-deadline combination before this is consulted; Front
// queries fall back to the uniform zero-RAT curve for such trees.
func treeEmbedded(j Job) bool {
	return j.TargetMult <= 0 && j.Target <= 0 && len(j.Budgets) == 0 &&
		j.TreeNet.Tree.HasDeadlines()
}

// solveTree is the tree-job arm of SolveContext: cache lookup with a
// shape-aware key, one max-slack τmin sweep plus one width-aware front
// sweep per cold shape, and every requested budget answered from the
// retained front. It mirrors the line arm phase for phase so both net
// kinds share the worker pool, the cache and the cancellation
// discipline.
//
// Uniform budgets are answered on a zero-RAT front, where an option's
// slack is the negated worst-sink arrival: the requirement for budget T
// is slack ≥ −T, so one front answers every uniform deadline. Embedded
// deadlines get their own front (and signature mode) on the actual tree,
// answered at slack ≥ 0.
func (e *Engine) solveTree(ctx context.Context, sl *slot, j Job, res Result) Result {
	tn := j.TreeNet
	if err := tn.Validate(); err != nil {
		res.Err = asBadJob(err)
		return res
	}
	embedded := treeEmbedded(j)

	var key string
	if e.cache != nil {
		key = e.sig.treeKey(j, embedded)
		var hit Result
		o, lead, err := e.lookup(ctx, sl, key, func() lookupOutcome {
			ent, ok := e.cache.get(key)
			if !ok || !ent.tree {
				return lookupMiss
			}
			var verified bool
			if hit, verified = e.verifyTree(ent, j, embedded); verified {
				return lookupHit
			}
			return lookupRejected
		})
		if lead {
			defer e.flights.land(key)
		}
		if err != nil {
			res.Err = fmt.Errorf("engine: tree net %q: %w", tn.Name, err)
			return res
		}
		if o == lookupHit {
			hit.TreeNet = tn
			hit.Tech = e.tech.Name
			return hit
		}
	}

	pts, tmin, err := e.solveTreeFront(ctx, tn, embedded, key)
	if err != nil {
		res.Err = err
		return res
	}

	// Answer from the local front; the served slack is recomputed by the
	// independent evaluator so miss and hit answers agree bit for bit.
	answer := func(target float64) tree.HybridResult {
		e.frontLookups.Add(1)
		out := tree.HybridResult{Picked: treePickedFront}
		minSlack := 0.0
		if !embedded {
			minSlack = -target
		}
		idx, ok := pts.at(minSlack)
		if !ok {
			return out // infeasible at this budget: a verdict, not an error
		}
		p := pts[idx]
		buffers, slack, err := e.treePlacement(tn, p, target, embedded)
		if err != nil || slack < 0 {
			return out
		}
		out.Solution = tree.Solution{
			Buffers:    buffers,
			Slack:      slack,
			TotalWidth: p.totalWidth,
			Feasible:   true,
		}
		return out
	}
	if len(j.Budgets) > 0 {
		res.Sweep = make([]BudgetAnswer, len(j.Budgets))
		for i, bgt := range j.Budgets {
			res.Sweep[i] = BudgetAnswer{Budget: bgt, TreeRes: answer(bgt)}
		}
		return res
	}
	target := j.Target
	if j.TargetMult > 0 {
		res.TMin = tmin
		target = j.TargetMult * tmin
	}
	res.Target = target
	res.TreeRes = answer(target)
	return res
}

// solveTreeFront computes a tree shape's τmin (uniform mode only) and
// its native Pareto front, folding work into the tree DP counters and
// caching the entry under key. Buffers are stored by pre-order walk
// position, not node ID, so the entry serves any shape-equal tree
// regardless of labeling. Like solveLineFront, it takes its own DP arenas.
func (e *Engine) solveTreeFront(ctx context.Context, tn *tree.Net, embedded bool, key string) (treeFront, float64, error) {
	ts := tree.AcquireSolver()
	defer tree.ReleaseSolver(ts)
	tmin := 0.0
	if !embedded {
		if err := ctx.Err(); err != nil {
			return nil, 0, fmt.Errorf("engine: tree net %q: %w", tn.Name, err)
		}
		// Relative targets are multiples of the tree's minimum achievable
		// worst-sink arrival, computed on the same reference library the
		// two-pin τmin uses.
		m, st, err := ts.MinArrival(tn.Tree, tree.Options{
			Library: e.refOpts.Library, Tech: e.tech, DriverWidth: tn.DriverWidth,
		})
		e.noteTree(st)
		if err != nil {
			return nil, 0, fmt.Errorf("engine: tree τmin for %q: %w", tn.Name, err)
		}
		if !(m > 0) {
			return nil, 0, fmt.Errorf("engine: tree net %q: non-positive minimum arrival %g", tn.Name, m)
		}
		tmin = m
	}
	work := tn.Tree
	if !embedded {
		// The zero-RAT clone makes slack = −arrival, so the front answers
		// every uniform budget; the caller's tree is never mutated.
		work = tn.Tree.CloneWithRAT(0)
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, fmt.Errorf("engine: tree net %q: %w", tn.Name, err)
	}
	front, fst, err := ts.InsertFront(work, tree.Options{
		Library: e.frontOpts.Library, Tech: e.tech, DriverWidth: tn.DriverWidth,
	})
	e.noteTree(fst)
	if err != nil {
		return nil, 0, fmt.Errorf("engine: solving tree %q: %w", tn.Name, err)
	}
	e.noteFront(len(front))

	walk := tn.Tree.WalkOrderIDs(nil)
	pos := make(map[int]int32, len(walk))
	for i, id := range walk {
		pos[id] = int32(i)
	}
	pts := make(treeFront, len(front))
	for i, p := range front {
		ids := make([]int32, 0, len(p.Buffers))
		for id := range p.Buffers {
			ids = append(ids, pos[id])
		}
		slices.Sort(ids)
		ws := make([]float64, len(ids))
		for k, q := range ids {
			ws[k] = p.Buffers[walk[q]]
		}
		pts[i] = treePoint{slack: p.Slack, totalWidth: p.TotalWidth, ids: ids, widths: ws}
	}
	if e.cache != nil {
		e.cache.put(key, cached{tree: true, treeFront: pts, tmin: tmin})
	}
	return pts, tmin, nil
}

// treePlacement maps a retained front point onto the actual tree and
// recomputes its worst slack under the resolved deadlines with the
// independent evaluator, so every served tree answer is consistent with
// the tree it is served for.
func (e *Engine) treePlacement(tn *tree.Net, p treePoint, target float64, embedded bool) (map[int]float64, float64, error) {
	walk := tn.Tree.WalkOrderIDs(nil)
	buffers := make(map[int]float64, len(p.ids))
	for i, q := range p.ids {
		if int(q) >= len(walk) {
			return nil, 0, errTreeShape
		}
		buffers[walk[q]] = p.widths[i]
	}
	work := tn.Tree
	if !embedded {
		work = tn.Tree.CloneWithRAT(target)
	}
	slack, err := work.Evaluate(buffers, tn.DriverWidth, e.tech.Rs, e.tech.Co, e.tech.Cp)
	if err != nil {
		return nil, 0, err
	}
	return buffers, slack, nil
}

// verifyTree answers a tree job from a cached front: the chosen point's
// walk positions must exist on this tree and its recomputed worst slack
// under every requested budget must be non-negative. Any budget the
// front cannot meet rejects the whole lookup, exactly like the line arm.
func (e *Engine) verifyTree(ent cached, j Job, embedded bool) (Result, bool) {
	if len(ent.treeFront) == 0 {
		return Result{}, false
	}
	tn := j.TreeNet
	answer := func(target float64) (tree.HybridResult, bool) {
		minSlack := 0.0
		if !embedded {
			minSlack = -target
		}
		idx, ok := ent.treeFront.at(minSlack)
		if !ok {
			return tree.HybridResult{}, false
		}
		p := ent.treeFront[idx]
		buffers, slack, err := e.treePlacement(tn, p, target, embedded)
		if err != nil || slack < 0 {
			return tree.HybridResult{}, false
		}
		return tree.HybridResult{
			Solution: tree.Solution{
				Buffers:    buffers,
				Slack:      slack,
				TotalWidth: p.totalWidth,
				Feasible:   true,
			},
			Picked: treePickedFront,
		}, true
	}
	var res Result
	var lookups uint64
	switch {
	case len(j.Budgets) > 0:
		res.Sweep = make([]BudgetAnswer, len(j.Budgets))
		for i, bgt := range j.Budgets {
			r, ok := answer(bgt)
			if !ok {
				return Result{}, false
			}
			res.Sweep[i] = BudgetAnswer{Budget: bgt, TreeRes: r}
		}
		lookups = uint64(len(j.Budgets))
	default:
		target := j.Target
		if j.TargetMult > 0 {
			if ent.tmin <= 0 {
				return Result{}, false
			}
			res.TMin = ent.tmin
			target = j.TargetMult * ent.tmin
		}
		res.Target = target
		r, ok := answer(target)
		if !ok {
			return Result{}, false
		}
		res.TreeRes = r
		lookups = 1
	}
	e.frontLookups.Add(lookups)
	res.CacheHit = true
	return res, true
}

// treeKey canonicalizes a tree job: technology node, driver width, the
// tree's pre-order shape with per-node electrical profile (child count,
// edge RC, sink cap, buffer-site flag), and the deadline mode — "|u" for
// uniform budgets (whose value is deliberately absent: the zero-RAT
// front answers them all) or "|e" for embedded deadlines with every
// sink's quantized RAT in walk order. Shape-equal trees in one mode are
// solved once and served from cache for every budget.
func (s *signer) treeKey(j Job, embedded bool) string {
	tn := j.TreeNet
	var b strings.Builder
	b.Grow(64 + 48*tn.Tree.NumNodes())
	b.WriteString(s.techPrefix)
	b.WriteString("|T|d")
	appendFloat(&b, tn.DriverWidth)
	b.WriteString("|n")
	var walk func(n *tree.Node)
	walk = func(n *tree.Node) {
		b.WriteString(strconv.Itoa(len(n.Children)))
		b.WriteByte(':')
		appendFloat(&b, n.EdgeR)
		appendFloat(&b, n.EdgeC)
		if n.SinkCap > 0 {
			b.WriteByte('s')
			appendFloat(&b, n.SinkCap)
			if embedded {
				appendQuant(&b, n.SinkRAT, s.targetQuantum)
			}
		}
		if n.BufferSite {
			b.WriteByte('B')
		}
		b.WriteByte(';')
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tn.Tree.Root)
	if embedded {
		b.WriteString("|e")
	} else {
		b.WriteString("|u")
	}
	return b.String()
}
