package engine

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/rip-eda/rip/internal/tree"
)

// treePickedFront marks tree answers read off a retained Pareto front,
// the tree analogue of core.PhaseFront.
const treePickedFront = "front"

// treeEmbedded reports whether the job solves against the tree's
// embedded per-sink deadlines: no uniform budget of any form, and every
// sink carries its own RAT. SolveContext's validation rejects the
// no-budget no-deadline combination before this is consulted; Front
// queries fall back to the uniform zero-RAT curve for such trees.
func treeEmbedded(j Job) bool {
	return j.TargetMult <= 0 && j.Target <= 0 && len(j.Budgets) == 0 &&
		j.TreeNet.Tree.HasDeadlines()
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

	walk := tn.Tree.WalkOrder(nil)
	pos := make(map[int]int32, len(walk))
	for i, n := range walk {
		pos[n.ID] = int32(i)
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
			ws[k] = p.Buffers[walk[q].ID]
		}
		pts[i] = treePoint{slack: p.Slack, totalWidth: p.TotalWidth, ids: ids, widths: ws}
	}
	if e.cache != nil {
		e.cache.put(key, cached{tree: true, treeFront: pts, tmin: tmin})
	}
	return pts, tmin, nil
}

// treeKey canonicalizes a tree job: technology node, deadline mode,
// driver width and the tree's walk-order shape with per-node electrical
// profile (see signer). Uniform budgets' values are deliberately absent
// (the zero-RAT front answers them all); embedded mode keys every sink's
// quantized deadline. Shape-equal trees in one mode are solved once and
// served from cache for every budget.
func (s *signer) treeKey(j Job, embedded bool) string {
	tn := j.TreeNet
	t := tn.Tree
	var arr [keyStack]byte
	b := keyBuf(arr[:0], sha256.Size+2+8+4+(4+1+4*8)*t.NumNodes())
	mode := byte('u')
	if embedded {
		mode = 'e'
	}
	b = append(b, s.digest[:]...)
	b = append(b, 'T', mode)
	b = appendClass(b, tn.DriverWidth)
	b = binary.LittleEndian.AppendUint32(b, uint32(t.NumNodes()))
	for i := range t.NumNodes() {
		n := t.Walk(i)
		var flags byte
		if n.SinkCap > 0 {
			flags |= 1
		}
		if n.BufferSite {
			flags |= 2
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(len(n.Children)))
		b = append(b, flags)
		b = appendClass(b, n.EdgeR)
		b = appendClass(b, n.EdgeC)
		if n.SinkCap > 0 {
			b = appendClass(b, n.SinkCap)
			if embedded {
				b = appendQuant(b, n.SinkRAT, s.targetQuantum)
			}
		}
	}
	return string(b)
}
