package engine

import (
	"context"
	"fmt"

	"github.com/rip-eda/rip/internal/tree"
	"github.com/rip-eda/rip/internal/wire"
)

// FrontPoint is one point of a served power–delay (or power–slack)
// trade-off curve. Exactly the timing field matching the net kind is
// populated.
type FrontPoint struct {
	// Delay is the point's total Elmore delay in seconds (line nets), or
	// the worst-sink arrival it achieves (trees answered in uniform
	// mode). Zero for embedded-deadline trees.
	Delay float64
	// Slack is the point's worst slack against the tree's embedded
	// per-sink deadlines, in seconds. Zero for line nets and
	// uniform-mode trees.
	Slack float64
	// TotalWidth is the summed repeater/buffer width — the power
	// objective.
	TotalWidth float64
	// Repeaters is the number of inserted repeaters (buffers).
	Repeaters int
	// StaggerLen and ShieldLen are the summed lengths, in meters, of the
	// point's staggered and shielded intervals. Zero except on coupled
	// line fronts (a non-none Job.Aggressor).
	StaggerLen float64
	ShieldLen  float64
}

// FrontResult is one net's whole retained Pareto front — the what-if
// curve POST /v1/front serves. Points run from fastest (most power) to
// cheapest; adjacent points strictly trade delay for width.
type FrontResult struct {
	// Net / TreeNet echo the queried net (exactly one is set).
	Net     *wire.Net
	TreeNet *tree.Net
	// Tech is the node the front was solved under.
	Tech string
	// TMin is the net's reference-space minimum achievable delay (worst
	// sink arrival for trees); zero for embedded-deadline trees.
	TMin float64
	// Points is the front, fastest first.
	Points []FrontPoint
	// Aggressor and Scheme echo a coupled query's crosstalk scenario in
	// normalized form; both empty for uncoupled queries.
	Aggressor string
	Scheme    string
	// MF echoes an explicit-Miller-factor query's factor (nil otherwise);
	// such queries leave Aggressor and Scheme empty.
	MF *float64
	// CacheHit reports whether the curve came from the solution cache.
	CacheHit bool
	// Err records a failure (validation or solver error).
	Err error
}

// Front returns the net's full power–delay Pareto front without
// committing to a budget: the curve a what-if budget/power sweep
// explores. Job.TargetMult, Target and Budgets are ignored for lines;
// for trees they only select the mode — any budget form forces the
// uniform zero-RAT curve, while a budget-less job on a tree whose sinks
// all carry deadlines returns the embedded-deadline curve. The front is
// cached under the same shape-keyed entries the solve path uses, and a
// cached front is served only after every point is re-priced on the
// actual net and reproduces its cached delay or slack (see checkFront).
func (e *Engine) Front(j Job) FrontResult {
	return e.FrontContext(context.Background(), j)
}

// FrontContext is Front with cancellation, checked at the same phase
// boundaries as SolveContext.
func (e *Engine) FrontContext(ctx context.Context, j Job) (fr FrontResult) {
	defer func() {
		if p := recover(); p != nil {
			fr = FrontResult{Net: j.Net, TreeNet: j.TreeNet, Tech: e.tech.Name, Err: fmt.Errorf("engine: solver panic: %v", p)}
		}
	}()
	p, err := e.prepare(j, false)
	h := p.head
	fr = FrontResult{Net: h.Net, TreeNet: h.TreeNet, Tech: h.Tech, Aggressor: h.Aggressor, Scheme: h.Scheme, MF: h.MF}
	if err != nil {
		fr.Err = err
		return fr
	}
	sl := slot{ch: e.solveSlots}
	defer sl.release()
	ent, hit, err := e.acquire(ctx, &sl, &p, func(ent cached) bool { return e.checkFront(&p, ent) })
	if err != nil {
		fr.Err = err
		return fr
	}
	fr.CacheHit, fr.TMin = hit, ent.tmin
	if ent.tree {
		fr.Points = treeFrontPoints(ent.treeFront, p.embedded)
	} else {
		fr.Points = lineFrontPoints(ent.front)
	}
	return fr
}

// lineFrontPoints renders a retained line front as public curve points.
func lineFrontPoints(f lineFront) []FrontPoint {
	out := make([]FrontPoint, len(f))
	for i, p := range f {
		out[i] = FrontPoint{
			Delay:      p.delay,
			TotalWidth: p.totalWidth,
			Repeaters:  len(p.widths),
			StaggerLen: p.staggerLen,
			ShieldLen:  p.shieldLen,
		}
	}
	return out
}

// treeFrontPoints renders a retained tree front: uniform-mode fronts
// live on the zero-RAT clone, where −slack is the worst-sink arrival.
func treeFrontPoints(f treeFront, embedded bool) []FrontPoint {
	out := make([]FrontPoint, len(f))
	for i, p := range f {
		fp := FrontPoint{TotalWidth: p.totalWidth, Repeaters: len(p.widths)}
		if embedded {
			fp.Slack = p.slack
		} else {
			fp.Delay = -p.slack
		}
		out[i] = fp
	}
	return out
}
