package engine

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"github.com/rip-eda/rip/internal/bus"
	"github.com/rip-eda/rip/internal/core"
	"github.com/rip-eda/rip/internal/power"
	"github.com/rip-eda/rip/internal/wire"
)

// BusJob is one joint bus-optimization request: a group of parallel
// tracks, ordered by physical adjacency (track i couples to tracks i-1
// and i+1; the bus edges are priced pessimistically), co-optimized so
// each track is priced under the crosstalk scenario its actual neighbors
// produce instead of an assumed worst case.
type BusJob struct {
	// Tracks are the member line nets in adjacency order. At least two
	// are required — a single track has no neighbors to coordinate with.
	Tracks []*wire.Net
	// Tech names the process node (Multi routing semantics, like Job.Tech).
	Tech string
	// TargetMult / Target give every track's budget, exactly one positive:
	// TargetMult is relative to each track's own pessimistic τmin (the
	// budget an independent worst-case solve would have used), Target is
	// one absolute budget in seconds shared by all tracks.
	TargetMult float64
	Target     float64
	// Method selects the co-decision algorithm: "" picks the joint chain
	// DP for groups of at most 4 tracks and iterated best-response
	// otherwise; "exact" and "iterate" force one. The chain DP is exact
	// for any group size — the default caps it at 4 only to honor the
	// oracle role the conformance suite pins it to.
	Method string
}

// BusTrack is one track's share of a bus result.
type BusTrack struct {
	// Net echoes the track's net.
	Net *wire.Net
	// Scheme is the co-decided whole-track countermeasure: "plain",
	// "staggered" or "shielded".
	Scheme string
	// MF is the effective Miller factor the track was finally priced
	// under (0 for shielded tracks).
	MF float64
	// Target is the track's resolved absolute budget in seconds; TMin its
	// pessimistic minimum achievable delay (for TargetMult jobs).
	Target float64
	TMin   float64
	// Baseline is the independent pessimistic answer (MillerMax, no
	// countermeasures) — what the track costs without coordination.
	Baseline core.Result
	// Res is the coordinated answer at the track's effective factor.
	Res core.Result
	// BaselineCost and Cost are the width objectives of the two answers
	// in units of u; Cost includes the shield area for shielded tracks.
	// An infeasible answer's cost is +Inf.
	BaselineCost float64
	Cost         float64
	// AreaSaved is BaselineCost − Cost (0 when either side is
	// infeasible); PowerSavedW is the repeater power the coordination
	// saved in watts (shield area draws no switching power, so it prices
	// into AreaSaved only).
	AreaSaved   float64
	PowerSavedW float64
	// CacheHit reports whether the coordinated answer came from cache.
	CacheHit bool
}

// BusResult is one bus job's outcome.
type BusResult struct {
	// Tech is the node the group was solved under (canonical under a
	// Multi).
	Tech string
	// Method is the algorithm that produced the assignment ("exact" or
	// "iterate"); Iterations is the best-response sweep count (0 for
	// exact) and Converged whether it reached a fixed point (always true
	// for exact).
	Method     string
	Iterations int
	Converged  bool
	// Tracks carries the per-track attribution, in input order.
	Tracks []BusTrack
	// GroupBaselineCost / GroupCost are the summed width objectives of
	// the independent pessimistic and coordinated assignments over
	// feasible tracks; BaselineInfeasible / Infeasible count tracks each
	// assignment cannot close. Coordination never loses: (Infeasible,
	// GroupCost) ≤ (BaselineInfeasible, GroupBaselineCost)
	// lexicographically.
	GroupBaselineCost  float64
	GroupCost          float64
	BaselineInfeasible int
	Infeasible         int
	// GroupAreaSaved / GroupPowerSavedW are the sums of the per-track
	// attributions.
	GroupAreaSaved   float64
	GroupPowerSavedW float64
	// Err records a group-level failure; per-track solver errors fail the
	// group (a bus with an unsolvable member has no coordinated answer).
	Err error
}

// BusStats is a point-in-time snapshot of bus co-optimization activity —
// the rip_bus_* counters ripd exports.
type BusStats struct {
	// Jobs counts accepted bus jobs; Tracks the member nets across them.
	Jobs   uint64
	Tracks uint64
	// Exact and Iterated split Jobs by the algorithm that answered them;
	// Sweeps accumulates best-response sweeps over the iterated ones.
	Exact    uint64
	Iterated uint64
	Sweeps   uint64
}

// busCounters lives on the Engine (one set per node).
type busCounters struct {
	jobs     atomic.Uint64
	tracks   atomic.Uint64
	exact    atomic.Uint64
	iterated atomic.Uint64
	sweeps   atomic.Uint64
}

// BusStats snapshots the bus counters.
func (e *Engine) BusStats() BusStats {
	return BusStats{
		Jobs:     e.busC.jobs.Load(),
		Tracks:   e.busC.tracks.Load(),
		Exact:    e.busC.exact.Load(),
		Iterated: e.busC.iterated.Load(),
		Sweeps:   e.busC.sweeps.Load(),
	}
}

// SolveBus co-optimizes one track group on this engine's node. Member
// solves run through the ordinary worker pool and solution cache —
// every (track shape, factor) front is cached and shared across groups,
// so arrayed buses warm each other exactly like repeated line nets do.
func (e *Engine) SolveBus(ctx context.Context, bj BusJob) BusResult {
	if !e.acceptsTech(bj.Tech) {
		return BusResult{Tech: bj.Tech, Err: badJob(
			"engine: bus requests node %q but this engine solves %q (serve multiple nodes through a Multi)",
			bj.Tech, e.tech.Name)}
	}
	bj.Tech = ""
	br := e.solveBus(ctx, bj, func(ctx context.Context, jobs []Job) []Result {
		return runJobs(ctx, e.solveSlots, jobs, e.solve)
	})
	br.Tech = e.tech.Name
	return br
}

// SolveBus routes one bus job by its Tech name. Member solves go through
// the Multi's batch solve, so a cluster forwarder sees each member as an
// ordinary line job with its scenario pinned explicitly (canonical Tech,
// explicit factor) — the shape's owning replica answers it and the
// fleet's caches partition for bus traffic exactly as for line traffic.
func (m *Multi) SolveBus(ctx context.Context, bj BusJob) BusResult {
	eng, canon, err := m.route(bj.Tech)
	if err != nil {
		return BusResult{Tech: bj.Tech, Err: err}
	}
	bj.Tech = canon
	br := eng.solveBus(ctx, bj, func(ctx context.Context, jobs []Job) []Result {
		return runJobs(ctx, m.slots, jobs, m.batch())
	})
	br.Tech = canon
	return br
}

// solveBus is the shared body: validate, build the outcome table with
// one member batch per pass, co-decide, attribute.
func (e *Engine) solveBus(ctx context.Context, bj BusJob, run func(context.Context, []Job) []Result) BusResult {
	var br BusResult
	switch {
	case len(bj.Tracks) < 2:
		br.Err = badJob("engine: a bus needs at least 2 tracks, got %d", len(bj.Tracks))
		return br
	case bj.TargetMult > 0 && bj.Target > 0:
		br.Err = badJob("engine: bus: give TargetMult or Target, not both")
		return br
	case bj.TargetMult <= 0 && bj.Target <= 0:
		br.Err = badJob("engine: bus: a positive TargetMult or Target is required")
		return br
	case !e.tech.HasCoupling():
		br.Err = badJob("engine: technology %s has no coupling model (MillerMax is 0), so bus co-optimization is meaningless", e.tech.Name)
		return br
	}
	switch bj.Method {
	case "", "exact", "iterate":
	default:
		br.Err = badJob(`engine: bus: unknown method %q (want "exact", "iterate" or "")`, bj.Method)
		return br
	}
	for i, t := range bj.Tracks {
		if t == nil {
			br.Err = badJob("engine: bus track %d is nil", i)
			return br
		}
	}
	n := len(bj.Tracks)
	mm := e.tech.MillerMax
	mfs := bus.MFValues(mm)

	// Every member job on a track shares one preparation of its net,
	// built here once for both passes.
	shapes := make([]*lineShape, n)
	for i, t := range bj.Tracks {
		shapes[i] = e.newLineShape(t)
	}

	// Pass 1 — independent pessimistic baselines. An explicit factor of
	// MillerMax prices exactly the physics of a worst-case plain solve
	// (same Miller factor, same plain-only scheme set), so this pass IS
	// the independent baseline and resolves each track's absolute budget.
	base := make([]Job, n)
	for i, t := range bj.Tracks {
		mf := mm
		base[i] = Job{Net: t, Tech: bj.Tech, TargetMult: bj.TargetMult, Target: bj.Target, MF: &mf, shape: shapes[i]}
	}
	baseRes := run(ctx, base)
	for i, r := range baseRes {
		if r.Err != nil {
			br.Err = fmt.Errorf("engine: bus track %d (%s): %w", i, bj.Tracks[i].Name, r.Err)
			return br
		}
	}

	// Pass 2 — the rest of the outcome table: every (track, factor)
	// minimum width at the track's now-absolute budget. Identical track
	// shapes collapse in the solution cache, so an arrayed bus pays one
	// front solve per (shape, factor), not per track.
	var tjobs []Job
	type slot struct{ track, mfIdx int }
	var slots []slot
	for i, t := range bj.Tracks {
		for k := range mfs {
			if mfs[k] == mm {
				continue // already solved in pass 1
			}
			mf := mfs[k]
			tjobs = append(tjobs, Job{Net: t, Tech: bj.Tech, Target: baseRes[i].Target, MF: &mf, shape: shapes[i]})
			slots = append(slots, slot{track: i, mfIdx: k})
		}
	}
	tRes := run(ctx, tjobs)
	byMF := make([]map[float64]Result, n)
	for i := range byMF {
		byMF[i] = make(map[float64]Result, len(mfs))
		byMF[i][mm] = baseRes[i]
	}
	for k, r := range tRes {
		if r.Err != nil {
			br.Err = fmt.Errorf("engine: bus track %d (%s) at factor %g: %w",
				slots[k].track, bj.Tracks[slots[k].track].Name, mfs[slots[k].mfIdx], r.Err)
			return br
		}
		byMF[slots[k].track][mfs[slots[k].mfIdx]] = r
	}

	tables := make([]bus.Table, n)
	for i, t := range bj.Tracks {
		w := make(map[float64]float64, len(mfs))
		for _, mf := range mfs {
			r := byMF[i][mf]
			if r.Res.Solution.Feasible {
				w[mf] = r.Res.Solution.TotalWidth
			} else {
				w[mf] = math.Inf(1)
			}
		}
		tables[i] = bus.Table{Width: w, ShieldCost: e.tech.ShieldUPerM * t.Line.Length()}
	}

	method := bj.Method
	if method == "" {
		if n <= 4 {
			method = "exact"
		} else {
			method = "iterate"
		}
	}
	var dec []bus.Decision
	var total bus.Cost
	br.Method = method
	if method == "exact" {
		dec, total = bus.SolveExact(mm, tables)
		br.Converged = true
		e.busC.exact.Add(1)
	} else {
		var sweeps int
		dec, total, sweeps, br.Converged = bus.SolveIterate(mm, tables, 0)
		br.Iterations = sweeps
		e.busC.iterated.Add(1)
		e.busC.sweeps.Add(uint64(sweeps))
	}
	e.busC.jobs.Add(1)
	e.busC.tracks.Add(uint64(n))

	pm, err := power.NewModel(e.tech)
	if err != nil {
		br.Err = fmt.Errorf("engine: bus power model: %w", err)
		return br
	}
	br.Tracks = make([]BusTrack, n)
	br.GroupCost, br.Infeasible = total.Width, total.Infeasible
	for i := range bj.Tracks {
		var left, right bus.Decision = bus.Plain, bus.Plain
		if i > 0 {
			left = dec[i-1]
		}
		if i < n-1 {
			right = dec[i+1]
		}
		mf := bus.MFFor(mm, dec[i], left, right)
		r := byMF[i][mf]
		bt := BusTrack{
			Net:      bj.Tracks[i],
			Scheme:   dec[i].String(),
			MF:       mf,
			Target:   baseRes[i].Target,
			TMin:     baseRes[i].TMin,
			Baseline: baseRes[i].Res,
			Res:      r.Res,
			CacheHit: r.CacheHit,
		}
		bt.BaselineCost, bt.Cost = math.Inf(1), math.Inf(1)
		if baseRes[i].Res.Solution.Feasible {
			bt.BaselineCost = baseRes[i].Res.Solution.TotalWidth
			br.GroupBaselineCost += bt.BaselineCost
		} else {
			br.BaselineInfeasible++
		}
		if r.Res.Solution.Feasible {
			bt.Cost = r.Res.Solution.TotalWidth
			if dec[i] == bus.Shielded {
				bt.Cost += tables[i].ShieldCost
			}
		}
		if !math.IsInf(bt.BaselineCost, 1) && !math.IsInf(bt.Cost, 1) {
			bt.AreaSaved = bt.BaselineCost - bt.Cost
			// Power prices repeater width only: the shield is a grounded
			// wire, area without switching activity.
			bt.PowerSavedW = pm.Repeater(bt.BaselineCost) - pm.Repeater(r.Res.Solution.TotalWidth)
		}
		br.GroupAreaSaved += bt.AreaSaved
		br.GroupPowerSavedW += bt.PowerSavedW
		br.Tracks[i] = bt
	}
	return br
}
