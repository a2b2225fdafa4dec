package engine

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"github.com/rip-eda/rip/internal/bus"
	"github.com/rip-eda/rip/internal/core"
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
}

// busCounters lives on the Engine (one set per node).
type busCounters struct {
	jobs   atomic.Uint64
	tracks atomic.Uint64
}

// BusStats snapshots the bus counters.
func (e *Engine) BusStats() BusStats {
	return BusStats{
		Jobs:   e.busC.jobs.Load(),
		Tracks: e.busC.tracks.Load(),
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
// one member batch per pass (busMembers), co-decide, attribute.
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
	for i, t := range bj.Tracks {
		if t == nil {
			br.Err = badJob("engine: bus track %d is nil", i)
			return br
		}
	}
	byMF, err := e.busMembers(ctx, bj, run)
	if err != nil {
		br.Err = err
		return br
	}
	return e.coDecide(bj, byMF)
}

// busMembers solves a group's outcome table: byMF[i][mf] is track i's
// answer at factor mf, and its answer at MillerMax is its independent
// baseline.
//
// A track that copies an earlier one bit for bit but for its name (see
// busReps) shares the first such track's preparation, and only that
// representative runs member jobs in a pass's first round. A copy takes
// its representative's answer when that answer is a verified hit, local
// or forwarded: the copy's own job would look up the same entry and
// verify it on a bit-identical net, to the same answer. Any other answer
// is not shared. A cold solve serves the DP's own delay, while the copy's
// own job would hit the entry just stored and serve its re-priced delay,
// which rounds differently. Such a copy runs its own job in a second
// round, after the representatives.
func (e *Engine) busMembers(ctx context.Context, bj BusJob, run func(context.Context, []Job) []Result) ([]map[float64]Result, error) {
	n := len(bj.Tracks)
	mm := e.tech.MillerMax
	rep := busReps(bj.Tracks)
	shapes := make([]*lineShape, n)
	for i, t := range bj.Tracks {
		if rep[i] == i {
			shapes[i] = e.newLineShape(t)
		} else {
			shapes[i] = shapes[rep[i]]
		}
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
	baseRes := runShared(ctx, run, base, rep)
	for i, r := range baseRes {
		if r.Err != nil {
			return nil, fmt.Errorf("engine: bus track %d (%s): %w", i, bj.Tracks[i].Name, r.Err)
		}
	}

	// Pass 2 — the rest of the outcome table: every (track, factor)
	// minimum width at the track's now-absolute budget. Identical shapes
	// collapse in the solution cache, so an arrayed bus pays one front
	// solve per (shape, factor), and a warm one runs one member job per
	// (distinct track, factor). A copy shares only at its representative's
	// budget: its own baseline resolves another one when the entry it hit
	// changed after its representative's solve.
	mfs := slices.DeleteFunc(bus.MFValues(mm), func(mf float64) bool { return mf == mm })
	tjobs := make([]Job, 0, n*len(mfs))
	trep := make([]int, 0, n*len(mfs))
	for i, t := range bj.Tracks {
		r := rep[i]
		if baseRes[i].Target != baseRes[r].Target {
			r = i
		}
		for k := range mfs {
			mf := mfs[k]
			tjobs = append(tjobs, Job{Net: t, Tech: bj.Tech, Target: baseRes[i].Target, MF: &mf, shape: shapes[i]})
			trep = append(trep, r*len(mfs)+k)
		}
	}
	tRes := runShared(ctx, run, tjobs, trep)
	byMF := make([]map[float64]Result, n)
	for i := range byMF {
		byMF[i] = make(map[float64]Result, len(mfs)+1)
		byMF[i][mm] = baseRes[i]
	}
	for k, r := range tRes {
		i, mf := k/len(mfs), mfs[k%len(mfs)]
		if r.Err != nil {
			return nil, fmt.Errorf("engine: bus track %d (%s) at factor %g: %w", i, bj.Tracks[i].Name, mf, r.Err)
		}
		byMF[i][mf] = r
	}
	return byMF, nil
}

// busReps maps each track to its representative: the first track whose
// net equals its own bit for bit but for the name (Line.SameBits and both
// widths). Each track is compared only with the first track of its key, a
// hash of those bits, so grouping stays linear in the number of tracks;
// a track that collides with a different line represents itself, as does
// a track without a line.
func busReps(tracks []*wire.Net) []int {
	type bitsKey struct{ line, driver, receiver uint64 }
	rep := make([]int, len(tracks))
	first := make(map[bitsKey]int)
	for i, t := range tracks {
		rep[i] = i
		if t.Line == nil {
			continue
		}
		k := bitsKey{t.Line.BitsHash(), math.Float64bits(t.DriverWidth), math.Float64bits(t.ReceiverWidth)}
		if r, ok := first[k]; !ok {
			first[k] = i
		} else if tracks[r].Line.SameBits(t.Line) {
			rep[i] = r
		}
	}
	return rep
}

// runShared runs jobs, where job i repeats job rep[i] on a renamed copy of
// its net (rep[i] ≤ i, and rep[i] == i for a representative). The
// representatives run first; a copy then takes its representative's
// answer if that was a verified hit (see busMembers), and the other copies
// run in a second round. Copies after the first failing representative
// are left unsolved: the first failing job is at or before it.
func runShared(ctx context.Context, run func(context.Context, []Job) []Result, jobs []Job, rep []int) []Result {
	var idx []int
	for i := range jobs {
		if rep[i] == i {
			idx = append(idx, i)
		}
	}
	if len(idx) == len(jobs) {
		return run(ctx, jobs)
	}
	res := make([]Result, len(jobs))
	round := func() {
		sub := make([]Job, len(idx))
		for k, i := range idx {
			sub[k] = jobs[i]
		}
		for k, r := range run(ctx, sub) {
			res[idx[k]] = r
		}
	}
	round()
	idx = idx[:0]
	for i, r := range rep {
		if r != i && res[r].CacheHit {
			res[i] = res[r].sharedAs(jobs[i])
		} else if r != i {
			idx = append(idx, i)
		} else if res[i].Err != nil {
			break
		}
	}
	if len(idx) > 0 {
		round()
	}
	return res
}

// sharedAs returns r, one job's answer, as the answer to j, the same job
// on a renamed copy of its net: j's net and factor, and copies of the
// answer's slices, so that mutating one track's answer leaves its copies'
// intact.
func (r Result) sharedAs(j Job) Result {
	r.Net, r.MF = j.Net, j.MF
	s := &r.Res.Solution
	s.Assignment.Positions = slices.Clone(s.Assignment.Positions)
	s.Assignment.Widths = slices.Clone(s.Assignment.Widths)
	s.Schemes = slices.Clone(s.Schemes)
	return r
}

// coDecide co-decides a group from its outcome table (busMembers) and
// attributes the decision per track.
func (e *Engine) coDecide(bj BusJob, byMF []map[float64]Result) BusResult {
	var br BusResult
	n := len(bj.Tracks)
	mm := e.tech.MillerMax
	tables := make([]bus.Table, n)
	for i, t := range bj.Tracks {
		w := make(map[float64]float64, len(byMF[i]))
		for mf, r := range byMF[i] {
			if r.Res.Solution.Feasible {
				w[mf] = r.Res.Solution.TotalWidth
			} else {
				w[mf] = math.Inf(1)
			}
		}
		tables[i] = bus.Table{Width: w, ShieldCost: e.tech.ShieldUPerM * t.Line.Length()}
	}

	dec, total := bus.SolveExact(mm, tables)
	e.busC.jobs.Add(1)
	e.busC.tracks.Add(uint64(n))

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
		base, r := byMF[i][mm], byMF[i][mf]
		bt := BusTrack{
			Net:      bj.Tracks[i],
			Scheme:   dec[i].String(),
			MF:       mf,
			Target:   base.Target,
			TMin:     base.TMin,
			Baseline: base.Res,
			Res:      r.Res,
			CacheHit: r.CacheHit,
		}
		bt.BaselineCost, bt.Cost = math.Inf(1), math.Inf(1)
		if base.Res.Solution.Feasible {
			bt.BaselineCost = base.Res.Solution.TotalWidth
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
			bt.PowerSavedW = e.power.Repeater(bt.BaselineCost) - e.power.Repeater(r.Res.Solution.TotalWidth)
		}
		br.GroupAreaSaved += bt.AreaSaved
		br.GroupPowerSavedW += bt.PowerSavedW
		br.Tracks[i] = bt
	}
	return br
}
