package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/rip-eda/rip/internal/bus"
	"github.com/rip-eda/rip/internal/dp"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/wire"
)

// sameLine reports whether two line answers agree bit for bit on their
// placement and width, and on their delay within tol relative.
func sameLine(a, b dp.Solution, tol float64) bool {
	return a.Feasible == b.Feasible && a.TotalWidth == b.TotalWidth && math.Abs(a.Delay-b.Delay) <= tol*b.Delay &&
		slices.Equal(a.Assignment.Positions, b.Assignment.Positions) && slices.Equal(a.Assignment.Widths, b.Assignment.Widths)
}

// assertSameBus requires two answers to one bus group to agree bit for
// bit on every track's scheme, factor, budget and costs and on its
// coordinated and baseline placements. Delays must agree within
// verifyTol: a verified hit serves its point's re-priced delay, a cold
// solve the DP's own, and the two round differently.
func assertSameBus(t *testing.T, got, want BusResult) {
	t.Helper()
	if got.Err != nil || want.Err != nil {
		t.Fatalf("errs: %v / %v", got.Err, want.Err)
	}
	if len(got.Tracks) != len(want.Tracks) {
		t.Fatalf("%d tracks, want %d", len(got.Tracks), len(want.Tracks))
	}
	for i, g := range got.Tracks {
		w := want.Tracks[i]
		if g.Scheme != w.Scheme || g.MF != w.MF || g.Target != w.Target || g.TMin != w.TMin ||
			g.Cost != w.Cost || g.BaselineCost != w.BaselineCost {
			t.Fatalf("track %d: %s at mf %g (target %g, cost %g, baseline %g), want %s at mf %g (target %g, cost %g, baseline %g)",
				i, g.Scheme, g.MF, g.Target, g.Cost, g.BaselineCost, w.Scheme, w.MF, w.Target, w.Cost, w.BaselineCost)
		}
		if !sameLine(g.Res.Solution, w.Res.Solution, verifyTol) || !sameLine(g.Baseline.Solution, w.Baseline.Solution, verifyTol) {
			t.Fatalf("track %d: answers %+v / %+v, want %+v / %+v", i, g.Res.Solution, g.Baseline.Solution, w.Res.Solution, w.Baseline.Solution)
		}
	}
}

// TestBusWarmReplayMatchesCold: replaying a bus group on a warm engine
// serves every member from cache, through the shared track preparation,
// and answers what the cold solve answered. Each member's warm answer is
// bit-identical to the same job's verified hit without the shared
// preparation. A worst/plain line on a track's geometry is a verified hit
// on the track's baseline entry and places what a cache-off worst/plain
// solve places.
func TestBusWarmReplayMatchesCold(t *testing.T) {
	node := tech.T90()
	tracks := netgenLines(t, node, 81, 3)
	eng, err := New(node, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(node, Options{Workers: 1, Cache: CacheOptions{Disabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	bj := BusJob{Tracks: tracks, TargetMult: 1.3}
	cold := eng.SolveBus(context.Background(), bj)
	if cold.Err != nil {
		t.Fatal(cold.Err)
	}
	solves := eng.FrontStats().Solves
	warm := eng.SolveBus(context.Background(), bj)
	assertSameBus(t, warm, cold)
	mm := node.MillerMax
	for i, tr := range warm.Tracks {
		if !tr.CacheHit {
			t.Fatalf("warm track %d missed", i)
		}
		mf := tr.MF
		own := eng.Solve(Job{Net: tracks[i], Target: tr.Target, MF: &mf})
		base := eng.Solve(Job{Net: tracks[i], TargetMult: bj.TargetMult, MF: &mm})
		if !own.CacheHit || !base.CacheHit || !sameLine(tr.Res.Solution, own.Res.Solution, 0) || !sameLine(tr.Baseline.Solution, base.Res.Solution, 0) {
			t.Fatalf("track %d: shared answers %+v / %+v, own hits %+v / %+v", i, tr.Res.Solution, tr.Baseline.Solution, own.Res.Solution, base.Res.Solution)
		}
		wp := Job{Net: tracks[i], TargetMult: bj.TargetMult, Aggressor: "worst", Scheme: "plain"}
		if got, want := eng.Solve(wp), ref.Solve(wp); !got.CacheHit || !sameLine(got.Res.Solution, want.Res.Solution, verifyTol) {
			t.Fatalf("track %d: worst/plain answers %+v (hit %v), want %+v", i, got.Res.Solution, got.CacheHit, want.Res.Solution)
		}
	}
	if st := eng.CacheStats(); st.Rejected != 0 || eng.FrontStats().Solves != solves {
		t.Fatalf("warm replay rejected %d entries and solved %d fronts", st.Rejected, eng.FrontStats().Solves-solves)
	}
	assertIdle(t, eng)
}

// TestBusSharedKeysMatchSignature: a member job carrying its track's
// shared preparation is keyed exactly like the same job without it, by
// the solve path and by Signature, so snapshots and the peer ring see no
// difference.
func TestBusSharedKeysMatchSignature(t *testing.T) {
	for _, node := range builtinNodes() {
		eng, err := New(node, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, net := range netgenLines(t, node, 83, 2) {
			sh := eng.newLineShape(net)
			if sh == nil {
				t.Fatalf("%s: no shape for a valid net", net.Name)
			}
			var jobs []Job
			for _, mf := range bus.MFValues(node.MillerMax) {
				jobs = append(jobs, Job{Net: net, Target: 1e-9, MF: &mf}, Job{Net: net, TargetMult: 1.3, MF: &mf})
			}
			jobs = append(jobs, Job{Net: net, TargetMult: 1.3}, Job{Net: net, TargetMult: 1.3, Aggressor: "worst", Scheme: "staggered"})
			for _, j := range jobs {
				want, ok := eng.Signature(j)
				if !ok {
					t.Fatal("unkeyable job")
				}
				j.shape = sh
				if got, _ := eng.Signature(j); got != want {
					t.Fatalf("%s: Signature with the shared preparation %q, want %q", net.Name, got, want)
				}
				p, err := eng.prepare(j, true)
				if err != nil {
					t.Fatal(err)
				}
				if got := eng.key(&p); got != want {
					t.Fatalf("%s: shared key %q, want %q", net.Name, got, want)
				}
			}
		}
	}
}

// TestBusTamperedMemberRejected: a tampered imported entry for one
// (track, factor) shape is rejected once and re-solved, and the group
// answers what a cold engine answers. Under a group of renamed copies of
// the tampered track, the entry is still rejected once and re-solved
// once, and every copy answers the cold result.
func TestBusTamperedMemberRejected(t *testing.T) {
	node := tech.T90()
	tracks := netgenLines(t, node, 85, 3)
	tamperedMember(t, node, tracks)
	tamperedMember(t, node, []*wire.Net{tracks[0], tracks[1], copyTrack(t, tracks[1], "t1a", nil), tracks[2], copyTrack(t, tracks[1], "t1b", nil)})
}

// tamperedMember tampers with the entry that answers track 1 of tracks
// at its coordinated factor, and replays the group on an engine that
// imported it.
func tamperedMember(t *testing.T, node *tech.Technology, tracks []*wire.Net) {
	t.Helper()
	bj := BusJob{Tracks: tracks, TargetMult: 1.3}
	src, err := New(node, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cold := src.SolveBus(context.Background(), bj)
	if cold.Err != nil {
		t.Fatal(cold.Err)
	}
	// Track 1's answer at its coordinated factor: make the point it picks
	// read slower, so the cached front offers a wider point instead.
	tr := cold.Tracks[1]
	mf := tr.MF
	key, _ := src.Signature(Job{Net: tracks[1], MF: &mf})
	ents := src.ExportCache()
	found := false
	for k := range ents {
		if ents[k].Key != key {
			continue
		}
		val, ok := importEntry(ents[k])
		if !ok {
			t.Fatal("exported entry does not import")
		}
		at, ok := val.front.at(tr.Target)
		if !ok {
			t.Fatal("the cached front cannot answer the track's budget")
		}
		ents[k].Line[at].Delay *= 1.5
		found = true
	}
	if !found {
		t.Fatalf("no exported entry under %q", key)
	}

	eng, err := New(node, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n := eng.ImportCache(ents); n != len(ents) {
		t.Fatalf("imported %d of %d entries", n, len(ents))
	}
	got := eng.SolveBus(context.Background(), bj)
	if st := eng.CacheStats(); st.Rejected != 1 {
		t.Fatalf("rejected %d entries, want 1", st.Rejected)
	}
	if s := eng.FrontStats().Solves; s != 1 {
		t.Fatalf("solved %d fronts, want the tampered one re-solved", s)
	}
	assertSameBus(t, got, cold)
	assertIdle(t, eng)
}

// TestBusInvalidTrack: a track whose net fails validation gets no shared
// preparation, and the group fails with the member job's own error.
func TestBusInvalidTrack(t *testing.T) {
	node := tech.T90()
	tracks := netgenLines(t, node, 87, 3)
	bad := *tracks[2]
	bad.DriverWidth = -1
	tracks[2] = &bad
	eng, err := New(node, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if eng.newLineShape(&bad) != nil {
		t.Fatal("an invalid net got a shared preparation")
	}
	br := eng.SolveBus(context.Background(), BusJob{Tracks: tracks, TargetMult: 1.3})
	want := fmt.Sprintf("engine: bus track 2 (%s): %v", bad.Name, bad.Validate())
	if br.Err == nil || br.Err.Error() != want || !errors.Is(br.Err, ErrBadJob) {
		t.Fatalf("err %v, want the bad-job error %q", br.Err, want)
	}
	assertIdle(t, eng)
}

// copyTrack returns a copy of net named name, on a line rebuilt from its
// segments and zones, so that only its bits tie it to net. edit, when not
// nil, first changes the copy's widths, segments or zones.
func copyTrack(t *testing.T, net *wire.Net, name string, edit func(*wire.Net, []wire.Segment, []wire.Zone)) *wire.Net {
	t.Helper()
	c := *net
	c.Name = name
	segs, zones := net.Line.Segments(), net.Line.Zones()
	if edit != nil {
		edit(&c, segs, zones)
	}
	l, err := wire.New(segs, zones)
	if err != nil {
		t.Fatal(err)
	}
	c.Line = l
	return &c
}

// referenceSolveBus is solveBus on the member passes of
// referenceBusMembers.
func (e *Engine) referenceSolveBus(ctx context.Context, bj BusJob, run func(context.Context, []Job) []Result) BusResult {
	byMF, err := e.referenceBusMembers(ctx, bj, run)
	if err != nil {
		return BusResult{Err: err}
	}
	return e.coDecide(bj, byMF)
}

// referenceBusMembers is busMembers before renamed copies shared their
// representative's answers: every track prepares its own net and runs its
// own member job per factor. TestBusSharingMatchesReference pins
// busMembers to it.
func (e *Engine) referenceBusMembers(ctx context.Context, bj BusJob, run func(context.Context, []Job) []Result) ([]map[float64]Result, error) {
	n := len(bj.Tracks)
	mm := e.tech.MillerMax
	mfs := bus.MFValues(mm)
	shapes := make([]*lineShape, n)
	for i, t := range bj.Tracks {
		shapes[i] = e.newLineShape(t)
	}
	base := make([]Job, n)
	for i, t := range bj.Tracks {
		mf := mm
		base[i] = Job{Net: t, Tech: bj.Tech, TargetMult: bj.TargetMult, Target: bj.Target, MF: &mf, shape: shapes[i]}
	}
	baseRes := run(ctx, base)
	for i, r := range baseRes {
		if r.Err != nil {
			return nil, fmt.Errorf("engine: bus track %d (%s): %w", i, bj.Tracks[i].Name, r.Err)
		}
	}
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
			return nil, fmt.Errorf("engine: bus track %d (%s) at factor %g: %w",
				slots[k].track, bj.Tracks[slots[k].track].Name, mfs[slots[k].mfIdx], r.Err)
		}
		byMF[slots[k].track][mfs[slots[k].mfIdx]] = r
	}
	return byMF, nil
}

// busSolvers returns SolveBus and its reference (referenceSolveBus), each
// on its own fresh one-worker node, through an Engine or a Multi.
func busSolvers(t *testing.T, name string, cache CacheOptions, multi bool) (solve, reference func(BusJob) BusResult) {
	t.Helper()
	ctx := context.Background()
	opts := Options{Workers: 1, Cache: cache}
	reg := tech.NewRegistry()
	if _, err := reg.RegisterBuiltin(name); err != nil {
		t.Fatal(err)
	}
	node, canon, err := reg.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	if multi {
		var ms [2]*Multi
		for k := range ms {
			if ms[k], err = NewMulti(reg, canon, opts); err != nil {
				t.Fatal(err)
			}
		}
		ref := ms[1]
		return func(bj BusJob) BusResult { return ms[0].SolveBus(ctx, bj) }, func(bj BusJob) BusResult {
			eng, _, err := ref.route(bj.Tech)
			if err != nil {
				t.Fatal(err)
			}
			bj.Tech = canon
			br := eng.referenceSolveBus(ctx, bj, func(ctx context.Context, jobs []Job) []Result {
				return runJobs(ctx, ref.slots, jobs, ref.batch())
			})
			br.Tech = canon
			return br
		}
	}
	var es [2]*Engine
	for k := range es {
		if es[k], err = New(node, opts); err != nil {
			t.Fatal(err)
		}
	}
	ref := es[1]
	return func(bj BusJob) BusResult { return es[0].SolveBus(ctx, bj) }, func(bj BusJob) BusResult {
		br := ref.referenceSolveBus(ctx, bj, func(ctx context.Context, jobs []Job) []Result {
			return runJobs(ctx, ref.solveSlots, jobs, ref.solve)
		})
		br.Tech = node.Name
		return br
	}
}

// TestBusSharingMatchesReference: renamed copies sharing their
// representative's verified hits answer every track exactly what its own
// member jobs answer (referenceBusMembers): the same scheme, factor,
// budget, τmin, costs, placements, delay bits and CacheHit. Groups mix
// copies and distinct tracks (A, A′, B, A″, B′) and run cold and then
// warm, with the cache on and off, through an Engine and a Multi. One
// worker keeps the reference deterministic: with more, a copy's job can
// win its representative's flight, and the two swap which one is cold.
func TestBusSharingMatchesReference(t *testing.T) {
	for _, name := range []string{"90nm", "65nm"} {
		node, err := tech.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		lines := netgenLines(t, node, 89, 2)
		a, b := lines[0], lines[1]
		bj := BusJob{Tracks: []*wire.Net{a, copyTrack(t, a, "a1", nil), b, copyTrack(t, a, "a2", nil), copyTrack(t, b, "b1", nil)}, TargetMult: 1.3}
		for _, cache := range []CacheOptions{{}, {Disabled: true}} {
			for _, multi := range []bool{false, true} {
				solve, reference := busSolvers(t, name, cache, multi)
				phases := []string{"cold", "warm"}
				if cache.Disabled {
					phases = phases[:1] // without a cache every replay is cold
				}
				for _, phase := range phases {
					got, want := solve(bj), reference(bj)
					if got.Err != nil || want.Err != nil {
						t.Fatalf("errs: %v / %v", got.Err, want.Err)
					}
					label := fmt.Sprintf("%s, cache off %v, multi %v, %s", name, cache.Disabled, multi, phase)
					for i, g := range got.Tracks {
						w := want.Tracks[i]
						if !reflect.DeepEqual(g, w) ||
							math.Float64bits(g.Res.Solution.Delay) != math.Float64bits(w.Res.Solution.Delay) ||
							math.Float64bits(g.Baseline.Solution.Delay) != math.Float64bits(w.Baseline.Solution.Delay) {
							t.Fatalf("%s: track %d answers %+v / %+v (hit %v), want %+v / %+v (hit %v)", label, i,
								g.Res.Solution, g.Baseline.Solution, g.CacheHit, w.Res.Solution, w.Baseline.Solution, w.CacheHit)
						}
						copied := i == 1 || i > 2
						if hit := !cache.Disabled && (phase == "warm" || copied); g.CacheHit != hit {
							t.Fatalf("%s: track %d cache hit %v", label, i, g.CacheHit)
						}
					}
					got.Tracks, want.Tracks = nil, nil
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: group %+v, want %+v", label, got, want)
					}
				}
			}
		}
	}
}

// TestBusWarmCopiesLookUpOnce: a warm replay of a group of renamed copies
// looks up one entry per factor, not one per track, and a track that
// differs from them in one bit looks up its own. Every track answers from
// its own slices: mutating one track's answer leaves its copies' answers
// and the cache intact.
func TestBusWarmCopiesLookUpOnce(t *testing.T) {
	node := tech.T90()
	a := netgenLines(t, node, 91, 1)[0]
	tracks := []*wire.Net{a}
	for i := 1; i < 4; i++ {
		tracks = append(tracks, copyTrack(t, a, fmt.Sprintf("a%d", i), nil))
	}
	tracks = append(tracks, copyTrack(t, a, "wider", func(n *wire.Net, _ []wire.Segment, _ []wire.Zone) {
		n.DriverWidth = math.Nextafter(n.DriverWidth, math.Inf(1))
	}))
	eng, err := New(node, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bj := BusJob{Tracks: tracks, TargetMult: 1.3}
	cold := eng.SolveBus(ctx, bj)
	if cold.Err != nil {
		t.Fatal(cold.Err)
	}
	factors := uint64(len(bus.MFValues(node.MillerMax)))
	lookups, hits := eng.FrontStats().Lookups, eng.CacheStats().Hits
	warm := eng.SolveBus(ctx, bj)
	assertSameBus(t, warm, cold)
	if got := eng.FrontStats().Lookups - lookups; got != 2*factors {
		t.Fatalf("warm replay looked up %d answers, want %d: one per factor for the copies, one for the odd track", got, 2*factors)
	}
	if got := eng.CacheStats().Hits - hits; got != 2*factors {
		t.Fatalf("warm replay counted %d hits, want %d", got, 2*factors)
	}
	for i, tr := range warm.Tracks {
		if !tr.CacheHit || tr.Net != tracks[i] {
			t.Fatalf("track %d: hit %v, net %q", i, tr.CacheHit, tr.Net.Name)
		}
	}

	want := eng.SolveBus(ctx, bj)
	first := &warm.Tracks[0]
	if len(first.Baseline.Solution.Assignment.Positions) == 0 {
		t.Fatal("the test line needs repeaters")
	}
	for _, s := range []*dp.Solution{&first.Res.Solution, &first.Baseline.Solution} {
		for k := range s.Assignment.Positions {
			s.Assignment.Positions[k], s.Assignment.Widths[k] = -1, -1
		}
		for k := range s.Schemes {
			s.Schemes[k] = 255
		}
	}
	if !reflect.DeepEqual(warm.Tracks[1:], want.Tracks[1:]) {
		t.Fatalf("the copies changed with track 0's answer: %+v, want %+v", warm.Tracks[1:], want.Tracks[1:])
	}
	if again := eng.SolveBus(ctx, bj); !reflect.DeepEqual(again, want) {
		t.Fatalf("the cache changed with track 0's answer: %+v, want %+v", again, want)
	}
}

// TestBusRepsBitExact: a track shares the first track equal to it bit for
// bit but for its name; one bit of one segment's resistance, one zone end
// or the driver width makes it a representative of its own, as does a
// missing line.
func TestBusRepsBitExact(t *testing.T) {
	a := netgenLines(t, tech.T90(), 93, 1)[0]
	flip := func(x float64) float64 { return math.Float64frombits(math.Float64bits(x) ^ 1) }
	tracks := []*wire.Net{
		a,
		copyTrack(t, a, "r", func(_ *wire.Net, segs []wire.Segment, _ []wire.Zone) { segs[0].ROhmPerM = flip(segs[0].ROhmPerM) }),
		copyTrack(t, a, "zone", func(_ *wire.Net, _ []wire.Segment, zones []wire.Zone) { zones[0].End = flip(zones[0].End) }),
		copyTrack(t, a, "driver", func(n *wire.Net, _ []wire.Segment, _ []wire.Zone) { n.DriverWidth = flip(n.DriverWidth) }),
		copyTrack(t, a, "copy", nil),
		{Name: "no line", DriverWidth: a.DriverWidth, ReceiverWidth: a.ReceiverWidth},
		copyTrack(t, a, "r again", func(_ *wire.Net, segs []wire.Segment, _ []wire.Zone) { segs[0].ROhmPerM = flip(segs[0].ROhmPerM) }),
		a,
	}
	if len(a.Line.Zones()) == 0 {
		t.Fatal("the test line needs a zone")
	}
	if got, want := busReps(tracks), []int{0, 1, 2, 3, 0, 5, 1, 0}; !slices.Equal(got, want) {
		t.Fatalf("representatives %v, want %v", got, want)
	}
}

// TestBusCopySharesOnlyAtItsBudget: a copy whose baseline budget differs
// from its representative's runs its own pass-2 jobs at its own budget,
// as the per-track passes do. Both baselines are missing from an otherwise
// warm cache, so the representative solves its baseline cold and its copy
// runs its own baseline job in the second round. The cold solve of the
// other track's baseline, in between, replaces the representative's new
// entry with one whose τmin reads 20 % slower (a hit trusts an entry's
// τmin), so the copy's baseline resolves a looser budget.
func TestBusCopySharesOnlyAtItsBudget(t *testing.T) {
	node := tech.T90()
	lines := netgenLines(t, node, 100, 2)
	a, b := lines[0], lines[1]
	bj := BusJob{Tracks: []*wire.Net{a, b, copyTrack(t, a, "a1", nil)}, TargetMult: 1.3}
	ctx := context.Background()
	src, err := New(node, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if br := src.SolveBus(ctx, bj); br.Err != nil {
		t.Fatal(br.Err)
	}
	mm := node.MillerMax
	keyA, _ := src.Signature(Job{Net: a, MF: &mm})
	keyB, _ := src.Signature(Job{Net: b, MF: &mm})
	var ents []CacheEntry
	for _, ent := range src.ExportCache() {
		if ent.Key != keyA && ent.Key != keyB {
			ents = append(ents, ent)
		}
	}
	engines := make([]*Engine, 2)
	for k := range engines {
		eng, err := New(node, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		eng.ImportCache(ents)
		var slowed atomic.Bool
		eng.testHookSolve = func() {
			if ent, ok := eng.cache.get(keyA); ok && slowed.CompareAndSwap(false, true) {
				eng.cache.put(keyA, cached{front: ent.front, tmin: 1.2 * ent.tmin})
			}
		}
		engines[k] = eng
	}
	got := engines[0].SolveBus(ctx, bj)
	ref := engines[1]
	want := ref.referenceSolveBus(ctx, bj, func(ctx context.Context, jobs []Job) []Result {
		return runJobs(ctx, ref.solveSlots, jobs, ref.solve)
	})
	want.Tech = node.Name
	if got.Err != nil || want.Err != nil {
		t.Fatalf("errs: %v / %v", got.Err, want.Err)
	}
	if got.Tracks[2].Target == got.Tracks[0].Target {
		t.Fatal("the copy's baseline resolved its representative's budget")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got.Tracks, want.Tracks)
	}
}
