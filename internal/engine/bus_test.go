package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/rip-eda/rip/internal/bus"
	"github.com/rip-eda/rip/internal/dp"
	"github.com/rip-eda/rip/internal/tech"
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
// preparation.
func TestBusWarmReplayMatchesCold(t *testing.T) {
	node := tech.T90()
	tracks := netgenLines(t, node, 81, 3)
	eng, err := New(node, Options{Workers: 2})
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
	}
	if st := eng.CacheStats(); st.Rejected != 0 || eng.FrontStats().Solves != solves {
		t.Fatalf("warm replay rejected %d entries and solved %d fronts", st.Rejected, eng.FrontStats().Solves-solves)
	}
	assertIdle(t, eng)
}

// TestBusSharedKeysMatchSignature: a member job carrying its track's
// shared preparation is keyed exactly like the same job without it, so
// snapshots and the peer ring see no difference.
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
// answers what a cold engine answers.
func TestBusTamperedMemberRejected(t *testing.T) {
	node := tech.T90()
	tracks := netgenLines(t, node, 85, 3)
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
