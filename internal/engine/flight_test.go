package engine

import (
	"context"
	"errors"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rip-eda/rip/internal/bus"
	"github.com/rip-eda/rip/internal/core"
	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/dp"
	"github.com/rip-eda/rip/internal/netgen"
	"github.com/rip-eda/rip/internal/tech"
)

// concurrently runs n copies of call at once and returns their results.
func concurrently[T any](n int, call func() T) []T {
	out := make([]T, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			out[i] = call()
		}()
	}
	close(start)
	wg.Wait()
	return out
}

// waitParked blocks until n goroutines wait in lookup for a flight to
// land.
func waitParked(t *testing.T, n int) {
	t.Helper()
	waitBlocked(t, "(*Engine).lookup(", n)
}

// waitBlocked blocks until n goroutines are blocked in fn (see
// countBlocked).
func waitBlocked(t *testing.T, fn string, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		got := countBlocked(fn)
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d goroutines blocked in %s after 10s", got, n, fn)
		}
		time.Sleep(time.Millisecond)
	}
}

// countBlocked counts the goroutines blocked in a select of the engine
// function fn: the first frame of their stack outside the runtime (whose
// frames GOTRACEBACK=system prints too) is fn. Parking leaves no other
// trace, so the test reads the goroutine dump.
func countBlocked(fn string) int {
	buf := make([]byte, 1<<22)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		head, frames, _ := strings.Cut(g, "\n")
		if !strings.Contains(head, "[select") {
			continue
		}
		for _, line := range strings.Split(frames, "\n") {
			if strings.HasPrefix(line, "\t") || strings.HasPrefix(line, "runtime.") {
				continue
			}
			if strings.HasPrefix(line, "github.com/rip-eda/rip/internal/engine."+fn) {
				n++
			}
			break
		}
	}
	return n
}

// holdFirstSolve holds eng's first cold line solve as it begins, with its
// job leading the flight, until release is called; then runs then, if
// not nil. began is closed once the solve is held. Later solves run
// straight through.
func holdFirstSolve(eng *Engine, then func()) (began <-chan struct{}, release func()) {
	b, r := make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	eng.testHookSolve = func() {
		if !held.CompareAndSwap(false, true) {
			return // not the first solve: run straight through
		}
		close(b)
		<-r
		if then != nil {
			then()
		}
	}
	return b, func() { close(r) }
}

// solveAll starts n Solve calls of j and returns the channel their
// results arrive on.
func solveAll(eng *Engine, n int, j Job) chan Result {
	out := make(chan Result, n)
	for range n {
		go func() { out <- eng.Solve(j) }()
	}
	return out
}

// assertIdle fails when a solve slot or a flight outlived every call.
func assertIdle(t *testing.T, e *Engine) {
	t.Helper()
	if n := len(e.solveSlots); n != 0 {
		t.Fatalf("%d solve slots still held after every call returned", n)
	}
	e.flights.mu.Lock()
	defer e.flights.mu.Unlock()
	if n := len(e.flights.m); n != 0 {
		t.Fatalf("%d flights still in the table after every call returned", n)
	}
}

// assertSameTree compares two tree answers bit for bit: both sides
// recompute slack with the same evaluator, so nothing may differ.
func assertSameTree(t *testing.T, a, b Result) {
	t.Helper()
	if a.Err != nil || b.Err != nil {
		t.Fatalf("errs: %v / %v", a.Err, b.Err)
	}
	sa, sb := a.TreeRes.Solution, b.TreeRes.Solution
	if a.Target != b.Target || a.TMin != b.TMin || sa.Feasible != sb.Feasible ||
		sa.TotalWidth != sb.TotalWidth || sa.Slack != sb.Slack || !maps.Equal(sa.Buffers, sb.Buffers) {
		t.Fatalf("tree answers differ:\n%+v (target %g)\n%+v (target %g)", sa, a.Target, sb, b.Target)
	}
}

// TestSingleFlightSolvesOnce: eight concurrent calls on one cold shape,
// on two workers, solve it once — seven callers wait for that solve and
// are served verified hits — and every answer matches a cache-disabled
// engine bit for bit, for both net kinds on both the Solve and Front
// paths.
func TestSingleFlightSolvesOnce(t *testing.T) {
	line := corpus(t, 61, 1)[0]
	tn := treeCorpus(t, 62, 1)[0]
	cases := []struct {
		name  string
		front bool
		job   Job
	}{
		{"line solve", false, Job{Net: line, TargetMult: 1.3}},
		{"tree solve", false, Job{TreeNet: tn, TargetMult: 1.3}},
		{"line front", true, Job{Net: line}},
		{"tree front", true, Job{TreeNet: tn, TargetMult: 1.3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := mustEngine(t, Options{Workers: 2})
			ref := mustEngine(t, Options{Workers: 2, Cache: CacheOptions{Disabled: true}})
			if tc.front {
				want := ref.Front(tc.job)
				for i, fr := range concurrently(8, func() FrontResult { return eng.Front(tc.job) }) {
					if fr.Err != nil {
						t.Fatalf("call %d: %v", i, fr.Err)
					}
					if fr.TMin != want.TMin || !slices.Equal(fr.Points, want.Points) {
						t.Fatalf("call %d: front differs from the cache-disabled engine", i)
					}
				}
			} else {
				want := ref.Solve(tc.job)
				for _, r := range concurrently(8, func() Result { return eng.Solve(tc.job) }) {
					if tc.job.TreeNet != nil {
						assertSameTree(t, r, want)
					} else {
						assertSameSolution(t, r, want)
					}
				}
			}
			if fs := eng.FrontStats(); fs.Solves != 1 || fs.Coalesced > 7 {
				t.Fatalf("front stats %+v: want 1 solve, at most 7 coalesced", fs)
			}
			if st := eng.CacheStats(); st.Hits != 7 || st.Misses != 1 || st.Rejected != 0 {
				t.Fatalf("cache stats %+v: want 7 hits, 1 miss", st)
			}
			assertIdle(t, eng)
		})
	}
}

// TestSingleFlightLeaderBudgetAbort: a leader that exhausts its DP work
// budget while seven followers are parked behind it stores nothing, and
// its followers report their own solve's failure instead of inheriting
// the leader's: every job runs (and aborts) exactly one solve, and no
// follower hangs.
func TestSingleFlightLeaderBudgetAbort(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.MaxGenerated = 10
	eng := mustEngine(t, Options{Workers: 2, Pipeline: cfg})
	job := Job{Net: corpus(t, 63, 1)[0], TargetMult: 1.3}
	began, release := holdFirstSolve(eng, nil)
	results := solveAll(eng, 8, job)
	<-began
	waitParked(t, 7)
	release()
	for i := range 8 {
		if r := <-results; !errors.Is(r.Err, dp.ErrBudget) {
			t.Fatalf("job %d: want its own dp.ErrBudget, got %v", i, r.Err)
		}
	}
	if n := eng.DPStats().BudgetAborts; n != 8 {
		t.Fatalf("budget aborts = %d, want one per job (8)", n)
	}
	if st := eng.CacheStats(); st.Misses != 8 || st.Hits+st.Rejected != 0 {
		t.Fatalf("cache stats %+v: want 8 misses", st)
	}
	assertIdle(t, eng)
}

// TestSingleFlightLeaderCancelled: a leader that stops without storing
// an entry — cancelled, budget-aborted or panicking, all of which land
// the flight from a defer — wakes its parked followers, which then solve
// on their own and answer exactly as a cache-disabled engine does.
func TestSingleFlightLeaderCancelled(t *testing.T) {
	line := corpus(t, 64, 1)[0]
	job := Job{Net: line, TargetMult: 1.3}
	ref := mustEngine(t, Options{Workers: 2, Cache: CacheOptions{Disabled: true}})
	want := ref.Solve(job)

	t.Run("parked followers", func(t *testing.T) {
		eng := mustEngine(t, Options{Workers: 2})
		key := eng.sig.key(job)
		if _, leader := eng.flights.join(key); !leader {
			t.Fatal("a fresh engine has a flight in progress")
		}
		results := solveAll(eng, 4, job)
		waitParked(t, 4)
		eng.flights.land(key) // the leader gave up: nothing was stored
		for range 4 {
			assertSameSolution(t, <-results, want)
		}
		if st := eng.CacheStats(); st.Hits+st.Misses+st.Rejected != 4 || st.Misses == 0 {
			t.Fatalf("cache stats %+v: want one lookup per job, at least one miss", st)
		}
		assertIdle(t, eng)
	})

	// leaderGivesUp runs a real leader job, held as its solve begins until
	// four followers have parked behind it, then stopped by then; the
	// followers must answer as the cache-disabled engine does.
	leaderGivesUp := func(t *testing.T, then func(cancel context.CancelFunc)) Result {
		eng := mustEngine(t, Options{Workers: 2})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		began, release := holdFirstSolve(eng, func() { then(cancel) })
		leader := make(chan Result, 1)
		go func() { leader <- eng.SolveContext(ctx, job) }()
		<-began
		followers := solveAll(eng, 4, job)
		waitParked(t, 4)
		release()
		r := <-leader
		for range 4 {
			assertSameSolution(t, <-followers, want)
		}
		assertIdle(t, eng)
		return r
	}
	t.Run("cancelled mid-flight", func(t *testing.T) {
		if r := leaderGivesUp(t, func(cancel context.CancelFunc) { cancel() }); !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("cancelled leader: err %v, want context.Canceled", r.Err)
		}
	})
	t.Run("panicking", func(t *testing.T) {
		r := leaderGivesUp(t, func(context.CancelFunc) { panic("leader blew up") })
		if r.Err == nil || !strings.Contains(r.Err.Error(), "solver panic: leader blew up") {
			t.Fatalf("panicking leader: err %v, want its recovered panic", r.Err)
		}
	})
}

// TestSingleFlightFollowerCancelled: a follower parked behind a flight
// that never lands returns promptly once its own context is cancelled,
// holding no slot, and its lookup counts as one miss.
func TestSingleFlightFollowerCancelled(t *testing.T) {
	eng := mustEngine(t, Options{Workers: 1})
	job := Job{Net: corpus(t, 65, 1)[0], TargetMult: 1.3}
	key := eng.sig.key(job)
	eng.flights.join(key)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res := make(chan Result, 1)
	go func() { res <- eng.SolveContext(ctx, job) }()
	waitParked(t, 1)
	cancel()
	select {
	case r := <-res:
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("parked follower: err %v, want context.Canceled", r.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled follower still parked after 10s")
	}
	if n := len(eng.solveSlots); n != 0 {
		t.Fatalf("the cancelled follower left %d solve slots held", n)
	}
	if st := eng.CacheStats(); st.Misses != 1 || st.Hits+st.Rejected != 0 {
		t.Fatalf("cache stats %+v: want 1 miss", st)
	}
	eng.flights.land(key)
	if r := eng.Solve(job); r.Err != nil || r.CacheHit {
		t.Fatalf("solve after the flight landed: err=%v hit=%v", r.Err, r.CacheHit)
	}
	assertIdle(t, eng)
}

// TestSingleFlightStream: a stream of contiguous runs of 1–6 identical
// lines and trees — arrayed nets, as a chip flow sends them — comes back
// in input order with one front solve per distinct shape, every answer
// matching a cache-disabled engine bit for bit.
func TestSingleFlightStream(t *testing.T) {
	lines := corpus(t, 66, 4)
	trees := treeCorpus(t, 67, 2)
	shapes := []Job{
		{Net: lines[0], TargetMult: 1.3},
		{TreeNet: trees[0], TargetMult: 1.3},
		{Net: lines[1], TargetMult: 1.3},
		{Net: lines[2], TargetMult: 1.3},
		{TreeNet: trees[1], TargetMult: 1.3},
		{Net: lines[3], TargetMult: 1.3},
	}
	ref := mustEngine(t, Options{Workers: 2, Cache: CacheOptions{Disabled: true}})
	want := ref.Run(shapes)
	var jobs []Job
	var shapeOf []int
	for s, j := range shapes {
		for range s + 1 {
			jobs = append(jobs, j)
			shapeOf = append(shapeOf, s)
		}
	}
	eng := mustEngine(t, Options{Workers: 2})
	in := make(chan Job)
	go func() {
		defer close(in)
		for _, j := range jobs {
			in <- j
		}
	}()
	next := 0
	for r := range eng.RunStream(in) {
		if r.Index != next {
			t.Fatalf("stream emitted index %d, want %d", r.Index, next)
		}
		w := want[shapeOf[next]]
		if r.TreeNet != nil {
			assertSameTree(t, r, w)
		} else {
			assertSameSolution(t, r, w)
		}
		next++
	}
	if next != len(jobs) {
		t.Fatalf("stream emitted %d results, want %d", next, len(jobs))
	}
	if fs := eng.FrontStats(); fs.Solves != uint64(len(shapes)) {
		t.Fatalf("front solves = %d, want one per distinct shape (%d)", fs.Solves, len(shapes))
	}
	assertIdle(t, eng)
}

// TestSingleFlightFollowerYieldsSlot: a parked follower leaves its slot
// to the next job of its call. With two slots, one held by a leader that
// cannot finish and one yielded by its parked follower, a third job on
// another shape still solves.
func TestSingleFlightFollowerYieldsSlot(t *testing.T) {
	eng := mustEngine(t, Options{Workers: 2})
	nets := corpus(t, 72, 2)
	_, release := holdFirstSolve(eng, nil)
	jobs := []Job{{Net: nets[0], TargetMult: 1.3}, {Net: nets[0], TargetMult: 1.3}, {Net: nets[1], TargetMult: 1.3}}
	done := make(chan []Result, 1)
	go func() { done <- eng.Run(jobs) }()
	for deadline := time.Now().Add(10 * time.Second); eng.FrontStats().Solves == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no job solved while the leader was held: the parked follower's slot sat idle")
		}
		time.Sleep(time.Millisecond)
	}
	release()
	for i, r := range <-done {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
	}
	if n := eng.FrontStats().Solves; n != 2 {
		t.Fatalf("front solves = %d, want one per shape (2)", n)
	}
	assertIdle(t, eng)
}

// TestRunQueuesOneSlotWaiter: a Run may keep many jobs in flight but
// queues at most one goroutine on the shared solve slots, so another
// caller waits behind at most one of the batch's jobs, not its window.
func TestRunQueuesOneSlotWaiter(t *testing.T) {
	eng := mustEngine(t, Options{Workers: 1})
	nets := corpus(t, 71, 9)
	other := Job{Net: nets[8], TargetMult: 1.3}
	if r := eng.Solve(other); r.Err != nil {
		t.Fatal(r.Err)
	}
	var jobs []Job
	for _, n := range nets[:8] {
		jobs = append(jobs, Job{Net: n, TargetMult: 1.3})
	}
	began, release := holdFirstSolve(eng, nil)
	done := make(chan []Result, 1)
	go func() { done <- eng.Run(jobs) }()
	<-began // the batch's first job holds the only slot
	hit := make(chan Result, 1)
	go func() { hit <- eng.Solve(other) }()
	waitBlocked(t, "(*slot).acquire(", 1)
	release()
	if r := <-hit; r.Err != nil || !r.CacheHit {
		t.Fatalf("other caller: err=%v hit=%v", r.Err, r.CacheHit)
	}
	// One solve warmed the other caller's shape. Since then the batch's
	// first job, one it queued ahead of the other caller, and one
	// started after it may have solved, not the window.
	if n := eng.FrontStats().Solves - 1; n > 3 {
		t.Fatalf("the other caller waited for %d batch solves, want at most 3", n)
	}
	for i, r := range <-done {
		if r.Err != nil || r.Index != i {
			t.Fatalf("job %d: index %d, err %v", i, r.Index, r.Err)
		}
	}
	assertIdle(t, eng)
}

// TestSingleFlightBus: the tracks of a bus with one shared geometry ask
// for the same (shape, factor) fronts at once in both member passes;
// each front is solved once.
func TestSingleFlightBus(t *testing.T) {
	node := tech.T180()
	cfg, err := netgen.DefaultConfig(node)
	if err != nil {
		t.Fatal(err)
	}
	tracks, err := netgen.BusGroup(rand.New(rand.NewSource(68)), cfg, "bus", 6)
	if err != nil {
		t.Fatal(err)
	}
	eng := mustEngine(t, Options{Workers: 2})
	br := eng.SolveBus(context.Background(), BusJob{Tracks: tracks, TargetMult: 1.3})
	if br.Err != nil {
		t.Fatal(br.Err)
	}
	if got, want := eng.FrontStats().Solves, uint64(len(bus.MFValues(node.MillerMax))); got != want {
		t.Fatalf("front solves = %d, want one per factor (%d)", got, want)
	}
	assertIdle(t, eng)
}

// followerOutcomes is the concurrent-follower case of
// TestFrontCounterSingleIncrement: jobs parked behind a flight count one
// lookup each, after the flight lands — a hit, or a rejection or miss
// when the post-wait check fails — never a miss and then a hit.
func followerOutcomes(t *testing.T, eng *Engine, assertStats func(string, uint64, uint64, uint64)) {
	t.Helper()
	base := eng.CacheStats()
	nets := corpus(t, 42, 2) // shapes no earlier step has seen

	// A leader that stores a front: three followers hit, and one whose
	// budget the front cannot meet counts one rejection, then solves.
	key := eng.sig.key(Job{Net: nets[0]})
	eng.flights.join(key)
	hits := solveAll(eng, 3, Job{Net: nets[0], TargetMult: 1.3})
	rejects := solveAll(eng, 1, Job{Net: nets[0], Target: 1e-15})
	waitParked(t, 4)
	ev, err := delay.NewEvaluator(nets[0], eng.tech)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := eng.solveLineFront(context.Background(), ev, nets[0].Name, key, 0, nil); err != nil {
		t.Fatal(err)
	}
	eng.flights.land(key)
	for range 3 {
		if r := <-hits; r.Err != nil || !r.CacheHit {
			t.Fatalf("follower: err=%v hit=%v", r.Err, r.CacheHit)
		}
	}
	if r := <-rejects; r.Err != nil || r.CacheHit || r.Res.Solution.Feasible {
		t.Fatalf("rejecting follower: err=%v hit=%v feasible=%v", r.Err, r.CacheHit, r.Res.Solution.Feasible)
	}
	assertStats("followers of a stored front", base.Hits+3, base.Misses, base.Rejected+1)
	if c := eng.FrontStats().Coalesced; c != 3 {
		t.Fatalf("coalesced = %d, want 3", c)
	}

	// A leader that lands without storing: its follower counts one miss.
	key = eng.sig.key(Job{Net: nets[1]})
	eng.flights.join(key)
	misses := solveAll(eng, 1, Job{Net: nets[1], TargetMult: 1.3})
	waitParked(t, 1)
	eng.flights.land(key)
	if r := <-misses; r.Err != nil || r.CacheHit {
		t.Fatalf("follower of an empty flight: err=%v hit=%v", r.Err, r.CacheHit)
	}
	assertStats("follower of an empty flight", base.Hits+3, base.Misses+1, base.Rejected+1)
	assertIdle(t, eng)
}
