package engine

import (
	"context"
	"sync"
	"sync/atomic"
)

// solveFunc is the per-job solve primitive the fan-out machinery drives:
// Engine.solve for a single node, a Multi's batch solve for routed jobs.
// The slot belongs to the job, not to a goroutine (see drive).
type solveFunc func(ctx context.Context, sl *slot, j Job) Result

// inFlight is how many jobs one Run or RunStream call keeps in flight on
// a solve-slot channel. CPU use is bounded by the slots, not by
// goroutines: a job parked behind another job's solve of its signature
// yields its slot, so a call needs more jobs in flight than slots or a
// parked job would leave a CPU idle. The same bound is RunStream's
// reordering window.
func inFlight(slots chan struct{}) int { return max(4*cap(slots), 64) }

// drive is the loop Run and RunStream share. It runs one loop per solve
// slot and one more each time a job yields its slot (see slot.yield), up
// to n, so a job that waits without a CPU never leaves one idle, while a
// call that never waits runs no more loops than slots. The first loop
// runs on the calling goroutine, whose stack is already grown, so a
// one-job call starts no goroutine and a call on W slots starts W-1; a
// fresh goroutine would grow its stack again through the solve path.
// Each loop: take the call's gate, claim the next job, take the job's
// solve slot, hand the gate on, solve. Only the gate's holder waits for a
// slot, so a call queues one loop on the shared slots however many jobs
// it has in flight, and its jobs take their slots in claim order, which
// is input order: with one slot a job starts only once the one before it
// has finished or yielded. claim returns job i, or false when no job is
// left; emit receives each result, Index set.
func drive(ctx context.Context, slots chan struct{}, n int, claim func(i int) (Job, bool), solve solveFunc, emit func(Result)) {
	gate := make(chan struct{}, 1)
	next := 0 // guarded by gate
	var live atomic.Int64
	var wg sync.WaitGroup
	var loop func()
	grow := func() {
		if live.Add(1) > int64(n) {
			live.Add(-1)
			return
		}
		wg.Add(1)
		go loop()
	}
	loop = func() {
		defer wg.Done()
		sl := slot{ch: slots, yielded: grow}
		for {
			gate <- struct{}{}
			i := next
			j, ok := claim(i)
			if ok {
				next++
				// On a done ctx the job starts without a slot and
				// reports the context's error from its own acquire.
				_ = sl.acquire(ctx)
			}
			<-gate
			if !ok {
				return
			}
			r := solve(ctx, &sl, j)
			sl.release()
			r.Index = i
			emit(r)
		}
	}
	if first := min(cap(slots), n); first > 0 {
		live.Add(1)
		wg.Add(1)
		for range first - 1 {
			grow()
		}
		loop()
	}
	wg.Wait()
}

// runJobs is the shared Run/RunContext body: every result slot filled,
// results in input order by construction.
func runJobs(ctx context.Context, slots chan struct{}, jobs []Job, solve solveFunc) []Result {
	results := make([]Result, len(jobs))
	claim := func(i int) (Job, bool) {
		if i == len(jobs) {
			return Job{}, false
		}
		return jobs[i], true
	}
	drive(ctx, slots, min(inFlight(slots), len(jobs)), claim, solve, func(r Result) { results[r.Index] = r })
	return results
}

// runStream is the shared RunStream/RunStreamContext body: jobs are
// admitted under a bounded reordering window and emitted in input order;
// the output channel closes after the last admitted job's result. The
// caller owns (and closes) the input channel.
func runStream(ctx context.Context, slots chan struct{}, in <-chan Job, solve solveFunc) <-chan Result {
	out := make(chan Result)
	// The window bounds how far completed results may run ahead of the
	// oldest unfinished job, which bounds the reorder buffer.
	window := inFlight(slots)
	tokens := make(chan struct{}, window)
	done := make(chan Result)
	claim := func(int) (Job, bool) {
		tokens <- struct{}{}
		j, ok := <-in
		if !ok {
			<-tokens
		}
		return j, ok
	}

	go func() {
		drive(ctx, slots, window, claim, solve, func(r Result) { done <- r })
		close(done)
	}()

	go func() { // sequencer: emit in input order
		defer close(out)
		pending := make(map[int]Result, window)
		next := 0
		for r := range done {
			pending[r.Index] = r
			for {
				rr, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				out <- rr
				<-tokens
				next++
			}
		}
	}()
	return out
}
