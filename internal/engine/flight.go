package engine

import (
	"context"
	"sync"
)

// slot is one job's claim on the engine-wide solve budget. A job that
// waits on something other than a CPU — a single-flight follower parked
// behind its leader, a job forwarded to its owning peer — yields its slot
// for the wait, so the job's deferred release must know whether the slot
// is still held.
type slot struct {
	ch   chan struct{}
	held bool
	// yielded, when not nil, runs each time the job yields the slot, so
	// the job's Run or RunStream call can start another job on it.
	yielded func()
}

// acquire takes the slot unless it is already held, then reports the
// context's error: a slot won in a tie with cancellation is kept (for
// release to return) but the job still stops.
func (s *slot) acquire(ctx context.Context) error {
	if !s.held {
		select {
		case s.ch <- struct{}{}:
			s.held = true
		case <-ctx.Done():
		}
	}
	return ctx.Err()
}

// release gives the slot back if it is held.
func (s *slot) release() {
	if s.held {
		s.held = false
		<-s.ch
	}
}

// yield gives the slot back for a wait that needs no CPU.
func (s *slot) yield() {
	s.release()
	if s.yielded != nil {
		s.yielded()
	}
}

// flightTable is the engine's single-flight table: one entry per cache
// signature whose cold solve is running, mapped to a channel the leader
// closes when it lands.
type flightTable struct {
	mu sync.Mutex
	m  map[string]chan struct{}
}

// join makes the caller the leader of key's flight when none is running
// (leader=true; the caller must land it), or returns the running flight's
// done channel.
func (t *flightTable) join(key string) (done <-chan struct{}, leader bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ch, ok := t.m[key]; ok {
		return ch, false
	}
	if t.m == nil {
		t.m = make(map[string]chan struct{})
	}
	ch := make(chan struct{})
	t.m[key] = ch
	return ch, true
}

// land ends key's flight and wakes its followers.
func (t *flightTable) land(key string) {
	t.mu.Lock()
	ch := t.m[key]
	delete(t.m, key)
	t.mu.Unlock()
	close(ch)
}

// lookupOutcome is what a probe of the solution cache found for one job.
type lookupOutcome int

const (
	lookupMiss     lookupOutcome = iota // no usable entry
	lookupHit                           // an entry verified on the job's own net
	lookupRejected                      // an entry that failed verification
)

// lookup runs one job's cache lookup under the single-flight table and
// counts it exactly once as a hit, miss or rejection. probe looks key up
// and verifies the entry on the job's own net without touching a counter.
//
// A job that misses while key is in flight gives its slot back, waits for
// the leader to land, takes a slot again and probes once more: a follower
// is therefore answered either by a hit verified on its own net or by its
// own solve, and never inherits the leader's failure. It waits at most
// once; after that it solves as an ordinary miss. lead reports that the
// caller leads key's flight and must land it (in a defer, so a panic
// lands it too). The error is the context's, from a follower cancelled
// while parked, whose lookup counts as a miss.
//
// A hit on the first probe takes no lock and allocates nothing.
func (e *Engine) lookup(ctx context.Context, sl *slot, key string, probe func() lookupOutcome) (o lookupOutcome, lead bool, err error) {
	waited := false
	for o = probe(); o == lookupMiss; o = probe() {
		done, leader := e.flights.join(key)
		if leader {
			// A flight that landed between the probe and the join has
			// already stored its entry: look once more before solving.
			if o = probe(); o != lookupMiss {
				e.flights.land(key)
				break
			}
			e.misses.Add(1)
			return o, true, nil
		}
		if waited {
			break
		}
		sl.yield()
		select {
		case <-done:
		case <-ctx.Done():
			e.misses.Add(1)
			return o, false, ctx.Err()
		}
		if err := sl.acquire(ctx); err != nil {
			e.misses.Add(1)
			return o, false, err
		}
		waited = true
	}
	switch o {
	case lookupHit:
		e.hits.Add(1)
		if waited {
			e.frontCoalesced.Add(1)
		}
	case lookupRejected:
		e.rejected.Add(1)
	default:
		e.misses.Add(1)
	}
	return o, false, nil
}
