package main

import (
	"context"
	"slices"
	"testing"
	"time"
)

// TestOpenLoopCountsFromDueTime sends three requests due at once over two
// connections to a server that takes 50ms each: the third waits for a
// free connection, and its latency must count that wait.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const svc = 50 * time.Millisecond
	send := func(ctx context.Context, i int) (int, bool) {
		time.Sleep(svc)
		return 1, true
	}
	w := openLoop(context.Background(), 2, []time.Duration{0, 0, 0}, send)
	if w.sent != 3 || w.answered() != 3 {
		t.Fatalf("sent %d, answered %d nets; want 3 and 3", w.sent, w.answered())
	}
	lat := slices.Sorted(slices.Values(w.lat))
	if lat[2] < 2*svc {
		t.Errorf("queued request latency %v, want ≥ %v (its wait for a connection)", lat[2], 2*svc)
	}
	for i, s := range w.svc {
		if s > w.lat[i] {
			t.Errorf("request %d: service %v longer than latency %v", i, s, w.lat[i])
		}
	}
	if lag := slices.Max(w.sendLag); lag < svc {
		t.Errorf("max send lag %v, want ≥ %v", lag, svc)
	}
}

func TestClosedLoopStops(t *testing.T) {
	send := func(ctx context.Context, i int) (int, bool) { return 2, true }
	w := closedLoop(context.Background(), 2, 100, time.Time{}, send)
	if w.sent != 100 || w.answered() != 200 || len(w.lat) != 100 {
		t.Errorf("fixed count: sent %d, nets %d, %d samples; want 100, 200, 100", w.sent, w.answered(), len(w.lat))
	}
	slow := func(ctx context.Context, i int) (int, bool) {
		time.Sleep(5 * time.Millisecond)
		return 1, true
	}
	w = closedLoop(context.Background(), 2, 1<<30, time.Now().Add(50*time.Millisecond), slow)
	if w.sent < 2 || w.sent > 40 || w.elapsed > time.Second {
		t.Errorf("deadline: sent %d in %v", w.sent, w.elapsed)
	}
}
