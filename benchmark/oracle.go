package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/rip-eda/rip/internal/api"
	"github.com/rip-eda/rip/internal/engine"
)

const (
	// resolveCount is how many requests per run the oracle re-solves.
	resolveCount = 16
	// resolveMaxTracks keeps bus groups in the re-solve sample small: with
	// the cache off every track is solved under every Miller factor.
	resolveMaxTracks = 3
)

// resolve re-solves a seeded sample of n of the items ripd answered on a
// fresh in-process engine with its cache off, and checks that every
// served placement matches bit for bit: a cache hit must serve exactly
// what a cold solve computes.
func (c *checker) resolve(ctx context.Context, seed int64, n int) error {
	c.mu.Lock()
	var pool []*item
	for it := range c.served {
		if it.kind != kindBus || it.nets <= resolveMaxTracks {
			pool = append(pool, it)
		}
	}
	c.mu.Unlock()
	slices.SortFunc(pool, func(a, b *item) int { return a.id - b.id })
	rand.New(rand.NewSource(seed)).Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	pool = pool[:min(n, len(pool))]

	m, err := engine.NewMulti(ripdRegistry(), nodes[0], engine.Options{Workers: 2, Cache: engine.CacheOptions{Disabled: true}})
	if err != nil {
		return err
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pool) || ctx.Err() != nil {
					return
				}
				it := pool[i]
				c.mu.Lock()
				served := c.served[it]
				c.mu.Unlock()
				if f := resolveOne(ctx, m, it, served); f != nil {
					c.fail(f)
				}
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// resolveOne solves one item afresh and compares it with the served
// answer.
func resolveOne(ctx context.Context, m *engine.Multi, it *item, served []byte) *failure {
	mismatch := func(what string) *failure {
		return failf("resolve_mismatch", "%s %s: %s differs from a cache-off re-solve", it.tech, it.name, what)
	}
	switch it.kind {
	case kindBus:
		var got api.BusResponse
		if err := json.Unmarshal(served, &got); err != nil {
			return failf("undecodable", "bus: %v", err)
		}
		want := api.FromBusResult(m.SolveBus(ctx, it.bus.Job()))
		if want.Err != nil {
			return failf(want.Err.Code, "re-solve: %s", want.Err.Message)
		}
		if len(got.Tracks) != len(want.Tracks) {
			return mismatch("track count")
		}
		for i, w := range want.Tracks {
			g := got.Tracks[i]
			if g.Scheme != w.Scheme || !sameBits(g.MF, w.MF) ||
				!sameAll(g.PositionsUM, w.PositionsUM) || !sameAll(g.WidthsU, w.WidthsU) {
				return mismatch("track " + w.Net)
			}
		}
	case kindFront:
		var got api.FrontResponse
		if err := json.Unmarshal(served, &got); err != nil {
			return failf("undecodable", "%s: %v", it.name, err)
		}
		want := api.FromFrontResult(m.FrontContext(ctx, it.req.Job()))
		if want.Err != nil {
			return failf(want.Err.Code, "re-solve: %s", want.Err.Message)
		}
		if !sameBits(got.TMinNS, want.TMinNS) || len(got.Points) != len(want.Points) {
			return mismatch("front")
		}
		for i, w := range want.Points {
			g := got.Points[i]
			if !sameBits(g.DelayNS, w.DelayNS) || !sameBits(g.TotalWidthU, w.TotalWidthU) || g.Repeaters != w.Repeaters {
				return mismatch("front point")
			}
		}
	default:
		var got api.Response
		if err := json.Unmarshal(served, &got); err != nil {
			return failf("undecodable", "%s: %v", it.name, err)
		}
		want := api.FromResult(m.SolveContext(ctx, it.req.Job()))
		if want.Err != nil {
			return failf(want.Err.Code, "re-solve: %s", want.Err.Message)
		}
		if !sameAll(got.PositionsUM, want.PositionsUM) || !sameAll(got.WidthsU, want.WidthsU) ||
			!sameBits(got.TotalWidthU, want.TotalWidthU) || len(got.Sweep) != len(want.Sweep) ||
			len(got.Buffers) != len(want.Buffers) {
			return mismatch("placement")
		}
		for i, w := range want.Sweep {
			g := got.Sweep[i]
			if !sameAll(g.PositionsUM, w.PositionsUM) || !sameAll(g.WidthsU, w.WidthsU) {
				return mismatch("sweep placement")
			}
		}
		for i, w := range want.Buffers {
			if g := got.Buffers[i]; g.NodeID != w.NodeID || !sameBits(g.WidthU, w.WidthU) {
				return mismatch("buffers")
			}
		}
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameAll(a, b []float64) bool {
	return slices.EqualFunc(a, b, sameBits)
}
