package engine

import (
	"math"
)

// This file is the engine half of cache snapshot/restore and of
// consistent-hash peer routing: it exposes the solution cache as an
// ordered stream of self-contained entries (ExportCache / ImportCache)
// and the canonical per-job cache key (Signature) without leaking the
// cache's internal representation. internal/snapshot serializes the
// entries to the versioned on-disk format; internal/cluster hashes the
// signatures onto the peer ring.
//
// Restored entries keep the cache's core guarantee: a lookup that finds
// an imported entry checks it on the actual net exactly like any other
// hit (see acquire.go), so a stale or corrupt front degrades to a
// verification reject and a fresh solve, never to a wrong answer. Solve
// re-prices and legality-checks the points it serves; Front re-prices
// every point and requires its cached delay or slack and total width to
// reproduce. The one value taken on trust is an entry's τmin, which
// relative budgets multiply: re-deriving it would cost the DP the cache
// exists to skip.

// CachePoint is one exported point of a line net's power–delay front.
// Schemes, StaggerLen and ShieldLen are populated only on points of
// coupled fronts (entries keyed with a crosstalk scenario).
type CachePoint struct {
	Delay      float64
	TotalWidth float64
	Positions  []float64
	Widths     []float64
	Schemes    []uint8
	StaggerLen float64
	ShieldLen  float64
}

// CacheTreePoint is one exported point of a tree's power–slack front.
// Walk holds pre-order walk positions (not node IDs), parallel to
// Widths, exactly as the cache stores them.
type CacheTreePoint struct {
	Slack      float64
	TotalWidth float64
	Walk       []int32
	Widths     []float64
}

// CacheEntry is one exported solution-cache entry: the canonical
// signature key plus the retained Pareto front it answers from. Exactly
// one of Line and TreePts is populated, selected by Tree.
type CacheEntry struct {
	// Key is the canonical net signature (opaque binary; embeds the
	// digest of the node's electrical identity and the quantized net
	// shape).
	Key string
	// TMin is the signature's reference-space minimum achievable delay.
	TMin float64
	// Tree selects the entry kind.
	Tree bool
	// Line is a line entry's power–delay front, fastest first.
	Line []CachePoint
	// TreePts is a tree entry's power–slack front.
	TreePts []CacheTreePoint
}

// ExportCache snapshots every cached entry in least- to most-recently
// used order, so feeding the slice back through ImportCache reproduces
// the cache's recency ordering as well as its contents. The returned
// slices are deep copies; mutating them cannot corrupt the live cache.
// A cache-disabled engine exports nil.
func (e *Engine) ExportCache() []CacheEntry {
	if e.cache == nil {
		return nil
	}
	var out []CacheEntry
	for _, sh := range e.cache.shards {
		sh.mu.Lock()
		for el := sh.ll.Back(); el != nil; el = el.Prev() {
			it := el.Value.(*cacheItem)
			out = append(out, exportEntry(it.key, it.val))
		}
		sh.mu.Unlock()
	}
	return out
}

func exportEntry(key string, val cached) CacheEntry {
	ent := CacheEntry{Key: key, TMin: val.tmin, Tree: val.tree}
	if val.tree {
		ent.TreePts = make([]CacheTreePoint, len(val.treeFront))
		for i, p := range val.treeFront {
			ent.TreePts[i] = CacheTreePoint{
				Slack:      p.slack,
				TotalWidth: p.totalWidth,
				Walk:       append([]int32(nil), p.ids...),
				Widths:     append([]float64(nil), p.widths...),
			}
		}
		return ent
	}
	ent.Line = make([]CachePoint, len(val.front))
	for i, p := range val.front {
		ent.Line[i] = CachePoint{
			Delay:      p.delay,
			TotalWidth: p.totalWidth,
			Positions:  append([]float64(nil), p.positions...),
			Widths:     append([]float64(nil), p.widths...),
			Schemes:    append([]uint8(nil), p.schemes...),
			StaggerLen: p.staggerLen,
			ShieldLen:  p.shieldLen,
		}
	}
	return ent
}

// ImportCache inserts exported entries into the cache in slice order
// (so an ExportCache slice restores LRU→MRU recency) and returns how
// many were accepted. Structurally unsound entries — non-finite floats,
// mismatched parallel slices, empty keys or fronts — are skipped rather
// than trusted. The front's correctness never depends on this filter:
// every hit, Solve or Front, re-checks the served points on the actual
// net, and a finite but wrong delay, slack, width or placement is
// rejected there and re-solved. The filter only spares a poisoned entry
// a lookup-and-reject cycle on every probe of its shape. An entry's TMin
// is not re-checked (see the file comment). Entries are deep copied on
// the way in. A cache-disabled engine imports nothing.
func (e *Engine) ImportCache(entries []CacheEntry) int {
	if e.cache == nil {
		return 0
	}
	added := 0
	for _, ent := range entries {
		val, ok := importEntry(ent)
		if !ok {
			continue
		}
		e.cache.put(ent.Key, val)
		added++
	}
	return added
}

func importEntry(ent CacheEntry) (cached, bool) {
	if ent.Key == "" || !finite(ent.TMin) {
		return cached{}, false
	}
	if ent.Tree {
		if len(ent.TreePts) == 0 {
			return cached{}, false
		}
		front := make(treeFront, len(ent.TreePts))
		for i, p := range ent.TreePts {
			if !finite(p.Slack) || !finite(p.TotalWidth) || len(p.Walk) != len(p.Widths) {
				return cached{}, false
			}
			for _, w := range p.Widths {
				if !finite(w) {
					return cached{}, false
				}
			}
			front[i] = treePoint{
				slack:      p.Slack,
				totalWidth: p.TotalWidth,
				ids:        append([]int32(nil), p.Walk...),
				widths:     append([]float64(nil), p.Widths...),
			}
		}
		return cached{tree: true, treeFront: front, tmin: ent.TMin}, true
	}
	if len(ent.Line) == 0 {
		return cached{}, false
	}
	front := make(lineFront, len(ent.Line))
	for i, p := range ent.Line {
		if !finite(p.Delay) || !finite(p.TotalWidth) || len(p.Positions) != len(p.Widths) {
			return cached{}, false
		}
		for k := range p.Positions {
			if !finite(p.Positions[k]) || !finite(p.Widths[k]) {
				return cached{}, false
			}
		}
		if !finite(p.StaggerLen) || p.StaggerLen < 0 || !finite(p.ShieldLen) || p.ShieldLen < 0 {
			return cached{}, false
		}
		for _, s := range p.Schemes {
			if s > 2 {
				return cached{}, false
			}
		}
		front[i] = linePoint{
			delay:      p.Delay,
			totalWidth: p.TotalWidth,
			positions:  append([]float64(nil), p.Positions...),
			widths:     append([]float64(nil), p.Widths...),
			schemes:    append([]uint8(nil), p.Schemes...),
			staggerLen: p.StaggerLen,
			shieldLen:  p.ShieldLen,
		}
	}
	return cached{front: front, tmin: ent.TMin}, true
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// TechIdentity returns the canonical electrical identity string of the
// engine's node; its SHA-256 digest opens every cache signature. Snapshot
// files store the same digest per node section, so a snapshot written
// under one node definition can never be imported into an engine whose
// node has since changed (name kept, parameters edited): the digests
// differ and the section is skipped.
func (e *Engine) TechIdentity() string { return e.sig.identity }

// Signature returns the job's canonical cache key — the shape identity
// consistent-hash routing partitions across peers — and false for jobs
// that cannot be keyed: no net, both kinds set, an invalid tree, or a
// crosstalk scenario that does not resolve on this node. It never solves
// anything.
func (e *Engine) Signature(j Job) (sig string, ok bool) {
	defer func() {
		// A malformed net that panics the canonicalizer is unroutable,
		// not fatal: the caller falls back to local solving, where the
		// engine's own validation pronounces the real error.
		if recover() != nil {
			sig, ok = "", false
		}
	}()
	switch {
	case j.Net == nil && j.TreeNet == nil:
		return "", false
	case j.Net != nil && j.TreeNet != nil:
		return "", false
	case j.TreeNet != nil && j.TreeNet.Validate() != nil:
		return "", false
	}
	cpl, err := e.resolveCoupling(j, "")
	switch {
	case err != nil:
		return "", false
	case j.TreeNet != nil:
		return e.sig.treeKey(j, treeEmbedded(j)), true
	case j.shape != nil && j.shape.eng == e:
		// A bus member carries its track's geometry prefix (lineShape).
		return e.sig.scenarioKey(j.shape.key, cpl), true
	}
	return e.sig.key(j.Net, cpl), true
}
