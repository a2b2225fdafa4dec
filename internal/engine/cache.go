package engine

import (
	"container/list"
	"hash/maphash"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// linePoint is one retained point of a line net's power–delay Pareto
// front: the cheapest assignment achieving its delay over the engine's
// native candidate space. Points of coupled fronts (entries keyed with a
// crosstalk scenario) additionally carry the per-grid-interval
// countermeasure schemes and their summed lengths; uncoupled points
// leave them empty.
type linePoint struct {
	delay      float64
	totalWidth float64
	positions  []float64
	widths     []float64
	schemes    []uint8
	staggerLen float64
	shieldLen  float64
}

// lineFront is a retained line front: delay strictly increasing,
// totalWidth strictly decreasing (the dp.Front invariants).
type lineFront []linePoint

// at returns the index of the minimum-power point with delay ≤ target —
// mirroring dp.Front.At — and false when no point meets it.
func (f lineFront) at(target float64) (int, bool) {
	if len(f) == 0 || math.IsNaN(target) || !(f[0].delay <= target) {
		return 0, false
	}
	i := sort.Search(len(f), func(i int) bool { return f[i].delay > target })
	return i - 1, true
}

// treePoint is one retained point of a tree's power–slack Pareto front.
// ids are pre-order walk positions (not node IDs) of the buffered nodes,
// parallel to widths, so the entry serves any shape-equal tree.
type treePoint struct {
	slack      float64
	totalWidth float64
	ids        []int32
	widths     []float64
}

// treeFront is a retained tree front: slack strictly decreasing,
// totalWidth strictly decreasing (the tree.Front invariants).
type treeFront []treePoint

// at returns the index of the minimum-power point with slack ≥ minSlack —
// mirroring tree.Front.At — and false when no point reaches it.
func (f treeFront) at(minSlack float64) (int, bool) {
	if len(f) == 0 || math.IsNaN(minSlack) || !(f[0].slack >= minSlack) {
		return 0, false
	}
	i := sort.Search(len(f), func(i int) bool { return f[i].slack < minSlack })
	return i - 1, true
}

// cached is one memoized Pareto front — the engine's native cached
// object. It stores only what is needed to answer any budget and
// re-verify the chosen point on a signature-equivalent net; the DP
// working sets and pipeline reports are not kept (they would pin the
// arenas of millions of nets in memory).
type cached struct {
	// front is a line entry's power–delay front.
	front lineFront
	// tmin is the signature's reference-space τmin (line) or minimum
	// achievable worst-sink arrival (tree, uniform mode), retained so
	// relative-target hits skip the τmin dynamic program too.
	tmin float64

	// Tree entries (kind byte 'T' in the key) carry treeFront instead.
	// Line and tree keys are disjoint, so a signature never decodes as the
	// wrong kind.
	tree      bool
	treeFront treeFront
}

// cacheShard is one independently locked slice of the cache: an LRU list
// (front = most recently used) plus the key index.
type cacheShard struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List
	index    map[string]*list.Element
}

type cacheItem struct {
	key string
	val cached
}

// solutionCache is a bounded, sharded LRU keyed by canonical net
// signatures. Sharding keeps lock contention off the hot path when many
// workers look up concurrently; each shard holds capacity/shards entries.
type solutionCache struct {
	shards    []*cacheShard
	seed      maphash.Seed
	evictions atomic.Uint64
}

func newSolutionCache(capacity, shards int) *solutionCache {
	if shards < 1 {
		shards = 1
	}
	if capacity < shards {
		capacity = shards
	}
	c := &solutionCache{shards: make([]*cacheShard, shards), seed: maphash.MakeSeed()}
	per := (capacity + shards - 1) / shards
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			capacity: per,
			ll:       list.New(),
			index:    make(map[string]*list.Element, per),
		}
	}
	return c
}

func (c *solutionCache) shard(key string) *cacheShard {
	return c.shards[maphash.String(c.seed, key)%uint64(len(c.shards))]
}

// get returns the entry for key and marks it most recently used.
func (c *solutionCache) get(key string) (cached, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.index[key]
	if !ok {
		return cached{}, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*cacheItem).val, true
}

// put inserts or refreshes key, evicting the shard's LRU entry when full.
func (c *solutionCache) put(key string, val cached) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.index[key]; ok {
		el.Value.(*cacheItem).val = val
		s.ll.MoveToFront(el)
		return
	}
	if s.ll.Len() >= s.capacity {
		oldest := s.ll.Back()
		if oldest != nil {
			s.ll.Remove(oldest)
			delete(s.index, oldest.Value.(*cacheItem).key)
			c.evictions.Add(1)
		}
	}
	s.index[key] = s.ll.PushFront(&cacheItem{key: key, val: val})
}

// len returns the total number of cached entries.
func (c *solutionCache) len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}
