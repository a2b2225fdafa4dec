// Package cluster shards a fleet of ripd replicas over the engine's
// shape signatures: every net shape has one owning replica (consistent
// hashing with virtual nodes), a non-owner forwards the request to the
// owner over the ordinary /v1/* wire format, and so the fleet's
// Pareto-front caches partition instead of duplicating — N replicas
// hold N caches' worth of distinct shapes, and a shape is DP-solved
// once for the whole fleet instead of once per replica.
//
// Routing is an optimization, never a correctness dependency: any
// replica can solve any request locally (identical binaries, identical
// technology registries), so an unreachable owner degrades to a local
// solve (default) or an explicit retryable error (strict mode), and
// replicas joining or leaving merely re-partition future traffic.
package cluster

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
)

// defaultVnodes is the virtual-node count per member, cheap enough that
// ring construction is instant. Over 400 rings each of 2 and of 3
// members on one host with adjacent ports, keyed by real shape
// signatures, the worst member's share was within 2–3 points of 1/n at
// the median ring and within 6.5 points at the 95th percentile (12 at
// worst).
const defaultVnodes = 128

// Ring is an immutable consistent-hash ring over the member replicas.
// Every replica must build its ring from the same member list (order
// does not matter — members are sorted in); lists that disagree only
// cost extra forwards and duplicate cache entries, never wrong answers.
type Ring struct {
	members []string
	hashes  []uint64 // sorted vnode hashes
	owners  []string // owners[i] owns hashes[i]
}

// NewRing builds a ring of the given members (base URLs) with vnodes
// virtual nodes each (0 = default). Duplicate members collapse.
func NewRing(members []string, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = defaultVnodes
	}
	uniq := slices.Clone(members)
	slices.Sort(uniq)
	uniq = slices.Compact(uniq)
	if len(uniq) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	r := &Ring{
		members: uniq,
		hashes:  make([]uint64, 0, len(uniq)*vnodes),
		owners:  make([]string, 0, len(uniq)*vnodes),
	}
	type vnode struct {
		h     uint64
		owner string
	}
	vs := make([]vnode, 0, len(uniq)*vnodes)
	for _, m := range uniq {
		for i := 0; i < vnodes; i++ {
			vs = append(vs, vnode{h: hash64(m + "#" + strconv.Itoa(i)), owner: m})
		}
	}
	slices.SortFunc(vs, func(a, b vnode) int { return cmp.Compare(a.h, b.h) })
	for _, v := range vs {
		r.hashes = append(r.hashes, v.h)
		r.owners = append(r.owners, v.owner)
	}
	return r, nil
}

// Owner returns the member owning the key: the first vnode clockwise
// from the key's hash.
func (r *Ring) Owner(key string) string {
	h := hash64(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	return r.owners[i]
}

// Members lists the ring's members, sorted.
func (r *Ring) Members() []string { return slices.Clone(r.members) }

// hash64 is FNV-64a passed through the splitmix64 finalizer. Raw FNV
// leaves strings that differ only in their last few bytes — one host's
// ports, a member's "#i" vnode suffixes — with correlated hashes, so
// the vnodes of such members bunch up on the ring. The finalizer's
// xor-shift-multiply rounds spread every input bit over the whole word.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
