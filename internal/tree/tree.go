// Package tree extends the paper's two-pin algorithms to interconnect
// trees — the extension §7 announces as ongoing work ("we are currently
// extending our hybrid scheme to the design of low-power interconnect
// trees"). It implements the power-aware van Ginneken / Lillis dynamic
// program on RC trees: bottom-up candidate propagation with
// (capacitance, required time, width) triples, branch merging, and 3-D
// Pareto pruning, minimizing total buffer width subject to every sink
// meeting its required arrival time.
//
// Trees are a first-class workload, not an appendix: Net wraps a Tree
// with a name and driver width (the unit the batch engine, the JSON
// wire format and ripcli/ripd move around, with a µm/fF/ns JSON schema
// in net.go), Solver is the reusable zero-allocation solve entry
// (persistent arenas, InsertInto, a sync.Pool behind the package-level
// functions — the dp.Solver discipline), InsertHybrid/InsertHybridWith
// run the §7 pipeline analogue (coarse DP → continuous width refinement
// → concise-library DP), and MinArrival computes the τmin analogue that
// relative tree deadlines are multiples of.
package tree

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Node is one vertex of the RC tree. The edge fields describe the wire
// from the node's parent; the root's edge must be zero. A node may be a
// sink (positive SinkCap, a leaf) and/or a buffer candidate site.
type Node struct {
	// ID identifies the node; unique within a tree.
	ID int
	// EdgeR and EdgeC are the lumped wire resistance (Ω) and capacitance
	// (F) of the edge from the parent, modeled as a π segment.
	EdgeR, EdgeC float64
	// Children are the downstream nodes.
	Children []*Node
	// SinkCap is the sink load capacitance in F (leaves only; 0 = not a
	// sink).
	SinkCap float64
	// SinkRAT is the sink's required arrival time in seconds.
	SinkRAT float64
	// BufferSite marks the node as a legal buffer location.
	BufferSite bool
}

// Tree is a rooted RC tree. Construct with New, which validates shape.
type Tree struct {
	Root *Node
	// nodes in a topological (parent-before-child) order.
	nodes []*Node
	// parents[i] is the index (into nodes) of nodes[i]'s parent, -1 for
	// the root. The pre-order walk visits a node's children in Children
	// order, so scanning parents forward and appending each index to its
	// parent's list rebuilds every child list in Children order — the
	// property Solver's flat child index relies on.
	parents []int32
}

// New validates the tree rooted at root: unique IDs, zero root edge,
// non-negative parasitics, sinks at leaves only, and at least one sink.
func New(root *Node) (*Tree, error) { return build(root, 0, make(map[int]bool)) }

// build is New for a tree of about size nodes. A nil seen skips the
// duplicate-ID check, for a caller whose nodes have distinct IDs and one
// parent each, so that the walk cannot meet a node twice.
func build(root *Node, size int, seen map[int]bool) (*Tree, error) {
	if root == nil {
		return nil, errors.New("tree: nil root")
	}
	if root.EdgeR != 0 || root.EdgeC != 0 {
		return nil, errors.New("tree: root must not carry a parent edge")
	}
	t := &Tree{Root: root, nodes: make([]*Node, 0, size), parents: make([]int32, 0, size)}
	sinks := 0
	var walk func(n *Node, parent int32) error
	walk = func(n *Node, parent int32) error {
		if seen != nil {
			if seen[n.ID] {
				return fmt.Errorf("tree: duplicate node id %d", n.ID)
			}
			seen[n.ID] = true
		}
		t.nodes = append(t.nodes, n)
		t.parents = append(t.parents, parent)
		if n.EdgeR < 0 || n.EdgeC < 0 {
			return fmt.Errorf("tree: node %d has negative edge parasitics", n.ID)
		}
		if n.SinkCap < 0 {
			return fmt.Errorf("tree: node %d has negative sink cap", n.ID)
		}
		if n.SinkCap > 0 {
			if len(n.Children) != 0 {
				return fmt.Errorf("tree: sink node %d is not a leaf", n.ID)
			}
			sinks++
		} else if len(n.Children) == 0 {
			return fmt.Errorf("tree: leaf node %d is not a sink", n.ID)
		}
		self := int32(len(t.nodes) - 1)
		for _, c := range n.Children {
			if c == nil {
				return fmt.Errorf("tree: node %d has a nil child", n.ID)
			}
			if err := walk(c, self); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root, -1); err != nil {
		return nil, err
	}
	if sinks == 0 {
		return nil, errors.New("tree: no sinks")
	}
	return t, nil
}

// NumNodes returns the node count.
func (t *Tree) NumNodes() int { return len(t.nodes) }

// WalkOrder appends the nodes in the tree's deterministic pre-order walk
// (node before children, children in Children order) to dst and returns
// the extended slice. Shape-equal trees yield positionally aligned walks,
// which is what lets the engine's solution cache address buffers by walk
// position rather than by node ID and serve a solution across same-shape
// trees whose IDs differ.
func (t *Tree) WalkOrder(dst []*Node) []*Node { return append(dst, t.nodes...) }

// Walk returns the node at position i of the walk WalkOrder lists.
func (t *Tree) Walk(i int) *Node { return t.nodes[i] }

// Sinks returns the sink nodes in walk order.
func (t *Tree) Sinks() []*Node {
	var out []*Node
	for _, n := range t.nodes {
		if n.SinkCap > 0 {
			out = append(out, n)
		}
	}
	return out
}

// BufferSites returns the buffer-candidate nodes in walk order.
func (t *Tree) BufferSites() []*Node {
	var out []*Node
	for _, n := range t.nodes {
		if n.BufferSite {
			out = append(out, n)
		}
	}
	return out
}

// TotalEdgeC returns the total wire capacitance of the tree.
func (t *Tree) TotalEdgeC() float64 {
	sum := 0.0
	for _, n := range t.nodes {
		sum += n.EdgeC
	}
	return sum
}

// Evaluate computes, for the buffer placement buffers (node ID → width in
// u), the worst slack over all sinks: min over sinks of RAT − arrival.
// The driver at the root has width driverWidth. The electrical constants
// (rs, co, cp) describe a unit buffer as in the two-pin model. Evaluate is
// the independent checker used to validate the DP: it performs a full
// downstream-capacitance and delay traversal rather than reusing DP state.
func (t *Tree) Evaluate(buffers map[int]float64, driverWidth, rs, co, cp float64) (float64, error) {
	if !(driverWidth > 0) {
		return 0, errors.New("tree: driver width must be positive")
	}
	for id, w := range buffers {
		if !(w > 0) {
			return 0, fmt.Errorf("tree: buffer at node %d has non-positive width %g", id, w)
		}
	}
	// cap[n] = capacitance seen looking into n from its parent edge's far
	// end (after n's own buffer, if any).
	capSeen := make(map[int]float64, len(t.nodes))
	var capWalk func(n *Node) float64
	capWalk = func(n *Node) float64 {
		sum := n.SinkCap
		for _, c := range n.Children {
			sum += c.EdgeC + capWalk(c)
		}
		if w, ok := buffers[n.ID]; ok {
			// A buffer hides the downstream load behind its input cap.
			capSeen[n.ID] = sum
			return co * w
		}
		capSeen[n.ID] = sum
		return sum
	}
	rootLoad := capWalk(t.Root)

	// Arrival-time walk: driver delay plus per-edge Elmore contributions,
	// restarting the resistance path at each buffer.
	worst := math.Inf(1)
	var walk func(n *Node, arrival float64)
	walk = func(n *Node, arrival float64) {
		if w, ok := buffers[n.ID]; ok {
			arrival += rs*cp + rs/w*capSeen[n.ID]
		}
		if n.SinkCap > 0 {
			if s := n.SinkRAT - arrival; s < worst {
				worst = s
			}
			return
		}
		for _, c := range n.Children {
			// Edge delay: R·(C/2 + load beyond the edge).
			load := c.EdgeC/2 + loadAfterEdge(c, buffers, co)
			walk(c, arrival+c.EdgeR*load)
		}
	}
	driverDelay := rs*cp + rs/driverWidth*rootLoad
	walk(t.Root, driverDelay)
	return worst, nil
}

// loadAfterEdge returns the capacitance at the near side of node n: its
// buffer input cap when buffered, otherwise its full downstream cap.
func loadAfterEdge(n *Node, buffers map[int]float64, co float64) float64 {
	if w, ok := buffers[n.ID]; ok {
		return co * w
	}
	sum := n.SinkCap
	for _, c := range n.Children {
		sum += c.EdgeC + loadAfterEdge(c, buffers, co)
	}
	return sum
}

// Clone deep-copies the tree (used by generators and tests).
func (t *Tree) Clone() *Tree {
	var cp func(n *Node) *Node
	cp = func(n *Node) *Node {
		c := &Node{ID: n.ID, EdgeR: n.EdgeR, EdgeC: n.EdgeC, SinkCap: n.SinkCap, SinkRAT: n.SinkRAT, BufferSite: n.BufferSite}
		for _, ch := range n.Children {
			c.Children = append(c.Children, cp(ch))
		}
		return c
	}
	out, err := New(cp(t.Root))
	if err != nil {
		panic("tree: clone of a valid tree failed: " + err.Error())
	}
	return out
}

// CloneWithRAT deep-copies the tree with every sink's required arrival
// time replaced by rat (seconds). It is how uniform deadlines are applied
// without mutating a shared tree: the engine resolves a job's timing
// budget onto a private clone so concurrent jobs on one tree never race.
func (t *Tree) CloneWithRAT(rat float64) *Tree {
	c := t.Clone()
	for _, n := range c.nodes {
		if n.SinkCap > 0 {
			n.SinkRAT = rat
		}
	}
	return c
}

// HasDeadlines reports whether every sink carries a positive required
// arrival time — the condition for solving the tree against its embedded
// deadlines rather than a uniform target.
func (t *Tree) HasDeadlines() bool {
	for _, n := range t.nodes {
		if n.SinkCap > 0 && !(n.SinkRAT > 0) {
			return false
		}
	}
	return true
}

// sortedIDs returns the tree's node IDs ascending (deterministic output
// for reports).
func (t *Tree) sortedIDs() []int {
	ids := make([]int, 0, len(t.nodes))
	for _, n := range t.nodes {
		ids = append(ids, n.ID)
	}
	sort.Ints(ids)
	return ids
}
