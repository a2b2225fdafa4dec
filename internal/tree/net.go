package tree

import (
	"encoding/json"
	"errors"
	"fmt"

	"github.com/rip-eda/rip/internal/jsonscan"
	"github.com/rip-eda/rip/internal/units"
)

// Net is a tree workload instance: a named RC tree plus the width of the
// driver at its root — the multi-pin counterpart of wire.Net, and the
// unit the batch engine, the JSON wire format and the CLI move around.
// Timing comes either from a job-level uniform target (applied to every
// sink) or from the per-sink required arrival times embedded in the tree.
type Net struct {
	// Name identifies the net in reports.
	Name string
	// Tree is the routed RC tree.
	Tree *Tree
	// DriverWidth is the root driver size in units of u.
	DriverWidth float64
}

// Validate checks the net for structural sanity.
func (n *Net) Validate() error {
	if n == nil {
		return errors.New("tree: nil net")
	}
	if n.Tree == nil {
		return fmt.Errorf("tree: net %q has no tree", n.Name)
	}
	if !(n.DriverWidth > 0) {
		return fmt.Errorf("tree: net %q needs a positive driver width, got %g", n.Name, n.DriverWidth)
	}
	return nil
}

// HasDeadlines reports whether the net can be solved against embedded
// per-sink deadlines (every sink carries a positive RAT).
func (n *Net) HasDeadlines() bool { return n.Tree != nil && n.Tree.HasDeadlines() }

// NetJSON is the on-disk form of a tree Net: a flat node list linked
// by parent IDs, in the paper's unit conventions — edge resistance in Ω,
// capacitances in fF, times in ns, widths in multiples of u. The root is
// the one node without a parent. Nodes may appear in any order; siblings
// keep their listed order. It is a plain struct, so a decoder that holds
// a tree inside a larger document (the api package's request wrapper)
// fills it in the same pass as the rest and then calls Net, the one
// conversion to a validated Net.
type NetJSON struct {
	Name        string         `json:"name"`
	DriverWidth float64        `json:"driver_width_u"`
	Nodes       []treeNodeJSON `json:"nodes"`
}

type treeNodeJSON struct {
	ID int `json:"id"`
	// Parent is the parent node's ID; nil marks the root.
	Parent     *int    `json:"parent,omitempty"`
	EdgeROhm   float64 `json:"edge_r_ohm,omitempty"`
	EdgeCFF    float64 `json:"edge_c_ff,omitempty"`
	SinkCapFF  float64 `json:"sink_cap_ff,omitempty"`
	RATNS      float64 `json:"rat_ns,omitempty"`
	BufferSite bool    `json:"buffer_site,omitempty"`
}

// ScanField fills the member of a tree net object named key from s, for
// a decoder that reads this form in one pass without reflection (see
// package jsonscan). It reports false, declining the body to
// encoding/json, on a key this form does not have or a value outside
// the scanner's subset.
func (j *NetJSON) ScanField(s *jsonscan.Scanner, key []byte) bool {
	var ok bool
	switch string(key) {
	case "name":
		j.Name, ok = s.Str()
	case "driver_width_u":
		j.DriverWidth, ok = s.Float()
	case "nodes":
		// Nodes fill a stack buffer and are copied out once, sized.
		var buf [32]treeNodeJSON
		nodes := buf[:0]
		ok = s.Array(func(s *jsonscan.Scanner) bool {
			nodes = append(nodes, treeNodeJSON{})
			return s.Object(nodes[len(nodes)-1].scanField)
		})
		j.Nodes = append(make([]treeNodeJSON, 0, len(nodes)), nodes...)
	}
	return ok
}

func (nj *treeNodeJSON) scanField(s *jsonscan.Scanner, key []byte) bool {
	var ok bool
	switch string(key) {
	case "id":
		nj.ID, ok = s.Int()
	case "parent":
		nj.Parent = new(int)
		*nj.Parent, ok = s.Int()
	case "edge_r_ohm":
		nj.EdgeROhm, ok = s.Float()
	case "edge_c_ff":
		nj.EdgeCFF, ok = s.Float()
	case "sink_cap_ff":
		nj.SinkCapFF, ok = s.Float()
	case "rat_ns":
		nj.RATNS, ok = s.Float()
	case "buffer_site":
		nj.BufferSite, ok = s.Bool()
	}
	return ok
}

// MarshalJSON implements json.Marshaler; nodes are emitted in the tree's
// pre-order walk with parent links, so a round trip preserves sibling
// order (and therefore solver determinism).
func (n *Net) MarshalJSON() ([]byte, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	j := NetJSON{Name: n.Name, DriverWidth: n.DriverWidth}
	for i, node := range n.Tree.nodes {
		nj := treeNodeJSON{
			ID:         node.ID,
			EdgeROhm:   node.EdgeR,
			EdgeCFF:    node.EdgeC / units.FemtoFarad,
			SinkCapFF:  node.SinkCap / units.FemtoFarad,
			RATNS:      node.SinkRAT / units.NanoSecond,
			BufferSite: node.BufferSite,
		}
		if p := n.Tree.parents[i]; p >= 0 {
			pid := n.Tree.nodes[p].ID
			nj.Parent = &pid
		}
		j.Nodes = append(j.Nodes, nj)
	}
	return json.Marshal(j)
}

// UnmarshalJSON implements json.Unmarshaler; see MarshalJSON for units
// and NetJSON.Net for the checks.
func (n *Net) UnmarshalJSON(data []byte) error {
	var j NetJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return fmt.Errorf("tree: decoding net: %w", err)
	}
	net, err := j.Net()
	if err != nil {
		return err
	}
	*n = *net
	return nil
}

// Net converts the on-disk form to SI units and builds the validated Net.
// The rebuilt tree is validated through New, so a decoded Net carries the
// same structural guarantees as a programmatically built one.
func (j *NetJSON) Net() (*Net, error) {
	if len(j.Nodes) == 0 {
		return nil, fmt.Errorf("tree: net %q has no nodes", j.Name)
	}
	byID := make(map[int]*Node, len(j.Nodes))
	nodes := make([]Node, len(j.Nodes))
	for i, nj := range j.Nodes {
		if _, dup := byID[nj.ID]; dup {
			return nil, fmt.Errorf("tree: net %q: duplicate node id %d", j.Name, nj.ID)
		}
		byID[nj.ID] = &nodes[i]
		nodes[i] = Node{
			ID:         nj.ID,
			EdgeR:      nj.EdgeROhm,
			EdgeC:      nj.EdgeCFF * units.FemtoFarad,
			SinkCap:    nj.SinkCapFF * units.FemtoFarad,
			SinkRAT:    nj.RATNS * units.NanoSecond,
			BufferSite: nj.BufferSite,
		}
	}
	var root *Node
	for _, nj := range j.Nodes {
		node := byID[nj.ID]
		if nj.Parent == nil {
			if root != nil {
				return nil, fmt.Errorf("tree: net %q: nodes %d and %d both lack a parent", j.Name, root.ID, nj.ID)
			}
			root = node
			continue
		}
		parent, ok := byID[*nj.Parent]
		if !ok {
			return nil, fmt.Errorf("tree: net %q: node %d references unknown parent %d", j.Name, nj.ID, *nj.Parent)
		}
		if parent == node {
			return nil, fmt.Errorf("tree: net %q: node %d is its own parent", j.Name, nj.ID)
		}
		parent.Children = append(parent.Children, node)
	}
	if root == nil {
		return nil, fmt.Errorf("tree: net %q has no root (every node has a parent)", j.Name)
	}
	t, err := New(root)
	if err != nil {
		return nil, fmt.Errorf("tree: net %q: %w", j.Name, err)
	}
	if t.NumNodes() != len(j.Nodes) {
		return nil, fmt.Errorf("tree: net %q: %d of %d nodes unreachable from root %d (parent cycle)",
			j.Name, len(j.Nodes)-t.NumNodes(), len(j.Nodes), root.ID)
	}
	n := &Net{Name: j.Name, Tree: t, DriverWidth: j.DriverWidth}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}
