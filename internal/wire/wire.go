// Package wire models the multi-layer two-pin interconnect of the RIP paper
// (Fig. 1): an ordered chain of wire segments, each with a fixed length and
// its own per-unit-length RC as produced by routing, plus forbidden zones —
// stretches under macro blocks where no repeater may be placed.
//
// # Delay model equivalence
//
// The paper evaluates each repeater stage with per-segment lumped-π models
// (Eq. 1). This package instead evaluates intervals with the distributed
// closed form
//
//	τ(a,b | CL) = R(a,b)·CL + M(a,b),   M(a,b) = ∫ₐᵇ r(x)·C(x,b) dx,
//
// which for piecewise-constant densities expands to exactly the double sum
// of Eq. (1): Σⱼ rⱼlⱼ(cⱼlⱼ/2 + Σ_{h>j} c_h l_h). The two are identical for
// every interval, including intervals that split a segment — which is what
// lets candidate repeater locations sit anywhere on the line without
// re-deriving π models.
package wire

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Segment is one routed wire piece with homogeneous RC density.
// All quantities are SI: meters, Ω/m, F/m.
type Segment struct {
	// Length is the segment length in meters.
	Length float64
	// ROhmPerM is the resistance density in Ω/m.
	ROhmPerM float64
	// CFPerM is the ground capacitance density in F/m.
	CFPerM float64
	// CcFPerM is the neighbor coupling capacitance density in F/m (zero
	// when the segment has no coupling model). Coupling charge is scaled
	// by a Miller factor chosen per solve, so it is tracked separately
	// from CFPerM rather than folded in.
	CcFPerM float64
	// Layer names the routing layer the segment uses (informational).
	Layer string
}

// Zone is a forbidden interval (zs, ze) along the line: no repeater may be
// placed strictly inside it. Positions exactly on a zone boundary are legal
// (a repeater may abut a macro block).
type Zone struct {
	Start float64
	End   float64
}

// Contains reports whether x lies strictly inside the zone.
func (z Zone) Contains(x float64) bool { return x > z.Start && x < z.End }

// Length returns the zone extent in meters.
func (z Zone) Length() float64 { return z.End - z.Start }

// Line is an immutable two-pin interconnect: segments plus forbidden zones,
// with precomputed prefix tables for O(segment-span) interval queries.
// Construct with New; the zero value is unusable.
type Line struct {
	segs  []Segment
	zones []Zone
	// Prefix tables indexed by segment boundary: xb[i] is the position of
	// the left end of segment i (xb[m] is the total length); rb, cb and
	// ccb are the cumulative wire resistance, ground capacitance and
	// coupling capacitance up to xb[i].
	xb, rb, cb, ccb []float64
}

// New validates the segments and zones and builds a Line.
// Zones must be sorted, non-overlapping (sharing an endpoint is allowed)
// and contained in [0, total length].
func New(segs []Segment, zones []Zone) (*Line, error) {
	if len(segs) == 0 {
		return nil, errors.New("wire: a line needs at least one segment")
	}
	l := &Line{
		segs:  append([]Segment(nil), segs...),
		zones: append([]Zone(nil), zones...),
		xb:    make([]float64, len(segs)+1),
		rb:    make([]float64, len(segs)+1),
		cb:    make([]float64, len(segs)+1),
		ccb:   make([]float64, len(segs)+1),
	}
	for i, s := range l.segs {
		if !(s.Length > 0) {
			return nil, fmt.Errorf("wire: segment %d has non-positive length %g", i, s.Length)
		}
		if !(s.ROhmPerM > 0) || !(s.CFPerM > 0) {
			return nil, fmt.Errorf("wire: segment %d needs positive densities, got r=%g c=%g",
				i, s.ROhmPerM, s.CFPerM)
		}
		if !(s.CcFPerM >= 0) || math.IsInf(s.CcFPerM, 1) {
			return nil, fmt.Errorf("wire: segment %d coupling density must be non-negative and finite, got cc=%g",
				i, s.CcFPerM)
		}
		l.xb[i+1] = l.xb[i] + s.Length
		l.rb[i+1] = l.rb[i] + s.Length*s.ROhmPerM
		l.cb[i+1] = l.cb[i] + s.Length*s.CFPerM
		l.ccb[i+1] = l.ccb[i] + s.Length*s.CcFPerM
	}
	total := l.xb[len(segs)]
	for i, z := range l.zones {
		if !(z.End > z.Start) {
			return nil, fmt.Errorf("wire: zone %d is empty or inverted: [%g, %g]", i, z.Start, z.End)
		}
		if z.Start < 0 || z.End > total+1e-15 {
			return nil, fmt.Errorf("wire: zone %d [%g, %g] outside line [0, %g]", i, z.Start, z.End, total)
		}
		if i > 0 && z.Start < l.zones[i-1].End {
			return nil, fmt.Errorf("wire: zone %d overlaps zone %d", i, i-1)
		}
	}
	return l, nil
}

// Uniform builds a single-segment line of the given length and densities
// with no forbidden zones. It is a convenience for tests and examples.
func Uniform(length, rOhmPerM, cFPerM float64, layer string) (*Line, error) {
	return New([]Segment{{Length: length, ROhmPerM: rOhmPerM, CFPerM: cFPerM, Layer: layer}}, nil)
}

// Length returns the total line length in meters.
func (l *Line) Length() float64 { return l.xb[len(l.segs)] }

// NumSegments returns the number of routed segments.
func (l *Line) NumSegments() int { return len(l.segs) }

// Segments returns a copy of the segment list.
func (l *Line) Segments() []Segment { return append([]Segment(nil), l.segs...) }

// Zones returns a copy of the forbidden zones.
func (l *Line) Zones() []Zone { return append([]Zone(nil), l.zones...) }

// Segment returns segment i, for readers that walk the line without
// copying its segment list.
func (l *Line) Segment(i int) Segment { return l.segs[i] }

// NumZones returns the number of forbidden zones.
func (l *Line) NumZones() int { return len(l.zones) }

// Zone returns forbidden zone i.
func (l *Line) Zone(i int) Zone { return l.zones[i] }

// TotalR returns the total wire resistance in Ω.
func (l *Line) TotalR() float64 { return l.rb[len(l.segs)] }

// TotalC returns the total wire ground capacitance in F.
func (l *Line) TotalC() float64 { return l.cb[len(l.segs)] }

// TotalCc returns the total wire coupling capacitance in F.
func (l *Line) TotalCc() float64 { return l.ccb[len(l.segs)] }

// Coupled reports whether any segment carries coupling capacitance.
func (l *Line) Coupled() bool { return l.TotalCc() > 0 }

// SameBits reports whether l and o are one line bit for bit: the same
// segments and zones in the same order, every float equal in its bits and
// every layer name equal. Everything computed from a line, its prefix
// tables, delays and candidate positions, then agrees bit for bit too.
func (l *Line) SameBits(o *Line) bool {
	if l == o {
		return true
	}
	if len(l.segs) != len(o.segs) || len(l.zones) != len(o.zones) {
		return false
	}
	bits := math.Float64bits
	for i, s := range l.segs {
		t := o.segs[i]
		if bits(s.Length) != bits(t.Length) || bits(s.ROhmPerM) != bits(t.ROhmPerM) ||
			bits(s.CFPerM) != bits(t.CFPerM) || bits(s.CcFPerM) != bits(t.CcFPerM) || s.Layer != t.Layer {
			return false
		}
	}
	for i, z := range l.zones {
		if bits(z.Start) != bits(o.zones[i].Start) || bits(z.End) != bits(o.zones[i].End) {
			return false
		}
	}
	return true
}

// BitsHash hashes the bits of l's segment and zone floats: lines that are
// SameBits hash alike.
func (l *Line) BitsHash() uint64 {
	h := uint64(14695981039346656037) // FNV-1a, one 64-bit word at a time
	mix := func(x float64) { h = (h ^ math.Float64bits(x)) * 1099511628211 }
	for _, s := range l.segs {
		mix(s.Length)
		mix(s.ROhmPerM)
		mix(s.CFPerM)
		mix(s.CcFPerM)
	}
	for _, z := range l.zones {
		mix(z.Start)
		mix(z.End)
	}
	return h
}

// segIndex returns the index of the segment containing x, biased so that a
// position exactly on a boundary belongs to the segment on its right,
// except x == Length which belongs to the last segment.
func (l *Line) segIndex(x float64) int {
	n := len(l.segs)
	if x <= 0 {
		return 0
	}
	if x >= l.xb[n] {
		return n - 1
	}
	// First boundary ≥ x; exact boundary hits take the right segment.
	i := sort.SearchFloat64s(l.xb, x)
	if l.xb[i] == x {
		if i > n-1 {
			return n - 1
		}
		return i
	}
	return i - 1
}

// DensityLeft returns the (r, c) densities of the wire immediately to the
// left of x — the paper's r_{(i−1)k_{i−1}}, c_{(i−1)k_{i−1}} at a repeater
// input. x must be in (0, Length].
func (l *Line) DensityLeft(x float64) (r, c float64) {
	i := l.segIndex(x)
	// If x sits exactly on the left boundary of segment i, the wire to the
	// left belongs to segment i−1.
	if i > 0 && x <= l.xb[i] {
		i--
	}
	return l.segs[i].ROhmPerM, l.segs[i].CFPerM
}

// DensityRight returns the (r, c) densities of the wire immediately to the
// right of x — the paper's r_{i1}, c_{i1} at a repeater output.
// x must be in [0, Length).
func (l *Line) DensityRight(x float64) (r, c float64) {
	i := l.segIndex(x)
	return l.segs[i].ROhmPerM, l.segs[i].CFPerM
}

// rAt returns the cumulative wire resistance from 0 to x.
func (l *Line) rAt(x float64) float64 {
	i := l.segIndex(x)
	return l.rb[i] + (x-l.xb[i])*l.segs[i].ROhmPerM
}

// cAt returns the cumulative wire capacitance from 0 to x.
func (l *Line) cAt(x float64) float64 {
	i := l.segIndex(x)
	return l.cb[i] + (x-l.xb[i])*l.segs[i].CFPerM
}

// R returns the wire resistance of the interval [a, b] in Ω.
func (l *Line) R(a, b float64) float64 { return l.rAt(b) - l.rAt(a) }

// C returns the wire ground capacitance of the interval [a, b] in F.
func (l *Line) C(a, b float64) float64 { return l.cAt(b) - l.cAt(a) }

// ccAt returns the cumulative wire coupling capacitance from 0 to x.
func (l *Line) ccAt(x float64) float64 {
	i := l.segIndex(x)
	return l.ccb[i] + (x-l.xb[i])*l.segs[i].CcFPerM
}

// Cc returns the wire coupling capacitance of the interval [a, b] in F,
// before any Miller scaling.
func (l *Line) Cc(a, b float64) float64 { return l.ccAt(b) - l.ccAt(a) }

// M returns the distributed self-delay of the interval [a, b]:
// M(a,b) = ∫ₐᵇ r(x)·C(x,b) dx, the load-independent part of the interval's
// Elmore delay. For piecewise-constant densities this equals the π-model
// double sum of the paper's Eq. (1).
func (l *Line) M(a, b float64) float64 {
	if b <= a {
		return 0
	}
	ia, ib := l.segIndex(a), l.segIndex(b)
	m := 0.0
	cdown := 0.0 // capacitance from the current piece's right end to b
	// Walk segments from the one containing b backwards to the one
	// containing a, accumulating each homogeneous piece in closed form:
	// a piece of length d with densities (r, c) and downstream cap cdown
	// contributes r·(d·cdown + c·d²/2).
	for i := ib; i >= ia; i-- {
		lo := math.Max(a, l.xb[i])
		hi := math.Min(b, l.xb[i+1])
		d := hi - lo
		if d <= 0 {
			continue
		}
		s := l.segs[i]
		m += s.ROhmPerM * (d*cdown + s.CFPerM*d*d/2)
		cdown += s.CFPerM * d
	}
	return m
}

// Mc returns the coupling analogue of M for the interval [a, b]:
// Mc(a,b) = ∫ₐᵇ r(x)·Cc(x,b) dx, the distributed self-delay contributed by
// unscaled coupling capacitance. A solve under Miller factor MF sees the
// interval self-delay M(a,b) + MF·Mc(a,b) — the linearity that lets the DP
// precompute ground and coupling tables once and mix them per scheme.
func (l *Line) Mc(a, b float64) float64 {
	if b <= a {
		return 0
	}
	ia, ib := l.segIndex(a), l.segIndex(b)
	m := 0.0
	cdown := 0.0
	for i := ib; i >= ia; i-- {
		lo := math.Max(a, l.xb[i])
		hi := math.Min(b, l.xb[i+1])
		d := hi - lo
		if d <= 0 {
			continue
		}
		s := l.segs[i]
		m += s.ROhmPerM * (d*cdown + s.CcFPerM*d*d/2)
		cdown += s.CcFPerM * d
	}
	return m
}

// WireElmore returns the Elmore delay of the interval [a, b] driving the
// lumped load cl at b: R(a,b)·cl + M(a,b).
func (l *Line) WireElmore(a, b, cl float64) float64 {
	return l.R(a, b)*cl + l.M(a, b)
}

// Piece is a maximal homogeneous sub-interval of the line, produced by
// Pieces. Unlike Segment it is positioned (From/To) and may be a fragment
// of a routed segment.
type Piece struct {
	From, To float64
	ROhmPerM float64
	CFPerM   float64
}

// Length returns the piece length in meters.
func (p Piece) Length() float64 { return p.To - p.From }

// R returns the piece's total resistance in Ω.
func (p Piece) R() float64 { return p.Length() * p.ROhmPerM }

// C returns the piece's total capacitance in F.
func (p Piece) C() float64 { return p.Length() * p.CFPerM }

// Pieces decomposes the interval [a, b] into homogeneous pieces split at
// segment boundaries, in upstream-to-downstream order. Higher-order moment
// computations use this to build the lumped-π ladder of a repeater stage.
func (l *Line) Pieces(a, b float64) []Piece {
	if b <= a {
		return nil
	}
	ia, ib := l.segIndex(a), l.segIndex(b)
	out := make([]Piece, 0, ib-ia+1)
	for i := ia; i <= ib; i++ {
		lo := math.Max(a, l.xb[i])
		hi := math.Min(b, l.xb[i+1])
		if hi-lo <= 0 {
			continue
		}
		out = append(out, Piece{From: lo, To: hi, ROhmPerM: l.segs[i].ROhmPerM, CFPerM: l.segs[i].CFPerM})
	}
	return out
}

// InZone reports whether x lies strictly inside a forbidden zone.
func (l *Line) InZone(x float64) bool {
	_, ok := l.ZoneAt(x)
	return ok
}

// ZoneAt returns the forbidden zone strictly containing x, if any.
func (l *Line) ZoneAt(x float64) (Zone, bool) {
	// Zones are sorted; binary search the first zone ending after x.
	i := sort.Search(len(l.zones), func(i int) bool { return l.zones[i].End > x })
	if i < len(l.zones) && l.zones[i].Contains(x) {
		return l.zones[i], true
	}
	return Zone{}, false
}

// Legal reports whether a repeater may be placed at x: strictly inside the
// line and not strictly inside any forbidden zone.
func (l *Line) Legal(x float64) bool {
	return x > 0 && x < l.Length() && !l.InZone(x)
}

// LegalPositions returns the interior candidate positions {pitch, 2·pitch,
// ...} that are legal, the uniform candidate generation the paper uses for
// the DP baseline ("uniformly distributed along the interconnects with a
// granularity of 200 µm, excluding the forbidden zone").
func (l *Line) LegalPositions(pitch float64) []float64 {
	if !(pitch > 0) {
		return nil
	}
	return l.AppendLegalPositions(nil, pitch)
}

// AppendLegalPositions appends the same candidate positions LegalPositions
// returns to dst and returns the extended slice. Hot callers (the DP
// solver's scratch arenas) use it to generate candidates without a per-call
// allocation.
func (l *Line) AppendLegalPositions(dst []float64, pitch float64) []float64 {
	if !(pitch > 0) {
		return dst
	}
	total := l.Length()
	for x := pitch; x < total-pitch/1024; x += pitch {
		if l.Legal(x) {
			dst = append(dst, x)
		}
	}
	return dst
}
