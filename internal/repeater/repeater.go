// Package repeater models discrete repeaters and repeater libraries.
//
// A repeater's width is expressed in multiples of the minimal legal width u
// (the paper's unit). Its electrical view under the switch-level RC model of
// the paper's Figure 2 is: output resistance Rs/w, input capacitance Co·w
// and output parasitic capacitance Cp·w, where (Rs, Co, Cp) come from the
// technology node.
//
// A Library is a sorted set of allowed widths. The paper uses three kinds:
// coarse uniform libraries for the first DP pass (80u granularity, 5
// entries), uniform baseline libraries for the DP comparison (size 10,
// minimum 10u, granularity g), and concise libraries synthesized from the
// analytical REFINE solution by rounding each continuous width to a 10u
// grid.
package repeater

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Library is an immutable, sorted, deduplicated set of allowed repeater
// widths in units of u. Construct with one of the constructors; the zero
// value is an empty library.
type Library struct {
	widths []float64
}

// NewLibrary builds a library from the given widths, sorting and removing
// duplicates. All widths must be positive.
func NewLibrary(widths []float64) (Library, error) {
	if len(widths) == 0 {
		return Library{}, errors.New("repeater: empty library")
	}
	ws := append([]float64(nil), widths...)
	slices.Sort(ws)
	out := ws[:0]
	prev := math.Inf(-1)
	for _, w := range ws {
		if !(w > 0) || math.IsInf(w, 0) || math.IsNaN(w) {
			return Library{}, fmt.Errorf("repeater: invalid width %g", w)
		}
		if w != prev {
			out = append(out, w)
			prev = w
		}
	}
	return Library{widths: out}, nil
}

// Uniform builds the library {min, min+step, ..., min+(count-1)·step}.
// This is the paper's baseline construction: e.g. Uniform(10, g, 10) is the
// DP comparison library of Table 1 and Uniform(80, 80, 5) the coarse
// library RIP starts from.
func Uniform(min, step float64, count int) (Library, error) {
	if count <= 0 {
		return Library{}, fmt.Errorf("repeater: count must be positive, got %d", count)
	}
	if !(min > 0) || !(step > 0) {
		return Library{}, fmt.Errorf("repeater: min and step must be positive, got %g, %g", min, step)
	}
	ws := make([]float64, count)
	for i := range ws {
		ws[i] = min + float64(i)*step
	}
	return NewLibrary(ws)
}

// Range builds the library {min, min+step, ...} capped at max (inclusive
// within floating-point slack). This is Table 2's construction: a fixed
// width range (10u, 400u) swept over granularities gDP.
func Range(min, max, step float64) (Library, error) {
	if !(min > 0) || !(step > 0) || max < min {
		return Library{}, fmt.Errorf("repeater: invalid range [%g, %g] step %g", min, max, step)
	}
	var ws []float64
	for w := min; w <= max+step*1e-9; w += step {
		ws = append(ws, w)
	}
	return NewLibrary(ws)
}

// Concise builds the library the RIP hybrid feeds to its final DP pass:
// each continuous width from REFINE is snapped to the enclosing multiples
// of granularity — both the floor and the ceiling neighbor — clamped into
// [minW, maxW], and the results deduplicated (paper §6: granularity 10u).
//
// Including both grid neighbors (rather than only the nearest, which can
// round a width *down*) guarantees the fine DP always has a width
// combination at least as fast as the analytical solution available, so
// rounding alone can never turn a feasible REFINE result infeasible. The
// clamp keeps the synthesized library inside the legal discrete width
// range even when REFINE's continuous optimum strays outside it.
func Concise(continuous []float64, granularity, minW, maxW float64) (Library, error) {
	if len(continuous) == 0 {
		return Library{}, errors.New("repeater: no continuous widths to round")
	}
	if !(granularity > 0) {
		return Library{}, fmt.Errorf("repeater: granularity must be positive, got %g", granularity)
	}
	clamp := func(r float64) float64 {
		if r < minW {
			r = minW
		}
		if maxW > 0 && r > maxW {
			r = maxW
		}
		if !(r > 0) {
			r = granularity
		}
		return r
	}
	ws := make([]float64, 0, 2*len(continuous))
	for _, w := range continuous {
		ws = append(ws,
			clamp(math.Floor(w/granularity)*granularity),
			clamp(math.Ceil(w/granularity)*granularity))
	}
	return NewLibrary(ws)
}

// Widths returns a copy of the sorted width list.
func (l Library) Widths() []float64 { return append([]float64(nil), l.widths...) }

// AppendWidths appends the sorted width list to dst and returns the
// extended slice. Hot callers (the DP solver) use it to read the library
// into reusable scratch without the copy Widths makes.
func (l Library) AppendWidths(dst []float64) []float64 { return append(dst, l.widths...) }

// Size returns the number of distinct widths.
func (l Library) Size() int { return len(l.widths) }

// Min returns the smallest width. It panics on an empty library.
func (l Library) Min() float64 { return l.widths[0] }

// Max returns the largest width. It panics on an empty library.
func (l Library) Max() float64 { return l.widths[len(l.widths)-1] }

// LatticeMaxWidth bounds the widths LatticeStep accepts. A DP option's
// width is a sum of fewer than 2³¹ library widths (line levels and tree
// nodes are int32-indexed), so every such sum stays below 2⁵² and is
// exact in float64.
const LatticeMaxWidth = 1 << 21

// LatticeStep returns the library's width lattice step: the gcd of its
// widths when every one is an integer in [1, LatticeMaxWidth], and 0 (no
// lattice) otherwise. Every sum of library widths is an exact multiple
// of the step, so the DP indexes accumulated widths by (w − lo)/step.
func (l Library) LatticeStep() float64 {
	g := 0
	for _, w := range l.widths {
		if !(w >= 1 && w <= LatticeMaxWidth) || w != math.Trunc(w) {
			return 0
		}
		for a := int(w); a != 0; {
			g, a = a, g%a
		}
	}
	return float64(g)
}

// Round returns the library width nearest to w (ties go down, matching
// sort order stability).
func (l Library) Round(w float64) float64 {
	i, _ := slices.BinarySearch(l.widths, w)
	if i == 0 {
		return l.widths[0]
	}
	if i == len(l.widths) {
		return l.widths[len(l.widths)-1]
	}
	if w-l.widths[i-1] <= l.widths[i]-w {
		return l.widths[i-1]
	}
	return l.widths[i]
}

// Contains reports whether w is (within floating-point slack) a library
// width.
func (l Library) Contains(w float64) bool {
	i, _ := slices.BinarySearch(l.widths, w)
	const eps = 1e-9
	if i < len(l.widths) && math.Abs(l.widths[i]-w) <= eps*math.Max(1, w) {
		return true
	}
	if i > 0 && math.Abs(l.widths[i-1]-w) <= eps*math.Max(1, w) {
		return true
	}
	return false
}

// String renders the library compactly, e.g. "{80u,160u,240u,320u,400u}".
func (l Library) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, w := range l.widths {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%gu", w)
	}
	b.WriteByte('}')
	return b.String()
}
