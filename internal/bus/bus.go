// Package bus is the decision algebra of joint neighbor-aware bus
// optimization: given a group of parallel tracks and, per track, the
// minimum repeater width the per-net DP needs at every effective Miller
// factor the group can produce, it co-decides one countermeasure per
// track — plain, staggered or shielded — so the scenario each track is
// priced under is the one its actual neighbors produce.
//
// The neighbor model (LiuPP05's hybrid-scheme idea lifted from intervals
// to tracks):
//
//   - A plain neighbor (or the bus edge, where the wiring beyond is
//     unknown) switches adversarially: that side is priced at MillerMax.
//   - A shielded track routes a grounded shield that its two victims
//     share: each adjacent track sees a quiet side (factor 1), and the
//     shield's area is paid once, by the shielded track.
//   - Staggering pays off only when it alternates consistently: staggered
//     tracks take a half-stage offset by track parity, so any two
//     ADJACENT staggered tracks are offset from each other and that side
//     is priced at MillerMax/2. A staggered track facing a plain
//     neighbor is conservatively priced at MillerMax on that side (only
//     within a staggered run is the offset guaranteed).
//   - A shielded track itself is priced at factor 0 (the shield kills its
//     coupling, matching the per-interval shielded scheme) plus its
//     shield area.
//
// A track's effective factor is the mean of its two side factors — the
// coupling density is the total over both sides, and the delay model is
// linear in the factor. That yields at most seven distinct factors per
// technology (MFValues), so the whole group reduces to a small outcome
// table: engine solves one front per (track shape, factor) and this
// package runs pure arithmetic over the table — a chain DP that is exact
// because each track's cost depends only on its own and its two
// neighbors' decisions.
//
// The package deliberately imports nothing from the engine: it sees only
// width numbers, so the engine layer owns all solving and caching.
package bus

import "math"

// Decision is one track's co-decided countermeasure. The values match
// the delay package's per-interval scheme constants.
type Decision uint8

const (
	// Plain deploys no countermeasure.
	Plain Decision = iota
	// Staggered offsets the track's repeaters by half a stage, phased by
	// track parity so adjacent staggered tracks alternate consistently.
	Staggered
	// Shielded routes a grounded track alongside, killing the track's own
	// coupling and quieting one side of each adjacent victim, at an area
	// price of Table.ShieldCost.
	Shielded
)

// String returns the wire name of the decision.
func (d Decision) String() string {
	switch d {
	case Staggered:
		return "staggered"
	case Shielded:
		return "shielded"
	}
	return "plain"
}

// Table is one track's outcome table: the minimum total repeater width
// the track's budget admits at every effective Miller factor the group
// can produce (math.Inf(1) marks an infeasible factor), plus the area
// price of shielding the track. The engine fills it from cached front
// solves; this package only reads it.
type Table struct {
	// Width maps an effective Miller factor (a MFValues entry) to the
	// track's minimum total repeater width at its budget.
	Width map[float64]float64
	// ShieldCost is the track's shield area in width units
	// (ShieldUPerM · length), paid when the track's decision is Shielded.
	ShieldCost float64
}

// Cost orders assignments: fewer infeasible tracks always wins, then
// lower total width. Representing infeasibility as a count instead of an
// infinite width keeps "make one more track feasible" strictly better
// than any width trade.
type Cost struct {
	// Infeasible counts tracks whose budget the assignment cannot meet.
	Infeasible int
	// Width is the summed width objective of the feasible tracks,
	// including shield areas.
	Width float64
}

// Less reports whether c is strictly better than o.
func (c Cost) Less(o Cost) bool {
	if c.Infeasible != o.Infeasible {
		return c.Infeasible < o.Infeasible
	}
	return c.Width < o.Width
}

// add folds one track's width (possibly +Inf) into the cost.
func (c Cost) add(w float64) Cost {
	if math.IsInf(w, 1) {
		c.Infeasible++
		return c
	}
	c.Width += w
	return c
}

// MFValues lists, sorted ascending, every effective Miller factor a
// track of a bus can be priced under when the plain-side factor is mm
// (the technology's MillerMax): 0 for shielded tracks, and the mean of
// two side factors drawn from {1, mm/2, mm} otherwise.
func MFValues(mm float64) []float64 {
	sides := []float64{1, mm / 2, mm}
	seen := map[float64]bool{0: true}
	out := []float64{0}
	for i, a := range sides {
		for _, b := range sides[i:] {
			f := (a + b) / 2
			if !seen[f] {
				seen[f] = true
				out = append(out, f)
			}
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 1 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// MFFor returns the effective Miller factor of a track deciding cur
// between neighbors deciding left and right. Bus edges are priced as
// Plain neighbors — pass Plain for a missing neighbor.
func MFFor(mm float64, cur, left, right Decision) float64 {
	if cur == Shielded {
		return 0
	}
	side := func(n Decision) float64 {
		switch {
		case n == Shielded:
			return 1
		case n == Staggered && cur == Staggered:
			return mm / 2
		}
		return mm
	}
	return (side(left) + side(right)) / 2
}

// trackWidth is one track's width objective under the decision triple:
// its table width at the effective factor, plus the shield area when the
// track itself shields.
func trackWidth(t Table, mm float64, left, cur, right Decision) float64 {
	w := t.Width[MFFor(mm, cur, left, right)]
	if cur == Shielded {
		w += t.ShieldCost
	}
	return w
}

// Total prices a whole assignment. len(d) must equal len(tables).
func Total(mm float64, tables []Table, d []Decision) Cost {
	var c Cost
	for i, t := range tables {
		c = c.add(trackWidth(t, mm, neighbor(d, i-1), d[i], neighbor(d, i+1)))
	}
	return c
}

// neighbor reads a decision with bus edges rendered as Plain.
func neighbor(d []Decision, i int) Decision {
	if i < 0 || i >= len(d) {
		return Plain
	}
	return d[i]
}

// decisions is the candidate order everywhere — ties prefer the cheaper
// discipline (plain needs no coordination, staggering no area, shielding
// both).
var decisions = [...]Decision{Plain, Staggered, Shielded}

// SolveExact minimizes Total over all 3^n assignments by a chain
// dynamic program over (previous, current) decision pairs — exact for
// any group size because a track's cost depends only on its own and its
// two neighbors' decisions. Ties resolve to the first optimum in
// Plain < Staggered < Shielded order with the tracks read from the last
// one to the first: the last track's decision is the smallest any
// optimum allows, then the one before it, and so on. That makes the
// result deterministic and the all-plain assignment the winner whenever
// coordination cannot strictly improve on it.
func SolveExact(mm float64, tables []Table) ([]Decision, Cost) {
	n := len(tables)
	if n == 0 {
		return nil, Cost{}
	}
	// cur[b][c]: best cost of tracks 0..i given d[i]=b, d[i+1]=c (the
	// lookahead the next track's cost needs; c is pinned to the Plain
	// edge at i = n-1). parents[i][b][c] backtracks d[i-1].
	var cur [3][3]Cost
	var alive [3][3]bool
	for _, b := range decisions {
		for _, c := range decisions {
			cur[b][c] = Cost{}.add(trackWidth(tables[0], mm, Plain, b, c))
			alive[b][c] = true
		}
	}
	parents := make([][3][3]Decision, n)
	for i := 1; i < n; i++ {
		var nxt [3][3]Cost
		var nxtAlive [3][3]bool
		for _, b := range decisions { // d[i]
			for _, c := range decisions { // d[i+1] (Plain edge at the last track)
				if i == n-1 && c != Plain {
					continue
				}
				for _, a := range decisions { // d[i-1]
					if !alive[a][b] {
						continue
					}
					cand := cur[a][b].add(trackWidth(tables[i], mm, a, b, c))
					if !nxtAlive[b][c] || cand.Less(nxt[b][c]) {
						nxt[b][c] = cand
						nxtAlive[b][c] = true
						parents[i][b][c] = a
					}
				}
			}
		}
		cur, alive = nxt, nxtAlive
	}
	bestB, bestC, have := Plain, Cost{}, false
	for _, b := range decisions {
		if alive[b][Plain] && (!have || cur[b][Plain].Less(bestC)) {
			bestB, bestC, have = b, cur[b][Plain], true
		}
	}
	out := make([]Decision, n)
	out[n-1] = bestB
	c := Plain
	for i := n - 1; i >= 1; i-- {
		out[i-1] = parents[i][out[i]][c]
		c = out[i]
	}
	return out, bestC
}
