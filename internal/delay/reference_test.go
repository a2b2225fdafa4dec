package delay

// This file preserves the CoupledTotal walk that re-integrated the line
// on every interval, verbatim, as the reference the table walk
// (NewStages + CoupledStages) is differenced against. The differential
// tests require bit-identical delays and the same errors.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/rip-eda/rip/internal/netgen"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/units"
)

// coupledTotalReference is the old Evaluator.CoupledTotal.
func (e *Evaluator) coupledTotalReference(points []float64, schemes []uint8, cpl *Coupling, a Assignment) (float64, error) {
	if cpl == nil {
		return 0, fmt.Errorf("delay: CoupledTotal needs a coupling scenario")
	}
	if len(schemes) != len(points)-1 {
		return 0, fmt.Errorf("delay: %d schemes for %d grid intervals", len(schemes), len(points)-1)
	}
	t := e.Tech
	ri := a.N() - 1
	c := t.Co * e.Wr
	d := 0.0
	for i := len(schemes) - 1; i >= 0; i-- {
		lo, hi := points[i], points[i+1]
		s := schemes[i]
		if s >= uint8(len(cpl.MF)) {
			return 0, fmt.Errorf("delay: invalid scheme %d at interval %d", s, i)
		}
		mf := cpl.MF[s]
		d += e.Line.R(lo, hi)*c + e.Line.M(lo, hi) + mf*e.Line.Mc(lo, hi)
		c += e.Line.C(lo, hi) + mf*e.Line.Cc(lo, hi)
		if i > 0 && ri >= 0 && a.Positions[ri] == points[i] {
			w := a.Widths[ri]
			d += t.Rs*t.Cp + t.Rs/w*c
			c = t.Co * w
			ri--
		}
	}
	if ri >= 0 {
		return 0, fmt.Errorf("delay: repeater at %g is not on the candidate grid", a.Positions[ri])
	}
	d += t.Rs*t.Cp + t.Rs/e.Wd*c
	return d, nil
}

// builtinNodes are the four built-in technology nodes.
func builtinNodes() []*tech.Technology {
	return []*tech.Technology{tech.T180(), tech.T130(), tech.T90(), tech.T65()}
}

// walkScenarios is every named (aggressor, mode) scenario on tc, plus
// explicit factors at both ends of its range and one inside it.
func walkScenarios(tb testing.TB, tc *tech.Technology) []*Coupling {
	tb.Helper()
	var out []*Coupling
	for _, agg := range []Aggressor{AggressorWorst, AggressorBest, AggressorQuiet} {
		for _, mode := range []SchemeMode{SchemePlainOnly, SchemeModeStaggered, SchemeModeShielded, SchemeModeAuto} {
			cpl, err := NewCoupling(tc, agg, mode)
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, cpl)
		}
	}
	for _, mf := range []float64{0, 0.37 * tc.MillerMax, tc.MillerMax} {
		cpl, err := NewCouplingFactor(tc, mf)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, cpl)
	}
	return out
}

// walkCase draws one coupled walk on a netgen line of tc: the line's
// 200 µm candidate grid, a repeater at each interior grid point with
// probability density (one of them moved off the grid with probability
// offGrid), and a scheme per interval, occasionally out of range.
func walkCase(tb testing.TB, rng *rand.Rand, tc *tech.Technology, density, offGrid float64) (*Evaluator, []float64, []uint8, Assignment) {
	tb.Helper()
	cfg, err := netgen.DefaultConfig(tc)
	if err != nil {
		tb.Fatal(err)
	}
	cfg.MinSegments, cfg.MaxSegments = 1, 6
	net, err := netgen.Generate(rng, cfg, "walk")
	if err != nil {
		tb.Fatal(err)
	}
	ev, err := NewEvaluator(net, tc)
	if err != nil {
		tb.Fatal(err)
	}
	grid := net.Line.AppendLegalPositions([]float64{0}, 200*units.Micron)
	grid = append(grid, net.Line.Length())
	var a Assignment
	for _, x := range grid[1 : len(grid)-1] {
		if rng.Float64() < density {
			a.Positions = append(a.Positions, x)
			a.Widths = append(a.Widths, 10+390*rng.Float64())
		}
	}
	if a.N() > 0 && rng.Float64() < offGrid {
		i := rng.Intn(a.N())
		a.Positions[i] = math.Nextafter(a.Positions[i], 0)
	}
	schemes := make([]uint8, len(grid)-1)
	for i := range schemes {
		schemes[i] = uint8(rng.Intn(3))
		if rng.Intn(500) == 0 {
			schemes[i] = 3
		}
	}
	return ev, grid, schemes, a
}

// sameWalk requires the table walk to reproduce the reference: the same
// error text, or bit-identical delays.
func sameWalk(tb testing.TB, name string, ev *Evaluator, grid []float64, schemes []uint8, cpl *Coupling, a Assignment) {
	tb.Helper()
	want, werr := ev.coupledTotalReference(grid, schemes, cpl, a)
	for _, walk := range []struct {
		how string
		run func() (float64, error)
	}{
		{"CoupledStages", func() (float64, error) { return ev.CoupledStages(ev.NewStages(grid), schemes, cpl, a) }},
		{"CoupledTotal", func() (float64, error) { return ev.CoupledTotal(grid, schemes, cpl, a) }},
	} {
		got, gerr := walk.run()
		switch {
		case (gerr == nil) != (werr == nil):
			tb.Fatalf("%s: %s error %v, reference %v", name, walk.how, gerr, werr)
		case gerr != nil && gerr.Error() != werr.Error():
			tb.Fatalf("%s: %s error %q, reference %q", name, walk.how, gerr, werr)
		case math.Float64bits(got) != math.Float64bits(want):
			tb.Fatalf("%s: %s delay %.17g, reference %.17g", name, walk.how, got, want)
		}
	}
}

// TestStagesMatchCoupledTotal differences the table walk against the
// preserved reference on netgen lines on all four nodes, under every
// named scenario and explicit factors, with random on-grid assignments
// and scheme vectors (plus the off-grid, bad-scheme and length-mismatch
// error paths).
func TestStagesMatchCoupledTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, tc := range builtinNodes() {
		scens := walkScenarios(t, tc)
		for trial := 0; trial < 40; trial++ {
			ev, grid, schemes, a := walkCase(t, rng, tc, rng.Float64(), 0.1)
			for si, cpl := range scens {
				sameWalk(t, fmt.Sprintf("%s trial %d scenario %d", tc.Name, trial, si), ev, grid, schemes, cpl, a)
			}
			sameWalk(t, tc.Name+" nil scenario", ev, grid, schemes, nil, a)
			sameWalk(t, tc.Name+" short scheme vector", ev, grid, schemes[1:], scens[0], a)
		}
	}
}

// FuzzCoupledStages is TestStagesMatchCoupledTotal over fuzzed draws.
func FuzzCoupledStages(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(128), false)
	f.Add(int64(2), uint8(3), uint8(1), uint8(255), true)
	f.Add(int64(3), uint8(1), uint8(14), uint8(0), false)
	f.Fuzz(func(t *testing.T, seed int64, node, scen, density uint8, offGrid bool) {
		nodes := builtinNodes()
		tc := nodes[int(node)%len(nodes)]
		scens := walkScenarios(t, tc)
		cpl := scens[int(scen)%len(scens)]
		off := 0.0
		if offGrid {
			off = 1
		}
		ev, grid, schemes, a := walkCase(t, rand.New(rand.NewSource(seed)), tc, float64(density)/255, off)
		sameWalk(t, "fuzz", ev, grid, schemes, cpl, a)
	})
}
