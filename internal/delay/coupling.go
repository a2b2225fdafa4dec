package delay

import (
	"fmt"

	"github.com/rip-eda/rip/internal/tech"
)

// This file is the crosstalk-aware extension of the Elmore model. Wire
// capacitance splits into a ground component cg and a neighbor coupling
// component cc (wire.Segment.CcFPerM); the charge a switching victim must
// move through cc depends on what the neighbors do, modeled by a Miller
// factor MF so the effective density is cg + MF·cc. Everything downstream
// exploits that the model is LINEAR in MF: every interval quantity under
// factor MF is (ground part) + MF·(coupling part), so the DP precomputes
// the two parts once (StageRCM + StageCcMc) and mixes them per scheme.
//
// A solve picks one aggressor assumption for the whole net — the MF the
// plain (unprotected) wire sees — and may additionally allow per-interval
// countermeasure schemes:
//
//   - staggered: repeaters on neighbor tracks are offset by half a stage,
//     so a victim stage sees each aggressor switching in one direction for
//     half its length and the other direction for the other half; worst-
//     and best-case Miller factors average toward the quiet factor, which
//     bounds the effective factor by MillerMax/2 (Orion's staggering
//     model). Free: it is a placement discipline, not extra area.
//   - shielded: a grounded track is routed alongside the interval, which
//     drops coupling entirely (MF = 0) at an area price of
//     tech.ShieldUPerM · length, paid in the width objective.
//
// The scheme SETS form a lattice: every allowed set contains plain, and
// "auto" ⊇ "staggered"/"shielded" ⊇ "plain". A superset can only improve
// the optimum, which is what makes "staggered delay ≤ pessimistic delay"
// a structural property rather than a numeric accident.

// Scheme values identify the per-interval countermeasure a coupled DP
// solution chose. They are raw uint8 so dp can pack them into its arena.
const (
	SchemePlain     uint8 = 0
	SchemeStaggered uint8 = 1
	SchemeShielded  uint8 = 2
)

// SchemeName returns the wire name of a scheme value ("plain",
// "staggered", "shielded").
func SchemeName(s uint8) string {
	switch s {
	case SchemeStaggered:
		return "staggered"
	case SchemeShielded:
		return "shielded"
	}
	return "plain"
}

// Aggressor is the neighbor-switching assumption a coupled solve prices
// the plain (unprotected) wire under.
type Aggressor int

const (
	// AggressorNone disables the coupling model: the classic ground-only
	// solve, regardless of the technology's coupling fields.
	AggressorNone Aggressor = iota
	// AggressorWorst prices coupling at MillerMax (neighbors switching
	// opposite to the victim) — the pessimistic signoff assumption.
	AggressorWorst
	// AggressorBest prices coupling at MillerMin (neighbors switching
	// with the victim).
	AggressorBest
	// AggressorQuiet prices coupling at factor 1 (neighbors static).
	AggressorQuiet
)

// ParseAggressor maps the wire token to an Aggressor. "" and "none" are
// both the disabled model — "none" exists so forwarded jobs can state
// explicitly that the client asked for an uncoupled solve.
func ParseAggressor(s string) (Aggressor, error) {
	switch s {
	case "", "none":
		return AggressorNone, nil
	case "worst":
		return AggressorWorst, nil
	case "best":
		return AggressorBest, nil
	case "quiet":
		return AggressorQuiet, nil
	}
	return AggressorNone, fmt.Errorf(`delay: unknown aggressor %q (want "worst", "best", "quiet" or "none")`, s)
}

// String returns the wire token; AggressorNone renders as "none".
func (a Aggressor) String() string {
	switch a {
	case AggressorWorst:
		return "worst"
	case AggressorBest:
		return "best"
	case AggressorQuiet:
		return "quiet"
	}
	return "none"
}

// SchemeMode selects which countermeasure schemes a coupled solve may use
// per interval. Every mode includes plain.
type SchemeMode int

const (
	// SchemePlainOnly allows no countermeasures.
	SchemePlainOnly SchemeMode = iota
	// SchemeModeStaggered allows plain and staggered.
	SchemeModeStaggered
	// SchemeModeShielded allows plain and shielded.
	SchemeModeShielded
	// SchemeModeAuto allows all three.
	SchemeModeAuto
)

// ParseSchemeMode maps the wire token to a SchemeMode. "" means plain.
func ParseSchemeMode(s string) (SchemeMode, error) {
	switch s {
	case "", "plain":
		return SchemePlainOnly, nil
	case "staggered":
		return SchemeModeStaggered, nil
	case "shielded":
		return SchemeModeShielded, nil
	case "auto":
		return SchemeModeAuto, nil
	}
	return SchemePlainOnly, fmt.Errorf(`delay: unknown scheme %q (want "plain", "staggered", "shielded" or "auto")`, s)
}

// String returns the wire token; SchemePlainOnly renders as "plain".
func (m SchemeMode) String() string {
	switch m {
	case SchemeModeStaggered:
		return "staggered"
	case SchemeModeShielded:
		return "shielded"
	case SchemeModeAuto:
		return "auto"
	}
	return "plain"
}

// Coupling is one resolved crosstalk scenario: the per-scheme Miller
// factors and objective costs a solve prices intervals with. Construct
// with NewCoupling; treat as read-only and share freely.
type Coupling struct {
	// Aggressor and Mode echo the scenario for attribution.
	Aggressor Aggressor
	Mode      SchemeMode
	// MF[s] is the effective Miller factor of scheme s (indexed by the
	// Scheme* constants). MF[SchemeShielded] is always 0.
	MF [3]float64
	// CostUPerM[s] is the per-meter width-objective cost of scheme s;
	// only shielding is non-zero.
	CostUPerM [3]float64
	// Schemes lists the allowed schemes, SchemePlain first. Generation
	// order is part of the DP's determinism contract: plain-first makes
	// zero-coupling duplicate kills pick the plain option.
	Schemes []uint8
}

// NewCoupling resolves an (aggressor, mode) pair against a technology.
// It returns (nil, nil) for AggressorNone — the uncoupled model — and an
// error when the node has no coupling model (MillerMax == 0).
func NewCoupling(t *tech.Technology, agg Aggressor, mode SchemeMode) (*Coupling, error) {
	if agg == AggressorNone {
		return nil, nil
	}
	if !t.HasCoupling() {
		return nil, fmt.Errorf("delay: technology %s has no coupling model (MillerMax is 0)", t.Name)
	}
	mf := 1.0
	switch agg {
	case AggressorWorst:
		mf = t.MillerMax
	case AggressorBest:
		mf = t.MillerMin
	case AggressorQuiet:
		mf = 1
	default:
		return nil, fmt.Errorf("delay: invalid aggressor %d", agg)
	}
	c := &Coupling{Aggressor: agg, Mode: mode}
	c.MF[SchemePlain] = mf
	// Staggering bounds the factor by MillerMax/2 but never raises it
	// above the plain assumption (a best-case aggressor is already ≤ it).
	c.MF[SchemeStaggered] = mf
	if half := t.MillerMax / 2; half < mf {
		c.MF[SchemeStaggered] = half
	}
	c.MF[SchemeShielded] = 0
	c.CostUPerM[SchemeShielded] = t.ShieldUPerM
	c.Schemes = append(c.Schemes, SchemePlain)
	switch mode {
	case SchemePlainOnly:
	case SchemeModeStaggered:
		c.Schemes = append(c.Schemes, SchemeStaggered)
	case SchemeModeShielded:
		c.Schemes = append(c.Schemes, SchemeShielded)
	case SchemeModeAuto:
		c.Schemes = append(c.Schemes, SchemeStaggered, SchemeShielded)
	default:
		return nil, fmt.Errorf("delay: invalid scheme mode %d", mode)
	}
	return c, nil
}

// NewCouplingFactor resolves an explicit Miller factor against a
// technology: the plain wire is priced at exactly mf, with no
// countermeasure schemes allowed. Bus co-optimization uses it to price a
// track under the factor its actual neighbors produce (a blend of quiet
// and switching sides) rather than a named scenario. mf must be finite
// and within [0, MillerMax] — the physical range the node's coupling
// window spans.
func NewCouplingFactor(t *tech.Technology, mf float64) (*Coupling, error) {
	if !t.HasCoupling() {
		return nil, fmt.Errorf("delay: technology %s has no coupling model (MillerMax is 0)", t.Name)
	}
	if !(mf >= 0 && mf <= t.MillerMax) {
		return nil, fmt.Errorf("delay: Miller factor %g outside [0, %g] for technology %s", mf, t.MillerMax, t.Name)
	}
	c := &Coupling{Aggressor: AggressorNone, Mode: SchemePlainOnly}
	c.MF[SchemePlain] = mf
	c.MF[SchemeStaggered] = mf
	c.MF[SchemeShielded] = 0
	c.CostUPerM[SchemeShielded] = t.ShieldUPerM
	c.Schemes = append(c.Schemes, SchemePlain)
	return c, nil
}

// MinMF returns the smallest Miller factor over the allowed schemes — the
// admissible per-interval floor remaining-delay bounds must assume.
func (c *Coupling) MinMF() float64 {
	min := c.MF[c.Schemes[0]]
	for _, s := range c.Schemes[1:] {
		if c.MF[s] < min {
			min = c.MF[s]
		}
	}
	return min
}

// StageCcMc appends, for each of the len(points)-1 intervals between
// consecutive points, the interval's unscaled coupling capacitance and
// coupling self-delay to cc and mc, returning the extended slices — the
// coupling companion of StageRCM. An interval under Miller factor MF has
// effective capacitance C + MF·Cc and self-delay M + MF·Mc.
func (e *Evaluator) StageCcMc(points []float64, cc, mc []float64) ([]float64, []float64) {
	for i := 0; i+1 < len(points); i++ {
		a, b := points[i], points[i+1]
		cc = append(cc, e.Line.Cc(a, b))
		mc = append(mc, e.Line.Mc(a, b))
	}
	return cc, mc
}

// Stages is the per-interval wire table of a candidate grid: interval i
// spans [Points[i], Points[i+1]], and R, C and M (StageRCM) and Cc and Mc
// (StageCcMc) hold its values. Build it with NewStages; it is read-only
// afterwards, so one table can serve every coupled walk over its grid.
type Stages struct {
	Points          []float64
	R, C, M, Cc, Mc []float64
}

// NewStages tabulates every interval between consecutive ascending
// points, with the same Line calls StageRCM and StageCcMc make.
func (e *Evaluator) NewStages(points []float64) *Stages {
	n := max(len(points)-1, 0)
	buf := make([]float64, 5*n)
	st := &Stages{Points: points}
	st.R, st.C, st.M = e.StageRCM(points, buf[:0:n], buf[n:n:2*n], buf[2*n:2*n:3*n])
	st.Cc, st.Mc = e.StageCcMc(points, buf[3*n:3*n:4*n], buf[4*n:4*n])
	return st
}

// CoupledTotal evaluates the Elmore delay of the assignment under the
// coupling scenario, with schemes[i] the countermeasure of the i-th
// interval of the candidate grid points (so len(schemes) must equal
// len(points)-1). Every assignment position must coincide with an
// interior grid point: schemes are properties of grid intervals, and an
// off-grid repeater would straddle two of them. It is CoupledStages over
// a fresh table of the grid.
func (e *Evaluator) CoupledTotal(points []float64, schemes []uint8, cpl *Coupling, a Assignment) (float64, error) {
	return e.CoupledStages(e.NewStages(points), schemes, cpl, a)
}

// CoupledStages is CoupledTotal over the grid table st, which must have
// been built from e. The walk mirrors the DP's receiver-to-driver
// accumulation so verification sees the same physics the solver priced,
// without requiring bitwise-identical rounding.
func (e *Evaluator) CoupledStages(st *Stages, schemes []uint8, cpl *Coupling, a Assignment) (float64, error) {
	if cpl == nil {
		return 0, fmt.Errorf("delay: CoupledTotal needs a coupling scenario")
	}
	if len(schemes) != len(st.Points)-1 {
		return 0, fmt.Errorf("delay: %d schemes for %d grid intervals", len(schemes), len(st.Points)-1)
	}
	t := e.Tech
	ri := a.N() - 1
	c := t.Co * e.Wr
	d := 0.0
	for i := len(schemes) - 1; i >= 0; i-- {
		s := schemes[i]
		if s >= uint8(len(cpl.MF)) {
			return 0, fmt.Errorf("delay: invalid scheme %d at interval %d", s, i)
		}
		mf := cpl.MF[s]
		d += st.R[i]*c + st.M[i] + mf*st.Mc[i]
		c += st.C[i] + mf*st.Cc[i]
		if i > 0 && ri >= 0 && a.Positions[ri] == st.Points[i] {
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

// SchemeLengths sums the lengths of staggered and shielded intervals of a
// per-interval scheme vector over the grid points.
func SchemeLengths(points []float64, schemes []uint8) (stagger, shield float64) {
	for i, s := range schemes {
		switch s {
		case SchemeStaggered:
			stagger += points[i+1] - points[i]
		case SchemeShielded:
			shield += points[i+1] - points[i]
		}
	}
	return stagger, shield
}
