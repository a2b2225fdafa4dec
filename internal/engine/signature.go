package engine

import (
	"math"
	"strconv"
	"strings"

	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/units"
	"github.com/rip-eda/rip/internal/wire"
)

// Quantization defaults for cache signatures. Lengths are snapped to a
// 1 µm grid (global wires are millimeters long, so this merges only
// routing noise), and embedded tree deadlines to 0.1 ps.
// Hits are always re-verified on the actual net, so coarser quanta trade
// a little extra verification-reject work for a higher hit rate — they
// can never change a delivered solution's correctness.
const (
	defaultLengthQuantum = 1 * units.Micron
	defaultTargetQuantum = 0.1 * 1e-12
)

// signer builds canonical cache keys for (net, target) jobs under one
// technology. The technology prefix is computed once at engine build time
// since every job in an engine shares the node. It embeds the node's full
// electrical identity — name, device parameters, supply/clocking context
// and layer densities — so even if two differently-named nodes were ever
// served from one cache, their signatures could not collide; under a
// Multi the per-technology engines additionally keep disjoint caches.
type signer struct {
	techPrefix    string
	lengthQuantum float64
	targetQuantum float64
}

func newSigner(t *tech.Technology, opts CacheOptions) *signer {
	var b strings.Builder
	b.WriteString(t.Name)
	b.WriteByte('|')
	appendFloat(&b, t.Rs)
	appendFloat(&b, t.Co)
	appendFloat(&b, t.Cp)
	appendFloat(&b, t.Vdd)
	appendFloat(&b, t.Freq)
	appendFloat(&b, t.Activity)
	appendFloat(&b, t.LeakWPerUnit)
	// The coupling model is part of the node's electrical identity
	// unconditionally (not only when a job uses it): a node that gains,
	// loses or edits coupling fields must invalidate every signature, or a
	// snapshot taken under one coupling definition could serve answers
	// under another.
	appendFloat(&b, t.MillerMin)
	appendFloat(&b, t.MillerMax)
	appendFloat(&b, t.ShieldUPerM)
	for _, l := range t.Layers {
		b.WriteString(l.Name)
		b.WriteByte(':')
		appendFloat(&b, l.ROhmPerM)
		appendFloat(&b, l.CFPerM)
		appendFloat(&b, l.CcFPerM)
	}
	s := &signer{
		techPrefix:    b.String(),
		lengthQuantum: opts.LengthQuantum,
		targetQuantum: opts.TargetQuantum,
	}
	if s.lengthQuantum <= 0 {
		s.lengthQuantum = defaultLengthQuantum
	}
	if s.targetQuantum <= 0 {
		s.targetQuantum = defaultTargetQuantum
	}
	return s
}

// key canonicalizes a job: technology node, quantized segment
// length/RC profile, zone layout and terminal widths. The timing budget
// is deliberately absent — the cached object is the net's whole Pareto
// front, which answers every budget by lookup, so nets that canonicalize
// identically are solved once and served for any target. A coupled job
// (a parseable, non-none Aggressor) appends "|a"+aggressor and
// "|s"+scheme mode: fronts priced under different crosstalk scenarios
// answer different physics and must never alias each other or the
// uncoupled front — and per-segment coupling densities join the segment
// profile so two nets differing only in cc cannot collide. Uncoupled
// jobs on nets without coupling capacitance still emit the historical
// key shape.
func (s *signer) key(j Job) string { return s.scenarioKey(s.shapeKey(j.Net), j) }

// shapeKey is a line key's geometry prefix: everything but the scenario,
// so every job on one net shares it.
func (s *signer) shapeKey(n *wire.Net) string {
	var b strings.Builder
	b.Grow(64 + 32*n.Line.NumSegments())
	b.WriteString(s.techPrefix)
	b.WriteString("|d")
	appendFloat(&b, n.DriverWidth)
	b.WriteByte('r')
	appendFloat(&b, n.ReceiverWidth)
	b.WriteString("|s")
	for _, seg := range n.Line.Segments() {
		appendQuant(&b, seg.Length, s.lengthQuantum)
		appendFloat(&b, seg.ROhmPerM)
		appendFloat(&b, seg.CFPerM)
		if seg.CcFPerM != 0 {
			b.WriteByte('c')
			appendFloat(&b, seg.CcFPerM)
		}
		b.WriteByte(';')
	}
	b.WriteString("|z")
	for _, z := range n.Line.Zones() {
		appendQuant(&b, z.Start, s.lengthQuantum)
		appendQuant(&b, z.End, s.lengthQuantum)
		b.WriteByte(';')
	}
	return b.String()
}

// scenarioKey appends j's crosstalk scenario to its geometry prefix; an
// uncoupled job's key is the prefix itself.
func (s *signer) scenarioKey(prefix string, j Job) string {
	agg, err := delay.ParseAggressor(j.Aggressor)
	if j.MF == nil && (err != nil || agg == delay.AggressorNone) {
		return prefix
	}
	var b strings.Builder
	b.Grow(len(prefix) + 32)
	b.WriteString(prefix)
	// An explicit-factor job's front answers different physics per factor
	// value: the factor joins the key so no two factors (or a factor and a
	// named scenario) ever alias.
	if j.MF != nil {
		b.WriteString("|m")
		appendFloat(&b, *j.MF)
	}
	if err == nil && agg != delay.AggressorNone {
		b.WriteString("|a")
		b.WriteString(agg.String())
		if mode, err := delay.ParseSchemeMode(j.Scheme); err == nil {
			b.WriteString("|s")
			b.WriteString(mode.String())
		}
	}
	return b.String()
}

// appendQuant writes x snapped to the quantum grid as an integer count.
func appendQuant(b *strings.Builder, x, quantum float64) {
	b.WriteString(strconv.FormatInt(int64(math.Round(x/quantum)), 36))
	b.WriteByte(',')
}

// appendFloat writes x rounded to 7 significant digits — exact enough to
// separate genuinely different electrical values while absorbing float
// noise from unit conversions.
func appendFloat(b *strings.Builder, x float64) {
	b.WriteString(strconv.FormatFloat(x, 'e', 6, 64))
	b.WriteByte(',')
}
