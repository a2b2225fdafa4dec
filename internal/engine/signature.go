package engine

import (
	"crypto/sha256"
	"encoding/binary"
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
// technology. A key is a binary record of little-endian 8-byte words
// (4-byte counts), written into one presized buffer:
//
//	[32]byte   SHA-256 of the node identity (TechIdentity)
//	byte       kind: 'L' line, 'T' tree
//	line:      driver width, receiver width;
//	           segment count, per segment its length in quanta and its
//	           R, C and Cc per meter; zone count, per zone its start and
//	           end in quanta; the crosstalk scenario (appendScenario):
//	           a byte with a bit per allowed scheme (0 when uncoupled),
//	           then the plain factor, and the staggered factor when
//	           staggering is allowed
//	tree:      mode byte ('u' uniform budgets, 'e' embedded deadlines),
//	           driver width, node count, per node in walk order its
//	           child count, a flag byte (1 sink, 2 buffer site), edge R
//	           and C, and for a sink its cap, plus its deadline in
//	           quanta in embedded mode
//
// The identity digest embeds the node's full electrical identity —
// name, device parameters, supply/clocking context, coupling model and
// layer densities — so even if two differently-named nodes were ever
// served from one cache, their signatures could not collide; under a
// Multi the per-technology engines additionally keep disjoint caches.
// Every count and optional field is fixed by what precedes it, so no
// two shapes share a byte string.
//
// Lengths and deadlines are integer quantum counts. Every other float is
// its class word: its float64 bits rounded to 24 significant bits (half
// up on the magnitude), ±0 alike, a relative step of 2⁻²³ ≈ 1.2e-7. That
// is no coarser than the 7 significant decimal digits the text keys
// before it kept (a step of 1e-7 to 1e-6), but the class boundaries are
// binary, so near a boundary two values that shared a decimal class may
// fall in different binary classes, and the other way round. Hits are
// verified on the job's own net either way.
type signer struct {
	identity      string
	digest        [sha256.Size]byte
	lengthQuantum float64
	targetQuantum float64
}

// keyStack is the stack buffer a key is written into; a longer key
// allocates its buffer.
const keyStack = 512

// Class words keep 24 significant bits: the implicit bit and the top 23
// of float64's 52 mantissa bits.
const (
	classDrop = 52 - 23
	classMask = 1<<classDrop - 1
	classHalf = 1 << (classDrop - 1)
)

func newSigner(t *tech.Technology, opts CacheOptions) *signer {
	var b strings.Builder
	b.WriteString(t.Name)
	b.WriteByte('|')
	identityFloat(&b, t.Rs)
	identityFloat(&b, t.Co)
	identityFloat(&b, t.Cp)
	identityFloat(&b, t.Vdd)
	identityFloat(&b, t.Freq)
	identityFloat(&b, t.Activity)
	identityFloat(&b, t.LeakWPerUnit)
	// The coupling model is part of the node's electrical identity
	// unconditionally (not only when a job uses it): a node that gains,
	// loses or edits coupling fields must invalidate every signature, or a
	// snapshot taken under one coupling definition could serve answers
	// under another.
	identityFloat(&b, t.MillerMin)
	identityFloat(&b, t.MillerMax)
	identityFloat(&b, t.ShieldUPerM)
	for _, l := range t.Layers {
		b.WriteString(l.Name)
		b.WriteByte(':')
		identityFloat(&b, l.ROhmPerM)
		identityFloat(&b, l.CFPerM)
		identityFloat(&b, l.CcFPerM)
	}
	s := &signer{
		identity:      b.String(),
		lengthQuantum: opts.LengthQuantum,
		targetQuantum: opts.TargetQuantum,
	}
	s.digest = sha256.Sum256([]byte(s.identity))
	if s.lengthQuantum <= 0 {
		s.lengthQuantum = defaultLengthQuantum
	}
	if s.targetQuantum <= 0 {
		s.targetQuantum = defaultTargetQuantum
	}
	return s
}

// key canonicalizes a line job: technology node, quantized segment
// length/RC profile, zone layout, terminal widths and the resolved
// crosstalk scenario cpl (nil when uncoupled). The timing budget is
// deliberately absent — the cached object is the net's whole Pareto
// front, which answers every budget by lookup, so nets that canonicalize
// identically are solved once and served for any target.
func (s *signer) key(n *wire.Net, cpl *delay.Coupling) string {
	var arr [keyStack]byte
	b := keyBuf(arr[:0], shapeLen(n.Line)+scenarioLen)
	return string(appendScenario(s.appendShape(b, n), cpl))
}

// shapeKey is a line key's geometry prefix: everything but the scenario,
// so every job on one net shares it.
func (s *signer) shapeKey(n *wire.Net) string {
	var arr [keyStack]byte
	b := keyBuf(arr[:0], shapeLen(n.Line))
	return string(s.appendShape(b, n))
}

// scenarioKey appends the crosstalk scenario cpl to a geometry prefix.
func (s *signer) scenarioKey(prefix string, cpl *delay.Coupling) string {
	var arr [keyStack]byte
	b := keyBuf(arr[:0], len(prefix)+scenarioLen)
	return string(appendScenario(append(b, prefix...), cpl))
}

// shapeLen is the length of a line's geometry prefix.
func shapeLen(l *wire.Line) int {
	return sha256.Size + 1 + 2*8 + 4 + 4*8*l.NumSegments() + 4 + 2*8*l.NumZones()
}

// appendShape writes a line's geometry prefix.
func (s *signer) appendShape(b []byte, n *wire.Net) []byte {
	b = append(b, s.digest[:]...)
	b = append(b, 'L')
	b = appendClass(b, n.DriverWidth)
	b = appendClass(b, n.ReceiverWidth)
	l := n.Line
	b = binary.LittleEndian.AppendUint32(b, uint32(l.NumSegments()))
	for i := range l.NumSegments() {
		seg := l.Segment(i)
		b = appendQuant(b, seg.Length, s.lengthQuantum)
		b = appendClass(b, seg.ROhmPerM)
		b = appendClass(b, seg.CFPerM)
		b = appendClass(b, seg.CcFPerM)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(l.NumZones()))
	for i := range l.NumZones() {
		z := l.Zone(i)
		b = appendQuant(b, z.Start, s.lengthQuantum)
		b = appendQuant(b, z.End, s.lengthQuantum)
	}
	return b
}

// scenarioLen is the most bytes appendScenario writes.
const scenarioLen = 1 + 2*8

// appendScenario writes a resolved crosstalk scenario by its physics, not
// its name: a byte with bit s set for each allowed scheme s (0 when cpl
// is nil, the uncoupled model), then the class word of the plain factor
// and, when staggering is allowed, of the staggered factor. That is all a
// front solve reads of a coupling: a shielded interval's factor is always
// 0, and its cost per meter is ShieldUPerM, which the node identity
// carries. So scenarios named differently but priced alike share a key —
// worst/plain with an explicit factor of MillerMax, quiet/plain with 1,
// best/plain with MillerMin — and their fronts are solved once.
func appendScenario(b []byte, cpl *delay.Coupling) []byte {
	if cpl == nil {
		return append(b, 0)
	}
	var schemes byte
	for _, sch := range cpl.Schemes {
		schemes |= 1 << sch
	}
	b = appendClass(append(b, schemes), cpl.MF[delay.SchemePlain])
	if schemes&(1<<delay.SchemeStaggered) != 0 {
		b = appendClass(b, cpl.MF[delay.SchemeStaggered])
	}
	return b
}

// keyBuf returns stack when a key of n bytes fits it, else a fresh
// buffer of capacity n.
func keyBuf(stack []byte, n int) []byte {
	if n <= cap(stack) {
		return stack
	}
	return make([]byte, 0, n)
}

// appendQuant writes x snapped to the quantum grid as an integer count.
func appendQuant(b []byte, x, quantum float64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(int64(math.Round(x/quantum))))
}

// appendClass writes x's class word (see signer).
func appendClass(b []byte, x float64) []byte {
	if x == 0 {
		x = 0 // −0 joins +0's class
	}
	return binary.LittleEndian.AppendUint64(b, (math.Float64bits(x)+classHalf)&^classMask)
}

// identityFloat writes x rounded to 7 significant digits into the node
// identity text.
func identityFloat(b *strings.Builder, x float64) {
	b.WriteString(strconv.FormatFloat(x, 'e', 6, 64))
	b.WriteByte(',')
}
