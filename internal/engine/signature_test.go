package engine

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/tree"
	"github.com/rip-eda/rip/internal/units"
	"github.com/rip-eda/rip/internal/wire"
)

// classStep is the width of x's signature class: one unit in the 24th
// significant bit.
func classStep(x float64) float64 {
	_, exp := math.Frexp(x)
	return math.Ldexp(1, exp-24)
}

// classCentre is the value every member of x's class rounds to.
func classCentre(x float64) float64 {
	return math.Float64frombits((math.Float64bits(x) + classHalf) &^ classMask)
}

// withSegment returns a copy of n whose first segment is edited by f.
func withSegment(t *testing.T, n *wire.Net, f func(*wire.Segment)) *wire.Net {
	t.Helper()
	segs := n.Line.Segments()
	f(&segs[0])
	line, err := wire.New(segs, n.Line.Zones())
	if err != nil {
		t.Fatal(err)
	}
	c := *n
	c.Line = line
	return &c
}

// TestSignatureClasses pins the binary key's equivalence classes: copies
// share a key, a float keeps its key within its class and leaves it a
// class and a half away, lengths follow the quantum grid, kinds never
// share one, and scenarios share one exactly when their physics does.
func TestSignatureClasses(t *testing.T) {
	node := tech.T90()
	eng, err := New(node, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	key := func(j Job) string {
		t.Helper()
		k, ok := eng.Signature(j)
		if !ok {
			t.Fatal("job has no signature")
		}
		return k
	}
	digest := sha256.Sum256([]byte(eng.TechIdentity()))
	lines := netgenLines(t, node, 91, 4)
	trees := netgenTrees(t, node, 92, 4)
	kinds := map[string]string{}
	for i, n := range lines {
		j := Job{Net: n, TargetMult: 1.3}
		k := key(j)
		if !strings.HasPrefix(k, string(digest[:])) {
			t.Fatalf("line %d: key does not start with the node identity's digest", i)
		}
		copied := withSegment(t, n, func(*wire.Segment) {})
		copied.Name = "renamed"
		if key(relabeled(t, j)) != k || key(Job{Net: copied, Target: 1e-9}) != k {
			t.Fatalf("line %d: a renamed or bit-identical copy changed the key", i)
		}
		kinds[k] = "line"
	}
	for i, tn := range trees {
		for _, j := range []Job{{TreeNet: tn, TargetMult: 1.3}, {TreeNet: tn}} {
			k := key(j)
			if key(relabeled(t, j)) != k {
				t.Fatalf("tree %d: a relabeled copy changed the key", i)
			}
			if kinds[k] != "" {
				t.Fatalf("tree %d shares a key with a %s", i, kinds[k])
			}
			kinds[k] = "tree"
		}
	}

	// A float a quarter step from its class centre keeps the centre's key;
	// one and a half steps away it does not.
	base := lines[0]
	mf := 1.3
	for _, tc := range []struct {
		name string
		at   func(x float64) Job
		x    float64
	}{
		{"segment R", func(x float64) Job {
			return Job{Net: withSegment(t, base, func(s *wire.Segment) { s.ROhmPerM = x })}
		}, base.Line.Segment(0).ROhmPerM},
		{"segment Cc", func(x float64) Job {
			return Job{Net: withSegment(t, base, func(s *wire.Segment) { s.CcFPerM = x })}
		}, 7.3e-11},
		{"driver width", func(x float64) Job {
			n := *base
			n.DriverWidth = x
			return Job{Net: &n}
		}, 173.4},
		{"Miller factor", func(x float64) Job { return Job{Net: base, MF: &x} }, mf},
		{"tree edge C", func(x float64) Job {
			tn := relabeled(t, Job{TreeNet: trees[0]}).TreeNet
			tn.Tree.Walk(1).EdgeC = x
			return Job{TreeNet: tn, TargetMult: 1.3}
		}, trees[0].Tree.Walk(1).EdgeC},
	} {
		c, step := classCentre(tc.x), classStep(classCentre(tc.x))
		k := key(tc.at(c))
		if key(tc.at(c+step/4)) != k || key(tc.at(c-step/4)) != k {
			t.Errorf("%s: a quarter step from the class centre %g changed the key", tc.name, c)
		}
		if key(tc.at(c+1.5*step)) == k || key(tc.at(c-1.5*step)) == k {
			t.Errorf("%s: one and a half steps from the class centre %g kept the key", tc.name, c)
		}
	}
	length := func(x float64) string {
		return key(Job{Net: withSegment(t, base, func(s *wire.Segment) { s.Length = x })})
	}
	grid := math.Round(base.Line.Segment(0).Length/units.Micron) * units.Micron
	if k := length(grid); length(grid+units.Micron/4) != k || length(grid+1.5*units.Micron) == k {
		t.Error("segment lengths do not follow the 1 µm quantum grid")
	}

	// Two scenarios share a key exactly when they allow the same schemes
	// at the same factor classes: the uncoupled job, every aggressor under
	// every scheme, and explicit factors, 0 and the named ones included.
	physics := func(j Job) string {
		t.Helper()
		cpl, err := eng.resolveCoupling(j, base.Name)
		if err != nil {
			t.Fatal(err)
		}
		if cpl == nil {
			return "uncoupled"
		}
		p := fmt.Sprint(cpl.Schemes, classCentre(cpl.MF[delay.SchemePlain]))
		if slices.Contains(cpl.Schemes, delay.SchemeStaggered) {
			p += fmt.Sprint(" staggered ", classCentre(cpl.MF[delay.SchemeStaggered]))
		}
		return p
	}
	scenarios := []Job{{}}
	for _, agg := range []string{"worst", "best", "quiet"} {
		for _, scheme := range []string{"plain", "staggered", "shielded", "auto"} {
			scenarios = append(scenarios, Job{Aggressor: agg, Scheme: scheme})
		}
	}
	for _, f := range []float64{0, 1, 1.5, node.MillerMin, node.MillerMax / 2, node.MillerMax} {
		scenarios = append(scenarios, Job{MF: &f})
	}
	for a, ja := range scenarios {
		ja.Net = base
		for _, jb := range scenarios[a+1:] {
			jb.Net = base
			if same := physics(ja) == physics(jb); (key(ja) == key(jb)) != same {
				t.Errorf("scenarios %+v and %+v: shared key %v, want %v", ja, jb, !same, same)
			}
		}
	}
	mfKey := func(f float64) string { return key(Job{Net: base, MF: &f}) }
	if key(Job{Net: base, Aggressor: "worst", Scheme: "plain"}) != mfKey(node.MillerMax) ||
		key(Job{Net: base, Aggressor: "quiet", Scheme: "plain"}) != mfKey(1) ||
		key(Job{Net: base, Aggressor: "best", Scheme: "plain"}) != mfKey(node.MillerMin) ||
		key(Job{Net: base, Aggressor: "worst"}) != key(Job{Net: base, Aggressor: "worst", Scheme: "plain"}) ||
		mfKey(0) != mfKey(math.Copysign(0, -1)) {
		t.Fatal("equal scenarios differ in their keys")
	}
	for _, j := range []Job{{Aggressor: "wrst"}, {Aggressor: "none", Scheme: "auto"}, {Aggressor: "worst", Scheme: "both"}} {
		j.Net = base
		if k, ok := eng.Signature(j); ok {
			t.Errorf("unresolvable scenario %+v has the signature %q", j, k)
		}
	}
}

// TestWorstPlainIsTheMillerMaxFront: a worst/plain job and an explicit
// factor of MillerMax, which share a key, solve equal fronts on cache-off
// engines on every node: the same τmin and, point for point, the same
// delay and width bits, placement and schemes.
func TestWorstPlainIsTheMillerMaxFront(t *testing.T) {
	for _, node := range builtinNodes() {
		mm := node.MillerMax
		net := netgenLines(t, node, 93, 1)[0]
		var fronts [2]lineFront
		var tmins [2]float64
		for k, j := range []Job{{Net: net, Aggressor: "worst", Scheme: "plain"}, {Net: net, MF: &mm}} {
			eng, err := New(node, Options{Workers: 1, Cache: CacheOptions{Disabled: true}})
			if err != nil {
				t.Fatal(err)
			}
			p, err := eng.prepare(j, false)
			if err != nil {
				t.Fatal(err)
			}
			if fronts[k], tmins[k], err = eng.solveLineFront(context.Background(), p.ev, p.name, "", p.cpl); err != nil {
				t.Fatal(err)
			}
		}
		a, b := fronts[0], fronts[1]
		if math.Float64bits(tmins[0]) != math.Float64bits(tmins[1]) || len(a) != len(b) {
			t.Fatalf("%s: worst/plain τmin %g with %d points, MillerMax %g with %d", node.Name, tmins[0], len(a), tmins[1], len(b))
		}
		for i := range a {
			if math.Float64bits(a[i].delay) != math.Float64bits(b[i].delay) ||
				math.Float64bits(a[i].totalWidth) != math.Float64bits(b[i].totalWidth) ||
				!slices.Equal(a[i].positions, b[i].positions) || !slices.Equal(a[i].widths, b[i].widths) ||
				!slices.Equal(a[i].schemes, b[i].schemes) {
				t.Fatalf("%s point %d: worst/plain %+v, MillerMax %+v", node.Name, i, a[i], b[i])
			}
		}
	}
}

// BenchmarkSignature times the cache key of a 7-segment 65nm netgen line,
// of a coupled bus member keyed from its track's shared geometry prefix,
// and of an 8-sink tree.
func BenchmarkSignature(b *testing.B) {
	node := tech.T65()
	eng, err := New(node, Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	var line *wire.Net
	for seed := int64(1); line == nil; seed++ {
		if n := netgenLines(b, node, seed, 1)[0]; n.Line.NumSegments() == 7 {
			line = n
		}
	}
	cfg, err := tree.DefaultGenConfig(node)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Sinks = 8
	tr, err := tree.Generate(rand.New(rand.NewSource(3)), cfg)
	if err != nil {
		b.Fatal(err)
	}
	tn := &tree.Net{Name: "t", Tree: tr, DriverWidth: 240}
	cpl, err := delay.NewCouplingFactor(node, node.MillerMax)
	if err != nil {
		b.Fatal(err)
	}
	shape := eng.newLineShape(line)
	b.Run("line", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			signatureSink = eng.sig.key(line, nil)
		}
	})
	b.Run("bus_member", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			signatureSink = eng.sig.scenarioKey(shape.key, cpl)
		}
	})
	b.Run("tree", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			signatureSink = eng.sig.treeKey(Job{TreeNet: tn, TargetMult: 1.3}, false)
		}
	})
}

// signatureSink keeps BenchmarkSignature's keys alive.
var signatureSink string
