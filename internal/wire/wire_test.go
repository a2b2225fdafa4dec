package wire

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/rip-eda/rip/internal/units"
)

// testLine builds a 3-segment non-uniform line used by several tests:
// lengths 1, 2, 1 mm with distinct densities.
func testLine(t *testing.T) *Line {
	t.Helper()
	l, err := New([]Segment{
		{Length: 1e-3, ROhmPerM: 8e4, CFPerM: 2.3e-10, Layer: "metal4"},
		{Length: 2e-3, ROhmPerM: 6e4, CFPerM: 2.1e-10, Layer: "metal5"},
		{Length: 1e-3, ROhmPerM: 8e4, CFPerM: 2.3e-10, Layer: "metal4"},
	}, []Zone{{Start: 1.5e-3, End: 2.5e-3}})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewValidation(t *testing.T) {
	good := []Segment{{Length: 1e-3, ROhmPerM: 1e4, CFPerM: 1e-10}}
	cases := []struct {
		name  string
		segs  []Segment
		zones []Zone
	}{
		{"no segments", nil, nil},
		{"zero length", []Segment{{Length: 0, ROhmPerM: 1, CFPerM: 1}}, nil},
		{"negative r", []Segment{{Length: 1, ROhmPerM: -1, CFPerM: 1}}, nil},
		{"zero c", []Segment{{Length: 1, ROhmPerM: 1, CFPerM: 0}}, nil},
		{"inverted zone", good, []Zone{{Start: 5e-4, End: 4e-4}}},
		{"empty zone", good, []Zone{{Start: 5e-4, End: 5e-4}}},
		{"zone past end", good, []Zone{{Start: 5e-4, End: 2e-3}}},
		{"negative zone", good, []Zone{{Start: -1e-4, End: 5e-4}}},
		{"overlapping zones", good, []Zone{{Start: 1e-4, End: 5e-4}, {Start: 4e-4, End: 8e-4}}},
	}
	for _, c := range cases {
		if _, err := New(c.segs, c.zones); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// Zones sharing an endpoint are fine.
	if _, err := New(good, []Zone{{Start: 1e-4, End: 5e-4}, {Start: 5e-4, End: 8e-4}}); err != nil {
		t.Errorf("adjacent zones should validate: %v", err)
	}
}

func TestPrefixTotals(t *testing.T) {
	l := testLine(t)
	if got, want := l.Length(), 4e-3; math.Abs(got-want) > 1e-18 {
		t.Errorf("Length = %g, want %g", got, want)
	}
	wantR := 1e-3*8e4 + 2e-3*6e4 + 1e-3*8e4
	if got := l.TotalR(); math.Abs(got-wantR) > 1e-9 {
		t.Errorf("TotalR = %g, want %g", got, wantR)
	}
	wantC := 1e-3*2.3e-10 + 2e-3*2.1e-10 + 1e-3*2.3e-10
	if got := l.TotalC(); math.Abs(got-wantC) > 1e-22 {
		t.Errorf("TotalC = %g, want %g", got, wantC)
	}
	if got := l.R(0, l.Length()); math.Abs(got-wantR) > 1e-9 {
		t.Errorf("R(0,L) = %g, want %g", got, wantR)
	}
}

func TestIntervalQueriesCrossSegments(t *testing.T) {
	l := testLine(t)
	// Interval [0.5mm, 2mm] spans segment 0 (0.5mm at 8e4) and
	// segment 1 (1mm at 6e4).
	wantR := 0.5e-3*8e4 + 1e-3*6e4
	if got := l.R(0.5e-3, 2e-3); math.Abs(got-wantR) > 1e-9 {
		t.Errorf("R = %g, want %g", got, wantR)
	}
	wantC := 0.5e-3*2.3e-10 + 1e-3*2.1e-10
	if got := l.C(0.5e-3, 2e-3); math.Abs(got-wantC) > 1e-22 {
		t.Errorf("C = %g, want %g", got, wantC)
	}
}

func TestMUniformMatchesClosedForm(t *testing.T) {
	// For a uniform wire M(0, L) = r·c·L²/2.
	l, err := Uniform(2e-3, 8e4, 2.3e-10, "m4")
	if err != nil {
		t.Fatal(err)
	}
	want := 8e4 * 2.3e-10 * 2e-3 * 2e-3 / 2
	if got := l.M(0, 2e-3); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("M = %g, want %g", got, want)
	}
}

func TestMMatchesPiModelDoubleSum(t *testing.T) {
	// M over full multi-segment line must equal the paper's Eq. (1)
	// double sum Σⱼ rⱼlⱼ(cⱼlⱼ/2 + Σ_{h>j} c_h l_h).
	l := testLine(t)
	segs := l.Segments()
	want := 0.0
	for j := range segs {
		down := 0.0
		for h := j + 1; h < len(segs); h++ {
			down += segs[h].CFPerM * segs[h].Length
		}
		want += segs[j].ROhmPerM * segs[j].Length * (segs[j].CFPerM*segs[j].Length/2 + down)
	}
	got := l.M(0, l.Length())
	if math.Abs(got-want)/want > 1e-12 {
		t.Errorf("M = %g, want π-model double sum %g", got, want)
	}
}

func TestWireElmoreAdditivity(t *testing.T) {
	// Elmore through [a,c] with load CL must equal the split evaluation:
	// τ(a,c|CL) = τ(a,b | C(b,c)+CL) + τ(b,c|CL).
	l := testLine(t)
	const cl = 50e-15
	a, b, c := 0.3e-3, 1.7e-3, 3.6e-3
	whole := l.WireElmore(a, c, cl)
	split := l.WireElmore(a, b, l.C(b, c)+cl) + l.WireElmore(b, c, cl)
	if math.Abs(whole-split)/whole > 1e-12 {
		t.Errorf("additivity violated: whole %g split %g", whole, split)
	}
}

func TestWireElmoreAdditivityProperty(t *testing.T) {
	l := testLine(t)
	total := l.Length()
	f := func(ua, ub, uc, ucl float64) bool {
		frac := func(u float64) float64 {
			u = math.Abs(math.Mod(u, 1))
			return u
		}
		xs := []float64{frac(ua) * total, frac(ub) * total, frac(uc) * total}
		a, b, c := math.Min(xs[0], math.Min(xs[1], xs[2])), 0.0, math.Max(xs[0], math.Max(xs[1], xs[2]))
		b = xs[0] + xs[1] + xs[2] - a - c
		cl := frac(ucl) * 200e-15
		whole := l.WireElmore(a, c, cl)
		split := l.WireElmore(a, b, l.C(b, c)+cl) + l.WireElmore(b, c, cl)
		return math.Abs(whole-split) <= 1e-12*math.Max(whole, 1e-15)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMonotonicity(t *testing.T) {
	l := testLine(t)
	// Longer interval, larger delay; bigger load, larger delay.
	if !(l.WireElmore(0, 3e-3, 1e-14) > l.WireElmore(0, 2e-3, 1e-14)) {
		t.Error("delay should grow with interval length")
	}
	if !(l.WireElmore(0, 2e-3, 2e-14) > l.WireElmore(0, 2e-3, 1e-14)) {
		t.Error("delay should grow with load")
	}
}

func TestDensitySides(t *testing.T) {
	l := testLine(t)
	// At the segment-0/1 boundary (1mm) left density is metal4's, right is
	// metal5's.
	rl, cl := l.DensityLeft(1e-3)
	if rl != 8e4 || cl != 2.3e-10 {
		t.Errorf("DensityLeft(1mm) = (%g, %g), want metal4", rl, cl)
	}
	rr, cr := l.DensityRight(1e-3)
	if rr != 6e4 || cr != 2.1e-10 {
		t.Errorf("DensityRight(1mm) = (%g, %g), want metal5", rr, cr)
	}
	// Interior point: both sides agree.
	rl, _ = l.DensityLeft(0.5e-3)
	rr, _ = l.DensityRight(0.5e-3)
	if rl != rr {
		t.Errorf("interior densities disagree: %g vs %g", rl, rr)
	}
}

func TestZoneQueries(t *testing.T) {
	l := testLine(t)
	if !l.InZone(2e-3) {
		t.Error("2mm should be inside the zone")
	}
	if l.InZone(1.5e-3) || l.InZone(2.5e-3) {
		t.Error("zone boundaries are legal positions")
	}
	if l.InZone(0.5e-3) {
		t.Error("0.5mm is outside the zone")
	}
	z, ok := l.ZoneAt(2e-3)
	if !ok || z.Start != 1.5e-3 {
		t.Errorf("ZoneAt(2mm) = %+v, %v", z, ok)
	}
	if z.Length() != 1e-3 {
		t.Errorf("zone length = %g, want 1e-3", z.Length())
	}
}

func TestLegalPositions(t *testing.T) {
	l := testLine(t)
	pitch := 200 * units.Micron
	pos := l.LegalPositions(pitch)
	if len(pos) == 0 {
		t.Fatal("expected candidates")
	}
	for _, x := range pos {
		if !l.Legal(x) {
			t.Errorf("illegal candidate %g", x)
		}
		if x <= 0 || x >= l.Length() {
			t.Errorf("candidate %g outside interior", x)
		}
		// Must be on the pitch grid.
		k := x / pitch
		if math.Abs(k-math.Round(k)) > 1e-9 {
			t.Errorf("candidate %g off grid", x)
		}
	}
	// None inside the zone.
	for _, x := range pos {
		if x > 1.5e-3 && x < 2.5e-3 {
			t.Errorf("candidate %g inside forbidden zone", x)
		}
	}
	if l.LegalPositions(0) != nil {
		t.Error("non-positive pitch should yield nil")
	}
}

func TestSegIndexBoundaryBias(t *testing.T) {
	l := testLine(t)
	// Exactly at the right end of the line the index must stay in range.
	r, c := l.DensityRight(l.Length())
	if r != 8e4 || c != 2.3e-10 {
		t.Errorf("DensityRight(L) = (%g, %g)", r, c)
	}
	r, c = l.DensityLeft(0)
	_ = r
	_ = c // must not panic
}

func TestRandomLineQueriesAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		m := 1 + rng.Intn(9)
		segs := make([]Segment, m)
		for i := range segs {
			segs[i] = Segment{
				Length:   (0.5 + rng.Float64()*2) * 1e-3,
				ROhmPerM: (2 + rng.Float64()*10) * 1e4,
				CFPerM:   (1 + rng.Float64()*3) * 1e-10,
			}
		}
		l, err := New(segs, nil)
		if err != nil {
			t.Fatal(err)
		}
		a := rng.Float64() * l.Length()
		b := a + rng.Float64()*(l.Length()-a)
		// Brute-force M by fine trapezoidal integration of r(x)·C(x,b).
		const steps = 20000
		h := (b - a) / steps
		sum := 0.0
		for k := 0; k <= steps; k++ {
			x := a + float64(k)*h
			i := 0
			for i < m-1 && x > l.xb[i+1] {
				i++
			}
			v := segs[i].ROhmPerM * l.C(x, b)
			if k == 0 || k == steps {
				v /= 2
			}
			sum += v
		}
		want := sum * h
		got := l.M(a, b)
		if want > 0 && math.Abs(got-want)/want > 1e-3 {
			t.Fatalf("trial %d: M = %g, numeric %g", trial, got, want)
		}
	}
}

func TestAppendLegalPositionsMatchesLegalPositions(t *testing.T) {
	l := testLine(t)
	for _, pitch := range []float64{100 * units.Micron, 333 * units.Micron, 1e-3} {
		want := l.LegalPositions(pitch)
		got := l.AppendLegalPositions(nil, pitch)
		if len(got) != len(want) {
			t.Fatalf("pitch %g: %d positions, want %d", pitch, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pitch %g: position %d = %g, want %g", pitch, i, got[i], want[i])
			}
		}
	}
	if got := l.AppendLegalPositions([]float64{-1}, 200*units.Micron); len(got) == 0 || got[0] != -1 {
		t.Fatal("AppendLegalPositions must append after existing entries")
	}
	if got := l.AppendLegalPositions(nil, 0); got != nil {
		t.Fatalf("non-positive pitch must append nothing, got %v", got)
	}
}

// TestLineSameBits: a line rebuilt from the same segments and zones is
// SameBits and hashes alike; one bit of any segment or zone float, a layer
// name, or a missing zone or segment makes it a different line.
func TestLineSameBits(t *testing.T) {
	base := testLine(t)
	flip := func(x float64) float64 { return math.Float64frombits(math.Float64bits(x) ^ 1) }
	build := func(edit func(segs []Segment, zones []Zone) ([]Segment, []Zone)) *Line {
		t.Helper()
		segs, zones := base.Segments(), base.Zones()
		if edit != nil {
			segs, zones = edit(segs, zones)
		}
		l, err := New(segs, zones)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	same := build(nil)
	if !base.SameBits(same) || !same.SameBits(base) || !base.SameBits(base) || base.BitsHash() != same.BitsHash() {
		t.Fatal("a rebuilt copy is not the same line")
	}
	for name, edit := range map[string]func([]Segment, []Zone) ([]Segment, []Zone){
		"length":      func(s []Segment, z []Zone) ([]Segment, []Zone) { s[1].Length = flip(s[1].Length); return s, z },
		"resistance":  func(s []Segment, z []Zone) ([]Segment, []Zone) { s[2].ROhmPerM = flip(s[2].ROhmPerM); return s, z },
		"capacitance": func(s []Segment, z []Zone) ([]Segment, []Zone) { s[0].CFPerM = flip(s[0].CFPerM); return s, z },
		"coupling":    func(s []Segment, z []Zone) ([]Segment, []Zone) { s[0].CcFPerM = 1e-10; return s, z },
		"layer":       func(s []Segment, z []Zone) ([]Segment, []Zone) { s[1].Layer = "metal6"; return s, z },
		"zone start":  func(s []Segment, z []Zone) ([]Segment, []Zone) { z[0].Start = flip(z[0].Start); return s, z },
		"zone end":    func(s []Segment, z []Zone) ([]Segment, []Zone) { z[0].End = flip(z[0].End); return s, z },
		"no zone":     func(s []Segment, _ []Zone) ([]Segment, []Zone) { return s, nil },
		"no segment":  func(s []Segment, _ []Zone) ([]Segment, []Zone) { return s[:2], nil },
	} {
		if l := build(edit); base.SameBits(l) || l.SameBits(base) {
			t.Fatalf("%s: a changed line is the same line", name)
		}
	}
}
