package dp

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/rip-eda/rip/internal/bus"
	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/netgen"
	"github.com/rip-eda/rip/internal/repeater"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/units"
)

var update = flag.Bool("update", false, "rewrite testdata/coupled_fronts.golden from the current solver")

const coupledGolden = "testdata/coupled_fronts.golden"

// pinnedScenario is one coupled scenario of TestCoupledFrontsPinned.
// shortOnly scenarios run on the 4-segment line only: the shielded and
// auto fronts of the 10-segment lines take 43 s together.
type pinnedScenario struct {
	name      string
	cpl       func(*tech.Technology) (*delay.Coupling, error)
	shortOnly bool
}

// pinnedScenarios are the named scenarios the service answers, plus the
// explicit factors a bus member job solves under.
func pinnedScenarios(tc *tech.Technology) []pinnedScenario {
	named := func(agg delay.Aggressor, mode delay.SchemeMode) func(*tech.Technology) (*delay.Coupling, error) {
		return func(tc *tech.Technology) (*delay.Coupling, error) { return delay.NewCoupling(tc, agg, mode) }
	}
	out := []pinnedScenario{
		{"worst/plain", named(delay.AggressorWorst, delay.SchemePlainOnly), false},
		{"worst/staggered", named(delay.AggressorWorst, delay.SchemeModeStaggered), false},
		{"best/staggered", named(delay.AggressorBest, delay.SchemeModeStaggered), false},
		{"worst/shielded", named(delay.AggressorWorst, delay.SchemeModeShielded), true},
		{"worst/auto", named(delay.AggressorWorst, delay.SchemeModeAuto), true},
	}
	for _, mf := range bus.MFValues(tc.MillerMax) {
		out = append(out, pinnedScenario{fmt.Sprintf("mf=%g", mf), func(tc *tech.Technology) (*delay.Coupling, error) {
			return delay.NewCouplingFactor(tc, mf)
		}, false})
	}
	return out
}

// frontDigest hashes everything a front solve returns: every point's
// float bits, positions, widths and schemes, and the work Stats.
func frontDigest(front Front, st Stats) string {
	h := sha256.New()
	var b [8]byte
	u := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	f := func(xs ...float64) {
		for _, x := range xs {
			u(math.Float64bits(x))
		}
	}
	u(uint64(st.Candidates))
	u(uint64(st.Generated))
	u(uint64(st.Kept))
	u(uint64(st.MaxPerLevel))
	u(uint64(len(front)))
	for _, p := range front {
		f(p.Delay, p.TotalWidth, p.Cost, p.StaggerLen, p.ShieldLen)
		u(uint64(len(p.Assignment.Positions)))
		f(p.Assignment.Positions...)
		u(uint64(len(p.Assignment.Widths)))
		f(p.Assignment.Widths...)
		u(uint64(len(p.Schemes)))
		h.Write(p.Schemes)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCoupledFrontsPinned pins every coupled front on the engine's front
// space (10u–400u at a 40u step, 200 µm pitch) to a stored digest: three
// netgen lines per node (4, 7 and 10 segments) under the named scenarios
// and the bus member factors, shielding on the shortest line only. A change to the coupled sweep that moves
// any point, placement, scheme or Stats count fails here; -update
// rewrites the file. Go may fuse multiply-adds off amd64, so the bits are
// pinned on amd64 only.
func TestCoupledFrontsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" && !*update {
		t.Skipf("front bits are pinned on amd64; this is %s", runtime.GOARCH)
	}
	lib, err := repeater.Range(10, 400, 40)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver()
	var got []string
	for _, tc := range []*tech.Technology{tech.T180(), tech.T130(), tech.T90(), tech.T65()} {
		cfg, err := netgen.DefaultConfig(tc)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3001))
		for _, segs := range []int{4, 7, 10} {
			cfg.MinSegments, cfg.MaxSegments = segs, segs
			net, err := netgen.Generate(rng, cfg, fmt.Sprintf("pin%d", segs))
			if err != nil {
				t.Fatal(err)
			}
			ev, err := delay.NewEvaluator(net, tc)
			if err != nil {
				t.Fatal(err)
			}
			for _, sc := range pinnedScenarios(tc) {
				if sc.shortOnly && segs > 4 {
					continue
				}
				cpl, err := sc.cpl(tc)
				if err != nil {
					t.Fatal(err)
				}
				front, st, err := s.SolveFront(ev, Options{Library: lib, Pitch: 200 * units.Micron, Coupling: cpl})
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", tc.Name, net.Name, sc.name, err)
				}
				got = append(got, fmt.Sprintf("%s/%s/%s %s", tc.Name, net.Name, sc.name, frontDigest(front, st)))
			}
		}
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(coupledGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(coupledGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	fh, err := os.Open(coupledGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	var want []string
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d fronts, golden file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("front moved:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
