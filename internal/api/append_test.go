package api

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"github.com/rip-eda/rip/internal/engine"
	"github.com/rip-eda/rip/internal/netgen"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/tree"
	"github.com/rip-eda/rip/internal/units"
)

// appendable is what the server's writer asks of a response.
type appendable interface {
	AppendJSON(dst []byte) ([]byte, bool)
}

type namedAnswer struct {
	name string
	v    appendable
}

// servedAnswers solves one request of each served shape twice on a fresh
// 65nm engine and returns the warm answers in wire form: a line, a
// targets_ns sweep, an 8-sink tree, a line's front and a 4-track bus.
func servedAnswers(tb testing.TB) []namedAnswer {
	tb.Helper()
	node := tech.T65()
	m, err := engine.NewMulti(tech.DefaultRegistry(), node.Name, engine.Options{Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	cfg, err := netgen.DefaultConfig(node)
	if err != nil {
		tb.Fatal(err)
	}
	nets, err := netgen.Corpus(41, 1, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tcfg, err := tree.DefaultGenConfig(node)
	if err != nil {
		tb.Fatal(err)
	}
	tcfg.Sinks = 8
	tr, err := tree.Generate(rand.New(rand.NewSource(42)), tcfg)
	if err != nil {
		tb.Fatal(err)
	}
	groups, err := netgen.BusCorpus(43, 16, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	bus := BusRequest{Tech: node.Name, TargetMult: 1.3}
	for _, g := range groups {
		if len(g) == 4 {
			bus.Tracks = g
			break
		}
	}
	ctx := context.Background()
	line := Request{Net: nets[0], Tech: node.Name, TargetMult: 1.3}
	tmin := m.FrontContext(ctx, line.Job()).TMin / units.NanoSecond
	sweep := Request{Net: nets[0], Tech: node.Name, TargetsNS: []float64{1.1 * tmin, 1.3 * tmin, 1.6 * tmin, 2 * tmin}}
	treeReq := Request{Tree: &tree.Net{Name: "t8", Tree: tr, DriverWidth: 240}, Tech: node.Name, TargetMult: 1.3}
	var out []namedAnswer
	for range 2 {
		lineResp := FromResult(m.SolveContext(ctx, line.Job()))
		sweepResp := FromResult(m.SolveContext(ctx, sweep.Job()))
		treeResp := FromResult(m.SolveContext(ctx, treeReq.Job()))
		front := FromFrontResult(m.FrontContext(ctx, line.Job()))
		busResp := FromBusResult(m.SolveBus(ctx, bus.Job()))
		out = []namedAnswer{{"line", &lineResp}, {"sweep", &sweepResp}, {"tree", &treeResp}, {"front", &front}, {"bus", &busResp}}
	}
	return out
}

// TestAppendJSONServedAnswers: every served shape takes the fast path and
// writes exactly json.Marshal's bytes.
func TestAppendJSONServedAnswers(t *testing.T) {
	for _, a := range servedAnswers(t) {
		got, ok := a.v.AppendJSON(nil)
		want, err := json.Marshal(a.v)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("%s: AppendJSON accepted %v with\n%s\nwant\n%s", a.name, ok, got, want)
		}
	}
}

// specials are the floats fuzzSource hands out by index: signed zeros,
// subnormals, the edges of encoding/json's exponent form and the values
// json.Marshal refuses.
var specials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
	1e-6, math.Nextafter(1e-6, 0), -math.Nextafter(1e-6, 0), 1e-7,
	1e21, math.Nextafter(1e21, 0), -1e21, math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// fuzzSource reads fuzz bytes as response fields, zeros once exhausted.
type fuzzSource struct{ b []byte }

func (s *fuzzSource) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *fuzzSource) bool() bool { return s.byte()&1 == 1 }
func (s *fuzzSource) int() int   { return int(int8(s.byte())) }

// float is a special by index, or else the float64 of 8 raw bytes.
func (s *fuzzSource) float() float64 {
	if k := int(s.byte()); k < len(specials) {
		return specials[k]
	}
	var bits uint64
	for range 8 {
		bits = bits<<8 | uint64(s.byte())
	}
	return math.Float64frombits(bits)
}

// str is up to 7 bytes: raw when the length byte's top bit is set, else
// mapped to lowercase letters.
func (s *fuzzSource) str() string {
	n := s.byte()
	b := make([]byte, n%8)
	for i := range b {
		b[i] = s.byte()
		if n&0x80 == 0 {
			b[i] = 'a' + b[i]%26
		}
	}
	return string(b)
}

// count is a list length, -1 for a nil list.
func (s *fuzzSource) count() int { return int(s.byte()%5) - 1 }

func (s *fuzzSource) floats() []float64 {
	n := s.count()
	if n < 0 {
		return nil
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = s.float()
	}
	return xs
}

func (s *fuzzSource) ptr() *float64 {
	if !s.bool() {
		return nil
	}
	x := s.float()
	return &x
}

func (s *fuzzSource) buffers() []TreeBuffer {
	n := s.count()
	if n < 0 {
		return nil
	}
	bs := make([]TreeBuffer, n)
	for i := range bs {
		bs[i] = TreeBuffer{NodeID: s.int(), WidthU: s.float()}
	}
	return bs
}

func (s *fuzzSource) errInfo() *ErrorInfo {
	if s.byte()%8 != 7 {
		return nil
	}
	return &ErrorInfo{Code: s.str(), Message: s.str(), Net: s.str(), Tech: s.str()}
}

func (s *fuzzSource) response() *Response {
	r := &Response{V: s.int(), Net: s.str(), Kind: s.str(), Tech: s.str(), Feasible: s.bool(),
		TargetNS: s.float(), DelayNS: s.float(), SlackNS: s.float(), TotalWidthU: s.float(),
		PositionsUM: s.floats(), WidthsU: s.floats(), Buffers: s.buffers()}
	if n := s.count(); n >= 0 {
		r.Sweep = make([]SweepPoint, n)
		for i := range r.Sweep {
			r.Sweep[i] = SweepPoint{TargetNS: s.float(), Feasible: s.bool(), DelayNS: s.float(), SlackNS: s.float(),
				TotalWidthU: s.float(), PositionsUM: s.floats(), WidthsU: s.floats(), Buffers: s.buffers(),
				StaggeredUM: s.float(), ShieldedUM: s.float()}
		}
	}
	r.Aggressor, r.Scheme, r.MF = s.str(), s.str(), s.ptr()
	r.StaggeredUM, r.ShieldedUM, r.CacheHit, r.Err = s.float(), s.float(), s.bool(), s.errInfo()
	return r
}

func (s *fuzzSource) front() *FrontResponse {
	r := &FrontResponse{V: s.int(), Net: s.str(), Kind: s.str(), Tech: s.str(), TMinNS: s.float()}
	if n := s.count(); n >= 0 {
		r.Points = make([]FrontPoint, n)
		for i := range r.Points {
			r.Points[i] = FrontPoint{DelayNS: s.float(), SlackNS: s.float(), TotalWidthU: s.float(),
				Repeaters: s.int(), StaggeredUM: s.float(), ShieldedUM: s.float()}
		}
	}
	r.Aggressor, r.Scheme, r.MF, r.CacheHit, r.Err = s.str(), s.str(), s.ptr(), s.bool(), s.errInfo()
	return r
}

func (s *fuzzSource) bus() *BusResponse {
	r := &BusResponse{V: s.int(), Tech: s.str()}
	if n := s.count(); n >= 0 {
		r.Tracks = make([]BusTrackResponse, n)
		for i := range r.Tracks {
			r.Tracks[i] = BusTrackResponse{Net: s.str(), Scheme: s.str(), MF: s.float(), TargetNS: s.float(),
				TMinNS: s.float(), BaselineFeasible: s.bool(), BaselineWidthU: s.float(), Feasible: s.bool(),
				WidthU: s.float(), DelayNS: s.float(), PositionsUM: s.floats(), WidthsU: s.floats(),
				AreaSavedUM: s.float(), PowerSavedUW: s.float(), CacheHit: s.bool()}
		}
	}
	r.GroupBaselineWidthU, r.GroupWidthU = s.float(), s.float()
	r.BaselineInfeasible, r.Infeasible = s.int(), s.int()
	r.GroupAreaSaved, r.GroupPowerSaved, r.Err = s.float(), s.float(), s.errInfo()
	return r
}

// FuzzAppendJSON builds responses of all three kinds from fuzz bytes and
// judges AppendJSON by json.Marshal: whenever it accepts, its bytes are
// json.Marshal's, after an untouched prefix; wherever json.Marshal errors,
// it declines; and a decline leaves dst as it was.
func FuzzAppendJSON(f *testing.F) {
	for kind := range 3 {
		for i := range len(specials) + 2 {
			f.Add(uint8(kind), bytes.Repeat([]byte{byte(i)}, 160))
		}
		rng := rand.New(rand.NewSource(int64(kind)))
		for range 4 {
			data := make([]byte, 200)
			rng.Read(data)
			f.Add(uint8(kind), data)
		}
	}
	prefix := []byte("prefix")
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		s := &fuzzSource{b: data}
		var v appendable
		switch kind % 3 {
		case 0:
			v = s.response()
		case 1:
			v = s.front()
		default:
			v = s.bus()
		}
		dst := append(make([]byte, 0, 64), prefix...)
		got, ok := v.AppendJSON(dst)
		want, err := json.Marshal(v)
		switch {
		case err != nil && ok:
			t.Fatalf("json.Marshal refused %+v (%v), but AppendJSON wrote %s", v, err, got)
		case !ok && (len(got) != len(prefix) || &got[0] != &dst[0]):
			t.Fatalf("a decline changed dst to %q", got)
		case !bytes.Equal(got[:len(prefix)], prefix):
			t.Fatalf("the prefix became %q", got[:len(prefix)])
		case ok && !bytes.Equal(got[len(prefix):], want):
			t.Fatalf("AppendJSON wrote\n%s\njson.Marshal writes\n%s", got[len(prefix):], want)
		}
	})
}

// BenchmarkAppendJSON times AppendJSON on each served shape against a
// json.Encoder writing the same value, the encoder the server used before.
func BenchmarkAppendJSON(b *testing.B) {
	for _, a := range servedAnswers(b) {
		b.Run(a.name+"/append", func(b *testing.B) {
			b.ReportAllocs()
			var dst []byte
			for range b.N {
				dst, _ = a.v.AppendJSON(dst[:0])
				dst = append(dst, '\n')
			}
			b.SetBytes(int64(len(dst)))
		})
		b.Run(a.name+"/encoder", func(b *testing.B) {
			b.ReportAllocs()
			var buf bytes.Buffer
			for range b.N {
				buf.Reset()
				json.NewEncoder(&buf).Encode(a.v) //nolint:errcheck // served values encode
			}
			b.SetBytes(int64(buf.Len()))
		})
	}
}
