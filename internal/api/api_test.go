package api

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"github.com/rip-eda/rip/internal/engine"
	"github.com/rip-eda/rip/internal/netgen"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/units"
	"github.com/rip-eda/rip/internal/wire"
)

func testNet(t *testing.T) *wire.Net {
	t.Helper()
	line, err := wire.New([]wire.Segment{
		{Length: 4e-3, ROhmPerM: 8e4, CFPerM: 2.3e-10, Layer: "metal4"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &wire.Net{Name: "apinet", Line: line, DriverWidth: 240, ReceiverWidth: 80}
}

// TestParseRequestShapes: the two accepted line forms decode, and a
// malformed wrapper surfaces its real decode error instead of silently
// degrading to a zero bare net.
func TestParseRequestShapes(t *testing.T) {
	net := testNet(t)
	bare, err := json.Marshal(net)
	if err != nil {
		t.Fatal(err)
	}

	r, err := ParseRequest(bare)
	if err != nil {
		t.Fatalf("bare net: %v", err)
	}
	if r.Net == nil || r.Net.Name != "apinet" || r.TargetMult != 0 {
		t.Fatalf("bare net parsed as %+v", r)
	}

	wrapper, err := json.Marshal(Request{Net: net, TargetMult: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	r, err = ParseRequest(wrapper)
	if err != nil {
		t.Fatalf("wrapper: %v", err)
	}
	if r.Net == nil || r.TargetMult != 1.2 {
		t.Fatalf("wrapper parsed as %+v", r)
	}

	// A wrapper with one bad field must fail loudly: the "net" key makes
	// the shape a wrapper, so the type error may not be masked by the
	// bare-net fallback (which ignores unknown keys).
	badWrapper := []byte(`{"net": ` + string(bare) + `, "target_mult": "1.2"}`)
	if _, err := ParseRequest(badWrapper); err == nil || !strings.Contains(err.Error(), "decoding request") {
		t.Fatalf("bad wrapper: err=%v, want a wrapper decode error", err)
	}

	if _, err := ParseRequest([]byte(`{"net": null}`)); err == nil {
		t.Fatal("null net should not parse")
	}
	if _, err := ParseRequest([]byte(`not json`)); err == nil || !strings.Contains(err.Error(), "not a net object") {
		t.Fatalf("garbage: err=%v", err)
	}
}

// TestRequestValidateAndJob: budget rules and unit conversion.
func TestRequestValidateAndJob(t *testing.T) {
	net := testNet(t)
	for _, tc := range []struct {
		name string
		req  Request
		ok   bool
	}{
		{"relative", Request{Net: net, TargetMult: 1.3}, true},
		{"absolute", Request{Net: net, TargetNS: 0.9}, true},
		{"none", Request{Net: net}, false},
		{"both", Request{Net: net, TargetMult: 1.3, TargetNS: 0.9}, false},
		{"no net", Request{TargetMult: 1.3}, false},
	} {
		if err := tc.req.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: err=%v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	req := Request{Net: net, TargetNS: 0.9}
	if j := req.Job(); j.Target != req.TargetNS*units.NanoSecond {
		t.Fatalf("job target %g, want 0.9 ns in seconds", j.Target)
	}
	r := Request{Net: net}
	r.ApplyDefault(1.25, 0)
	if r.TargetMult != 1.25 {
		t.Fatalf("default not applied: %+v", r)
	}
	r = Request{Net: net, TargetNS: 2}
	r.ApplyDefault(1.25, 0)
	if r.TargetMult != 0 || r.TargetNS != 2 {
		t.Fatalf("default overwrote an explicit budget: %+v", r)
	}
}

// TestForwardFrontCarriesMF: an explicit-factor front query crosses the
// forwarding bridge and back with its "mf" echoed, and with no aggressor
// or scheme naming the classic model.
func TestForwardFrontCarriesMF(t *testing.T) {
	node := tech.T90()
	cfg, err := netgen.DefaultConfig(node)
	if err != nil {
		t.Fatal(err)
	}
	nets, err := netgen.Corpus(90, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(node, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	mf := 1.0
	j := engine.Job{Net: nets[0], MF: &mf}
	fwd, err := ParseRequest(mustJSON(t, FromJob(j)))
	if err != nil || fwd.MF == nil || *fwd.MF != 1 {
		t.Fatalf("forwarded request: err=%v mf=%v", err, fwd.MF)
	}
	raw := mustJSON(t, FromFrontResult(eng.Front(fwd.Job())))
	if !strings.Contains(string(raw), `"mf":1`) || strings.Contains(string(raw), `"aggressor"`) {
		t.Fatalf("front response %s: want \"mf\":1 and no aggressor", raw)
	}
	var resp FrontResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	fr := ToFrontResult(resp, j)
	if fr.Err != nil || fr.MF == nil || *fr.MF != 1 || fr.Aggressor != "" || fr.Scheme != "" || len(fr.Points) == 0 {
		t.Fatalf("lifted front: err=%v mf=%v aggressor=%q scheme=%q points=%d", fr.Err, fr.MF, fr.Aggressor, fr.Scheme, len(fr.Points))
	}
}

// mustJSON marshals v or fails the test.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestFromResultError: a failed result carries only the error.
func TestFromResultError(t *testing.T) {
	net := testNet(t)
	resp := FromResult(engine.Result{Net: net, Err: errors.New("boom")})
	if resp.Net != "apinet" || resp.Err == nil || resp.Err.Message != "boom" || resp.Feasible {
		t.Fatalf("error result mapped to %+v", resp)
	}
}
