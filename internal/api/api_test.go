package api

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"github.com/rip-eda/rip/internal/engine"
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

// TestForwardCarriesEps: FromJob pins "eps": 0 on every line job, so a
// peer still running a release with ε relaxation cannot apply its own
// -eps default to a forwarded job; tree jobs carry no eps.
func TestForwardCarriesEps(t *testing.T) {
	net := testNet(t)
	if r := FromJob(engine.Job{Net: net, TargetMult: 1.3}); r.Eps == nil || *r.Eps != 0 {
		t.Fatalf("line job must forward an explicit eps=0, got %+v", r.Eps)
	}
	if r := FromJob(engine.Job{TreeNet: testTreeNet(t), TargetMult: 1.3}); r.Eps != nil {
		t.Fatalf("tree job forwarded an eps: %g", *r.Eps)
	}
}

// TestFromResultError: a failed result carries only the error.
func TestFromResultError(t *testing.T) {
	net := testNet(t)
	resp := FromResult(engine.Result{Net: net, Err: errors.New("boom")})
	if resp.Net != "apinet" || resp.Err == nil || resp.Err.Message != "boom" || resp.Feasible {
		t.Fatalf("error result mapped to %+v", resp)
	}
}
