package server

// HTTP conformance tests for multi-technology serving: node selection,
// defaulting, rejection, per-line attribution in mixed streams, and the
// tech label on /metrics.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"github.com/rip-eda/rip/internal/api"
)

// TestConformanceUnknownTechIs400: /v1/optimize answers an unknown node
// with 400 before solving, and the body lists every served node.
func TestConformanceUnknownTechIs400(t *testing.T) {
	s, eng := newTechServer(t, 1, Options{}, "180nm", "65nm")
	net := corpus(t, 51, 1)[0]
	body := mustMarshal(t, api.Request{Net: net, Tech: "7nm", TargetMult: 1.3})
	rr := post(t, s, "/v1/optimize", body)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", rr.Code, rr.Body.String())
	}
	resp := decodeResponse(t, rr)
	for _, known := range []string{"180nm", "65nm"} {
		if resp.Err == nil || !strings.Contains(resp.Err.Message, known) {
			t.Fatalf("400 envelope %+v does not list served node %s", resp.Err, known)
		}
	}
	if st := eng.CacheStats(); st.Hits+st.Misses != 0 {
		t.Fatalf("unknown-tech request reached the engine: %+v", st)
	}
}

// TestConformanceOmittedTechUsesDefault: a request without "tech" solves
// on the server's default node and says so in the response.
func TestConformanceOmittedTechUsesDefault(t *testing.T) {
	s, _ := newTechServer(t, 1, Options{}, "90nm", "180nm")
	net := corpus(t, 53, 1)[0]
	resp := decodeResponse(t, post(t, s, "/v1/optimize",
		mustMarshal(t, api.Request{Net: net, TargetMult: 1.3})))
	if resp.Err != nil || !resp.Feasible {
		t.Fatalf("response: %+v", resp)
	}
	if resp.Tech != "90nm" {
		t.Fatalf("default-node attribution %q, want 90nm (the server default)", resp.Tech)
	}
	// An alias selects the same node and reports the canonical name.
	aliased := decodeResponse(t, post(t, s, "/v1/optimize",
		mustMarshal(t, api.Request{Net: net, Tech: "t180", TargetMult: 1.3})))
	if aliased.Err != nil || aliased.Tech != "180nm" {
		t.Fatalf("alias response: %+v", aliased)
	}
}

// TestConformanceMixedTechJSONL is the acceptance scenario: one JSONL
// stream interleaving two nodes (plus an unknown-node line) comes back
// in input order with per-line tech attribution, the bad line isolated
// with the known-node list, and both nodes' caches isolated — the
// repeated lines hit only on their own node.
func TestConformanceMixedTechJSONL(t *testing.T) {
	s, eng := newTechServer(t, 1, Options{DefaultTargetMult: 1.3}, "180nm", "65nm")
	net := corpus(t, 57, 1)[0]

	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	techSeq := []string{"180nm", "65nm", "180nm", "65nm", ""}
	for _, techName := range techSeq {
		if err := enc.Encode(api.Request{Net: net, Tech: techName, TargetMult: 1.3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Encode(api.Request{Net: net, Tech: "3nm", TargetMult: 1.3}); err != nil {
		t.Fatal(err)
	}

	rr := post(t, s, "/v1/batch", body.Bytes())
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	var got []api.Response
	sc := bufio.NewScanner(bytes.NewReader(rr.Body.Bytes()))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var r api.Response
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		got = append(got, r)
	}
	if len(got) != 6 {
		t.Fatalf("expected 6 result lines, got %d: %s", len(got), rr.Body.String())
	}
	wantTech := []string{"180nm", "65nm", "180nm", "65nm", "180nm"}
	for i, want := range wantTech {
		if got[i].Err != nil || !got[i].Feasible {
			t.Fatalf("line %d: %+v", i, got[i])
		}
		if got[i].Tech != want {
			t.Fatalf("line %d attributed to %q, want %q", i, got[i].Tech, want)
		}
	}
	// Cache isolation across the stream: the first 180nm and 65nm lines
	// are misses, their repeats (and the default-node line) hits.
	for i, wantHit := range []bool{false, false, true, true, true} {
		if got[i].CacheHit != wantHit {
			t.Fatalf("line %d cache_hit=%v, want %v", i, got[i].CacheHit, wantHit)
		}
	}
	// The two nodes disagree on the answer — proof the routing mattered.
	if got[0].DelayNS == got[1].DelayNS {
		t.Fatal("180nm and 65nm returned identical delays; routing is suspect")
	}
	if got[5].Err == nil || !strings.Contains(got[5].Err.Message, "180nm") {
		t.Fatalf("unknown-node line: %+v", got[5])
	}
	for _, name := range []string{"180nm", "65nm"} {
		if st := techEngine(t, eng, name).CacheStats(); st.Misses != 1 {
			t.Fatalf("%s engine: %+v, want exactly 1 miss", name, st)
		}
	}
}

// TestConformanceMetricsTechLabel: after traffic on two nodes, /metrics
// carries per-node labeled cache and DP series with the traffic split.
func TestConformanceMetricsTechLabel(t *testing.T) {
	s, _ := newTechServer(t, 1, Options{}, "180nm", "65nm")
	net := corpus(t, 59, 1)[0]
	for _, techName := range []string{"180nm", "65nm", "65nm"} {
		rr := post(t, s, "/v1/optimize", mustMarshal(t, api.Request{Net: net, Tech: techName, TargetMult: 1.3}))
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: status %d", techName, rr.Code)
		}
	}
	text := get(t, s, "/metrics").Body.String()
	if v := metricValue(t, text, `rip_technologies`); v != 2 {
		t.Fatalf("rip_technologies %g, want 2", v)
	}
	for _, check := range []struct {
		metric string
		want   float64
	}{
		{`rip_cache_misses_total{tech="180nm"}`, 1},
		{`rip_cache_misses_total{tech="65nm"}`, 1},
		{`rip_cache_hits_total{tech="180nm"}`, 0},
		{`rip_cache_hits_total{tech="65nm"}`, 1},
	} {
		if v := metricValue(t, text, check.metric); v != check.want {
			t.Fatalf("%s = %g, want %g\n%s", check.metric, v, check.want, text)
		}
	}
	for _, name := range []string{"180nm", "65nm"} {
		if v := metricValue(t, text, fmt.Sprintf("rip_dp_solves_total{tech=%q}", name)); v == 0 {
			t.Fatalf("no DP work recorded for %s", name)
		}
	}
	// /readyz advertises the served nodes.
	var health map[string]any
	if err := json.Unmarshal(get(t, s, "/readyz").Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health["default_tech"] != "180nm" {
		t.Fatalf("readyz default_tech %v", health["default_tech"])
	}
	if n := len(health["technologies"].([]any)); n != 2 {
		t.Fatalf("readyz technologies %v", health["technologies"])
	}
}
