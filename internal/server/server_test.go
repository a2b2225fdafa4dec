package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/rip-eda/rip/internal/api"
	"github.com/rip-eda/rip/internal/engine"
	"github.com/rip-eda/rip/internal/netgen"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/wire"
)

func corpus(t testing.TB, seed int64, n int) []*wire.Net {
	t.Helper()
	node := tech.T180()
	cfg, err := netgen.DefaultConfig(node)
	if err != nil {
		t.Fatal(err)
	}
	nets, err := netgen.Corpus(seed, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nets
}

// newTestServer builds a server over a fresh single-node (180nm) multi
// engine. workers=1 makes cache hit/miss sequences deterministic
// (duplicate in-flight signatures race by design under parallelism).
func newTestServer(t testing.TB, workers int, opts Options) (*Server, *engine.Multi) {
	t.Helper()
	return newTechServer(t, workers, opts, "180nm")
}

// newTechServer builds a server over a multi engine serving the listed
// built-in nodes; the first is the default.
func newTechServer(t testing.TB, workers int, opts Options, techs ...string) (*Server, *engine.Multi) {
	t.Helper()
	reg := tech.NewRegistry()
	for _, name := range techs {
		if _, err := reg.RegisterBuiltin(name); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := engine.NewMulti(reg, techs[0], engine.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return New(eng, opts), eng
}

// techEngine unwraps one node's engine for per-technology stats.
func techEngine(t *testing.T, eng *engine.Multi, name string) *engine.Engine {
	t.Helper()
	e, ok := eng.Engine(name)
	if !ok {
		t.Fatalf("no engine for node %q", name)
	}
	return e
}

func post(t testing.TB, s *Server, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	return rr
}

func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
	return rr
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func decodeResponse(t *testing.T, rr *httptest.ResponseRecorder) api.Response {
	t.Helper()
	var resp api.Response
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding response %q: %v", rr.Body.String(), err)
	}
	return resp
}

// TestOptimize: a well-formed single-net request solves and reports the
// solution in wire units.
func TestOptimize(t *testing.T) {
	s, _ := newTestServer(t, 4, Options{})
	net := corpus(t, 11, 1)[0]
	rr := post(t, s, "/v1/optimize", mustMarshal(t, api.Request{Net: net, TargetMult: 1.3}))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	resp := decodeResponse(t, rr)
	if resp.Err != nil {
		t.Fatalf("unexpected error: %+v", resp.Err)
	}
	if !resp.Feasible {
		t.Fatal("corpus net at 1.3×τmin should be feasible")
	}
	if resp.Net != net.Name {
		t.Fatalf("response net %q, want %q", resp.Net, net.Name)
	}
	if resp.DelayNS <= 0 || resp.DelayNS > resp.TargetNS*(1+1e-12) {
		t.Fatalf("delay %g ns vs target %g ns", resp.DelayNS, resp.TargetNS)
	}
	if len(resp.PositionsUM) != len(resp.WidthsU) {
		t.Fatalf("positions/widths mismatch: %d vs %d", len(resp.PositionsUM), len(resp.WidthsU))
	}
}

// TestOptimizeRejectsBadRequests: malformed bodies and shape errors are
// 400s, and the engine is never consulted.
func TestOptimizeRejectsBadRequests(t *testing.T) {
	s, eng := newTestServer(t, 4, Options{})
	net := corpus(t, 13, 1)[0]
	cases := []struct {
		name string
		body []byte
	}{
		{"malformed", []byte(`{"net": `)},
		{"no net", []byte(`{"target_mult": 1.2}`)},
		{"no target", mustMarshal(t, api.Request{Net: net})},
		{"both targets", mustMarshal(t, api.Request{Net: net, TargetMult: 1.2, TargetNS: 1})},
	}
	for _, tc := range cases {
		rr := post(t, s, "/v1/optimize", tc.body)
		if rr.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, rr.Code, rr.Body.String())
		}
	}
	if st := eng.CacheStats(); st.Hits+st.Misses+st.Rejected != 0 {
		t.Fatalf("bad requests reached the engine: %+v", st)
	}
	if rr := get(t, s, "/v1/optimize"); rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET on optimize: status %d, want 405", rr.Code)
	}
}

// TestBatchArray: a JSON array mixing wrapper elements, bare nets (which
// inherit the server default budget) and a malformed element comes back
// in input order with each error isolated to its element.
func TestBatchArray(t *testing.T) {
	s, _ := newTestServer(t, 1, Options{DefaultTargetMult: 1.3})
	nets := corpus(t, 17, 2)
	bare := mustMarshal(t, nets[1]) // bare net, no wrapper
	elems := []json.RawMessage{
		mustMarshal(t, api.Request{Net: nets[0], TargetMult: 1.4}),
		bare,
		[]byte(`{"net": {"name": "broken", "segments": [{"length_um": -5}]}}`),
		mustMarshal(t, api.Request{Net: nets[0], TargetMult: 1.4}),
	}
	rr := post(t, s, "/v1/batch", mustMarshal(t, elems))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	var resps []api.Response
	if err := json.Unmarshal(rr.Body.Bytes(), &resps); err != nil {
		t.Fatal(err)
	}
	if len(resps) != len(elems) {
		t.Fatalf("%d responses for %d elements", len(resps), len(elems))
	}
	for i, want := range []bool{false, false, true, false} {
		if got := resps[i].Err != nil; got != want {
			t.Fatalf("element %d: error=%+v, want error=%v", i, resps[i].Err, want)
		}
	}
	if !resps[1].Feasible {
		t.Fatal("bare net with server default budget should have solved")
	}
	if resps[0].Net != nets[0].Name || resps[1].Net != nets[1].Name {
		t.Fatalf("order not preserved: %q, %q", resps[0].Net, resps[1].Net)
	}
	if !resps[3].CacheHit {
		t.Fatal("repeated element should be served from the shared cache")
	}
}

// TestBatchArrayTooLarge: the array path is bounded; oversize batches
// are told to stream.
func TestBatchArrayTooLarge(t *testing.T) {
	s, _ := newTestServer(t, 4, Options{MaxBatchNets: 2, DefaultTargetMult: 1.3})
	net := corpus(t, 19, 1)[0]
	elems := []json.RawMessage{mustMarshal(t, net), mustMarshal(t, net), mustMarshal(t, net)}
	rr := post(t, s, "/v1/batch", mustMarshal(t, elems))
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (%s)", rr.Code, rr.Body.String())
	}
}

// TestBatchJSONL: streamed bodies come back as one response line per
// input line, in input order, with a parse failure isolated to its line.
func TestBatchJSONL(t *testing.T) {
	s, _ := newTestServer(t, 1, Options{DefaultTargetMult: 1.3})
	nets := corpus(t, 23, 3)
	var body bytes.Buffer
	for _, n := range nets {
		body.Write(mustMarshal(t, n))
		body.WriteByte('\n')
	}
	body.WriteString("this is not json\n")
	body.Write(mustMarshal(t, api.Request{Net: nets[0], TargetMult: 1.3}))
	body.WriteByte('\n')

	rr := post(t, s, "/v1/batch", body.Bytes())
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var resps []api.Response
	sc := bufio.NewScanner(rr.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var r api.Response
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %d: %v", len(resps), err)
		}
		resps = append(resps, r)
	}
	if len(resps) != 5 {
		t.Fatalf("%d response lines, want 5", len(resps))
	}
	for i := 0; i < 3; i++ {
		if resps[i].Net != nets[i].Name || resps[i].Err != nil || !resps[i].Feasible {
			t.Fatalf("line %d: %+v", i, resps[i])
		}
	}
	if resps[3].Err == nil || !strings.Contains(resps[3].Err.Message, "line 4") {
		t.Fatalf("parse failure should name its line: %+v", resps[3].Err)
	}
	if resps[4].Err != nil || !resps[4].CacheHit {
		t.Fatalf("final repeat should be a cache hit: %+v", resps[4])
	}
}

// TestBatchWarmCacheVisibleInMetrics: the acceptance scenario — a
// repeated-net batch over HTTP leaves engine cache hits visible at
// /metrics, proving the cache is a cross-request asset.
func TestBatchWarmCacheVisibleInMetrics(t *testing.T) {
	s, _ := newTestServer(t, 1, Options{DefaultTargetMult: 1.25})
	net := corpus(t, 29, 1)[0]
	const repeats = 6
	var body bytes.Buffer
	for i := 0; i < repeats; i++ {
		body.Write(mustMarshal(t, net))
		body.WriteByte('\n')
	}
	// Two requests: the second is served warm from the first's work.
	for i := 0; i < 2; i++ {
		if rr := post(t, s, "/v1/batch", body.Bytes()); rr.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, rr.Code)
		}
	}
	rr := get(t, s, "/metrics")
	if rr.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rr.Code)
	}
	text := rr.Body.String()
	hits := metricValue(t, text, `rip_cache_hits_total{tech="180nm"}`)
	if hits < 2*repeats-1 {
		t.Fatalf("cache hits %g, want ≥ %d:\n%s", hits, 2*repeats-1, text)
	}
	if nets := metricValue(t, text, "rip_nets_total"); nets != 2*repeats {
		t.Fatalf("nets total %g, want %d", nets, 2*repeats)
	}
	if reqs := metricValue(t, text, `rip_requests_total{route="batch"}`); reqs != 2 {
		t.Fatalf("batch requests %g, want 2", reqs)
	}
	if cnt := metricValue(t, text, `rip_http_request_duration_seconds_count{route="batch"}`); cnt != 2 {
		t.Fatalf("latency count %g, want 2", cnt)
	}
	if inf := metricValue(t, text, "rip_requests_inflight"); inf != 0 {
		t.Fatalf("inflight gauge %g after quiescence", inf)
	}
	// DP work counters: the one full solve ran τmin + pipeline dynamic
	// programs; the repeats were cache hits and added nothing, so the
	// counters reflect a single net's DP workload.
	if solves := metricValue(t, text, `rip_dp_solves_total{tech="180nm"}`); solves < 2 {
		t.Fatalf("dp solves %g, want ≥ 2 (τmin + coarse)", solves)
	}
	gen := metricValue(t, text, `rip_dp_generated_total{tech="180nm"}`)
	kept := metricValue(t, text, `rip_dp_kept_total{tech="180nm"}`)
	if gen == 0 || kept == 0 || kept > gen {
		t.Fatalf("dp work counters inconsistent: generated %g kept %g", gen, kept)
	}
	if mpl := metricValue(t, text, `rip_dp_max_per_level{tech="180nm"}`); mpl == 0 {
		t.Fatalf("dp max-per-level gauge not populated")
	}
	if aborts := metricValue(t, text, `rip_dp_budget_aborts_total{tech="180nm"}`); aborts != 0 {
		t.Fatalf("unexpected dp budget aborts %g", aborts)
	}
}

// metricValue extracts one sample from the Prometheus text exposition.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[len(name)+1:], "%g", &v); err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("metric %s not found in:\n%s", name, text)
	return 0
}

// TestHealthz: healthy → /readyz 200 ok; draining → 503, so load
// balancers stop routing to a server that is shutting down. The retired
// /healthz alias is gone: 404.
func TestHealthz(t *testing.T) {
	s, _ := newTestServer(t, 4, Options{})
	rr := get(t, s, "/readyz")
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), `"ok"`) {
		t.Fatalf("readyz %d: %s", rr.Code, rr.Body.String())
	}
	if rr := get(t, s, "/healthz"); rr.Code != http.StatusNotFound {
		t.Fatalf("retired /healthz: status %d, want 404", rr.Code)
	}
	s.BeginShutdown()
	rr = get(t, s, "/readyz")
	if rr.Code != http.StatusServiceUnavailable || !strings.Contains(rr.Body.String(), `"draining"`) {
		t.Fatalf("draining readyz %d: %s", rr.Code, rr.Body.String())
	}
	if v := metricValue(t, get(t, s, "/metrics").Body.String(), "rip_draining"); v != 1 {
		t.Fatalf("rip_draining %g, want 1", v)
	}
}

// TestEmptyBatchBody: an empty body is a 400, not a hang or empty 200.
func TestEmptyBatchBody(t *testing.T) {
	s, _ := newTestServer(t, 4, Options{})
	if rr := post(t, s, "/v1/batch", nil); rr.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rr.Code)
	}
}
