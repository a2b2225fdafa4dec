package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/rip-eda/rip/internal/api"
	"github.com/rip-eda/rip/internal/netgen"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/tree"
)

func treeNets(t testing.TB, seed int64, n int) []*tree.Net {
	t.Helper()
	cfg, err := netgen.DefaultTreeConfig(tech.T180())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sinks = 4
	nets, err := netgen.TreeCorpus(seed, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nets
}

// TestOptimizeTree: a tree request through /v1/optimize solves and
// reports a tree-kind response with buffers.
func TestOptimizeTree(t *testing.T) {
	s, _ := newTestServer(t, 1, Options{})
	tn := treeNets(t, 3, 1)[0]
	body := mustMarshal(t, api.Request{Tree: tn, TargetMult: 1.3})
	rr := post(t, s, "/v1/optimize", body)
	if rr.Code != 200 {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	resp := decodeResponse(t, rr)
	if resp.Kind != "tree" || !resp.Feasible || resp.Err != nil {
		t.Fatalf("response: %+v", resp)
	}
	if resp.TotalWidthU <= 0 || len(resp.Buffers) == 0 {
		t.Errorf("expected a buffered placement: %+v", resp)
	}
}

// TestOptimizeTreeEmbeddedDeadlines: a tree whose sinks carry rat_ns
// needs no explicit budget even without a server default.
func TestOptimizeTreeEmbeddedDeadlines(t *testing.T) {
	s, _ := newTestServer(t, 1, Options{})
	tn := treeNets(t, 4, 1)[0] // generator sets every sink RAT
	rr := post(t, s, "/v1/optimize", mustMarshal(t, api.Request{Tree: tn}))
	if rr.Code != 200 {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	resp := decodeResponse(t, rr)
	if resp.Kind != "tree" || !resp.Feasible {
		t.Fatalf("response: %+v", resp)
	}
	if resp.TargetNS != 0 {
		t.Errorf("embedded-deadline solve should report target_ns 0, got %g", resp.TargetNS)
	}
}

// TestBatchMixedKindsJSONL streams interleaved line and tree requests
// through /v1/batch and checks order, kinds, and per-line isolation —
// the acceptance shape for mixed workloads.
func TestBatchMixedKindsJSONL(t *testing.T) {
	s, eng := newTestServer(t, 2, Options{})
	lines := corpus(t, 11, 2)
	trees := treeNets(t, 12, 2)

	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for i := 0; i < 2; i++ {
		if err := enc.Encode(api.Request{Net: lines[i], TargetMult: 1.3}); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(api.Request{Tree: trees[i], TargetMult: 1.3}); err != nil {
			t.Fatal(err)
		}
	}
	body.WriteString("{\"tree\": 12}\n") // malformed line, isolated

	rr := post(t, s, "/v1/batch", body.Bytes())
	if rr.Code != 200 {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	var got []api.Response
	sc := bufio.NewScanner(bytes.NewReader(rr.Body.Bytes()))
	for sc.Scan() {
		var r api.Response
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		got = append(got, r)
	}
	if len(got) != 5 {
		t.Fatalf("expected 5 result lines, got %d: %s", len(got), rr.Body.String())
	}
	for i := 0; i < 4; i++ {
		wantTree := i%2 == 1
		if (got[i].Kind == "tree") != wantTree {
			t.Errorf("line %d: kind %q, wantTree=%v", i, got[i].Kind, wantTree)
		}
		if !got[i].Feasible || got[i].Err != nil {
			t.Errorf("line %d: %+v", i, got[i])
		}
	}
	if got[4].Err == nil {
		t.Errorf("malformed line should carry an error: %+v", got[4])
	}
	if got[4].Tech != "" {
		t.Errorf("unparsed line must not claim tech attribution: %+v", got[4])
	}
	if st := techEngine(t, eng, "180nm").TreeDPStats(); st.Solves == 0 {
		t.Error("tree DP counters should have accumulated")
	}
}

// TestBatchArrayWithTrees: the array body shape accepts tree wrappers
// too.
func TestBatchArrayWithTrees(t *testing.T) {
	s, _ := newTestServer(t, 2, Options{})
	lines := corpus(t, 13, 1)
	trees := treeNets(t, 14, 1)
	body := mustMarshal(t, []api.Request{
		{Net: lines[0], TargetMult: 1.3},
		{Tree: trees[0], TargetMult: 1.3},
	})
	rr := post(t, s, "/v1/batch", body)
	if rr.Code != 200 {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	var got []api.Response
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Kind != "" || got[1].Kind != "tree" {
		t.Fatalf("responses: %+v", got)
	}
	for i, r := range got {
		if !r.Feasible || r.Err != nil {
			t.Errorf("element %d: %+v", i, r)
		}
	}
}

// TestTreeCacheAcrossRequests: the second request with the same tree
// shape is served from the shared engine's cache, and the rip_tree_dp_*
// counters appear at /metrics.
func TestTreeCacheAcrossRequests(t *testing.T) {
	s, eng := newTestServer(t, 1, Options{})
	tn := treeNets(t, 15, 1)[0]
	body := mustMarshal(t, api.Request{Tree: tn, TargetMult: 1.3})

	first := decodeResponse(t, post(t, s, "/v1/optimize", body))
	if first.CacheHit || !first.Feasible {
		t.Fatalf("first: %+v", first)
	}
	second := decodeResponse(t, post(t, s, "/v1/optimize", body))
	if !second.CacheHit || !second.Feasible {
		t.Fatalf("second: %+v", second)
	}
	if first.TotalWidthU != second.TotalWidthU {
		t.Errorf("hit width %g != solve width %g", second.TotalWidthU, first.TotalWidthU)
	}
	if st := eng.CacheStats(); st.Hits == 0 {
		t.Errorf("engine cache stats: %+v", st)
	}
	metrics := get(t, s, "/metrics").Body.String()
	for _, metric := range []string{"rip_tree_dp_solves_total", "rip_tree_dp_generated_total", "rip_tree_dp_kept_total", "rip_tree_dp_max_per_node"} {
		if !strings.Contains(metrics, metric) {
			t.Errorf("/metrics missing %s", metric)
		}
	}
}

// TestBatchJSONLFullDuplexStreaming reproduces the handler's real
// full-duplex shape over a live connection: the client uploads the next
// body line only after reading the previous result line, so the first
// response flush always precedes the rest of the upload. Without
// EnableFullDuplex in batchJSONL, net/http closes the unconsumed body at
// that first flush (its issue-15527 deadlock guard) and every later line
// dies as "invalid Read on closed Body" — which is how fast-solving
// (tree or warm-cache) streams truncated before the fix.
func TestBatchJSONLFullDuplexStreaming(t *testing.T) {
	s, _ := newTestServer(t, 1, Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	trees := treeNets(t, 21, 3) // embedded deadlines: sub-ms solves

	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", ts.URL+"/v1/batch", pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, errc := (*http.Response)(nil), make(chan error, 1)
	go func() {
		var e error
		resp, e = http.DefaultClient.Do(req) //nolint:bodyclose // closed below
		errc <- e
	}()

	write := func(tn *tree.Net) {
		line := mustMarshal(t, api.Request{Tree: tn})
		if _, err := pw.Write(append(line, '\n')); err != nil {
			t.Fatalf("writing body line: %v", err)
		}
	}
	write(trees[0])
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	readLine := func() api.Response {
		raw, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("reading result line: %v (got %q)", err, raw)
		}
		var r api.Response
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatalf("decoding %q: %v", raw, err)
		}
		return r
	}
	// Read result 0 (forcing the first flush), then keep uploading.
	for i := range trees {
		r := readLine()
		if r.Err != nil || !r.Feasible || r.Kind != "tree" {
			t.Fatalf("line %d: %+v", i, r)
		}
		if i+1 < len(trees) {
			write(trees[i+1])
		}
	}
	pw.Close()
	if _, err := br.ReadBytes('\n'); err != io.EOF {
		t.Fatalf("expected clean EOF after last result, got %v", err)
	}
}

// TestOptimizeTreeRejectsDeadlineless: a tree without deadlines or
// budget (and no server default) is a 400, not a solver error.
func TestOptimizeTreeRejectsDeadlineless(t *testing.T) {
	s, _ := newTestServer(t, 1, Options{})
	tn := treeNets(t, 16, 1)[0]
	bald := &tree.Net{Name: "bald", Tree: tn.Tree.CloneWithRAT(0), DriverWidth: tn.DriverWidth}
	rr := post(t, s, "/v1/optimize", mustMarshal(t, api.Request{Tree: bald}))
	if rr.Code != 400 {
		t.Fatalf("status %d, want 400: %s", rr.Code, rr.Body.String())
	}
}
