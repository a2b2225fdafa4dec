package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"github.com/rip-eda/rip/internal/api"
	"github.com/rip-eda/rip/internal/cluster"
)

// TestErrorEnvelopeCodes pins the stable error code each client-visible
// failure path carries — codes are API surface, so a change here is a
// breaking change.
func TestErrorEnvelopeCodes(t *testing.T) {
	s, _ := newTestServer(t, 1, Options{MaxBodyBytes: 4096})
	net := corpus(t, 3, 1)[0]

	cases := []struct {
		name   string
		front  bool // POST /v1/front instead of /v1/optimize
		body   []byte
		status int
		code   string // "" = success, no envelope
	}{
		{"undecodable JSON", false, []byte("{not json"), http.StatusBadRequest, api.CodeBadRequest},
		{"no net", false, []byte(`{"target_mult": 1.2}`), http.StatusBadRequest, api.CodeBadRequest},
		{"unknown tech", false, mustMarshal(t, api.Request{Net: net, Tech: "7nm", TargetMult: 1.2}),
			http.StatusBadRequest, api.CodeUnknownTech},
		{"unsupported version", false, mustMarshal(t, api.Request{V: 99, Net: net, TargetMult: 1.2}),
			http.StatusBadRequest, api.CodeUnsupportedVersion},
		{"oversized body", false, make([]byte, 8192), http.StatusRequestEntityTooLarge, api.CodeTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			route := "/v1/optimize"
			if tc.front {
				route = "/v1/front"
			}
			rr := post(t, s, route, tc.body)
			if rr.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", rr.Code, tc.status, rr.Body.Bytes())
			}
			var resp api.Response
			if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if tc.code == "" {
				if resp.Err != nil {
					t.Fatalf("unexpected envelope %+v", resp.Err)
				}
				return
			}
			if resp.Err == nil || resp.Err.Code != tc.code {
				t.Fatalf("envelope %+v, want code %q", resp.Err, tc.code)
			}
		})
	}

	// The front endpoint shares the envelope.
	rr := post(t, s, "/v1/front", mustMarshal(t, api.Request{V: 99, Net: net}))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("front status %d, want 400", rr.Code)
	}
	var fr api.FrontResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Err == nil || fr.Err.Code != api.CodeUnsupportedVersion {
		t.Fatalf("front envelope %+v, want code %q", fr.Err, api.CodeUnsupportedVersion)
	}

	// Draining: refusals carry the draining code and Retry-After.
	s.BeginShutdown()
	rr = post(t, s, "/v1/optimize", mustMarshal(t, api.Request{Net: net, TargetMult: 1.2}))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining status %d, want 503", rr.Code)
	}
	var resp api.Response
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Err == nil || resp.Err.Code != api.CodeDraining {
		t.Fatalf("draining envelope %+v, want code %q", resp.Err, api.CodeDraining)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatal("a draining 503 must carry Retry-After")
	}
}

// TestBatchLinesCarryEnvelope: per-line failures in a JSONL batch get
// the same structured envelope as single requests.
func TestBatchLinesCarryEnvelope(t *testing.T) {
	s, _ := newTestServer(t, 1, Options{})
	net := corpus(t, 5, 1)[0]
	good := mustMarshal(t, api.Request{Net: net, TargetMult: 1.2})
	bad := mustMarshal(t, api.Request{Net: net, Tech: "3nm", TargetMult: 1.2})
	body := append(append(append([]byte{}, good...), '\n'), bad...)

	rr := post(t, s, "/v1/batch", body)
	if rr.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rr.Code, rr.Body.Bytes())
	}
	lines := bytes.Split(bytes.TrimSpace(rr.Body.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2", len(lines))
	}
	var first, second api.Response
	if err := json.Unmarshal(lines[0], &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(lines[1], &second); err != nil {
		t.Fatal(err)
	}
	if first.Err != nil {
		t.Fatalf("good line failed: %+v", first.Err)
	}
	if second.Err == nil || second.Err.Code != api.CodeUnknownTech {
		t.Fatalf("bad line envelope %+v, want code %q", second.Err, api.CodeUnknownTech)
	}
}

// TestLivezReadyzSplit: /livez is process liveness (200 even while
// draining or loading); /readyz is traffic readiness (503 with a
// reason in both states).
func TestLivezReadyzSplit(t *testing.T) {
	s, _ := newTestServer(t, 1, Options{})

	if rr := get(t, s, "/livez"); rr.Code != http.StatusOK {
		t.Fatalf("livez %d, want 200", rr.Code)
	}
	if rr := get(t, s, "/readyz"); rr.Code != http.StatusOK {
		t.Fatalf("readyz %d, want 200", rr.Code)
	}

	s.SetReady(false) // snapshot restore in progress
	rr := get(t, s, "/readyz")
	if rr.Code != http.StatusServiceUnavailable || !bytes.Contains(rr.Body.Bytes(), []byte("loading")) {
		t.Fatalf("readyz while loading: %d %s", rr.Code, rr.Body.Bytes())
	}
	if rr := get(t, s, "/livez"); rr.Code != http.StatusOK {
		t.Fatalf("livez must stay 200 while loading, got %d", rr.Code)
	}
	s.SetReady(true)
	if rr := get(t, s, "/readyz"); rr.Code != http.StatusOK {
		t.Fatalf("readyz after load %d, want 200", rr.Code)
	}

	s.BeginShutdown()
	rr = get(t, s, "/readyz")
	if rr.Code != http.StatusServiceUnavailable || !bytes.Contains(rr.Body.Bytes(), []byte("draining")) {
		t.Fatalf("readyz while draining: %d %s", rr.Code, rr.Body.Bytes())
	}
	if rr := get(t, s, "/livez"); rr.Code != http.StatusOK {
		t.Fatalf("livez must stay 200 while draining, got %d", rr.Code)
	}
}

// TestReadyzReportsRingAndSnapshot: with a cluster and a snapshot saver
// configured, /readyz exposes the ring membership and snapshot age.
func TestReadyzReportsRingAndSnapshot(t *testing.T) {
	node, err := cluster.New(cluster.Config{
		Self:  "http://a:8080",
		Peers: []string{"http://a:8080", "http://b:8080"},
	})
	if err != nil {
		t.Fatal(err)
	}
	last := time.Now().Add(-90 * time.Second)
	s, _ := newTestServer(t, 1, Options{
		Cluster:      node,
		LastSnapshot: func() time.Time { return last },
	})
	rr := get(t, s, "/readyz")
	var body struct {
		Self        string   `json:"self"`
		Peers       []string `json:"peers"`
		SnapshotAge float64  `json:"snapshot_age_s"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Self != "http://a:8080" || len(body.Peers) != 2 {
		t.Fatalf("ring not reported: %+v", body)
	}
	if body.SnapshotAge < 89 {
		t.Fatalf("snapshot_age_s %.1f, want ~90", body.SnapshotAge)
	}
}
