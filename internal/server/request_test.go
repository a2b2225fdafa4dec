package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"github.com/rip-eda/rip/internal/api"
)

// TestCompactResponses: single-request routes answer one line of compact
// JSON, exactly json.Marshal of the response plus a newline, for answers
// and error envelopes alike.
func TestCompactResponses(t *testing.T) {
	s, _ := newTestServer(t, 1, Options{})
	net := corpus(t, 11, 1)[0]
	for _, tc := range []struct {
		name   string
		body   []byte
		status int
	}{
		{"answer", mustMarshal(t, api.Request{Net: net, TargetMult: 1.3}), http.StatusOK},
		{"error envelope", []byte(`{"target_mult": 1.2}`), http.StatusBadRequest},
	} {
		rr := post(t, s, "/v1/optimize", tc.body)
		if rr.Code != tc.status {
			t.Fatalf("%s: status %d, want %d: %s", tc.name, rr.Code, tc.status, rr.Body.Bytes())
		}
		resp := decodeResponse(t, rr)
		if want := append(mustMarshal(t, resp), '\n'); !bytes.Equal(rr.Body.Bytes(), want) {
			t.Fatalf("%s: body %q, want %q", tc.name, rr.Body.Bytes(), want)
		}
	}
}

// fuzzRoutes are the /v1/* routes FuzzServerRequest posts to.
var fuzzRoutes = []string{"/v1/optimize", "/v1/front", "/v1/bus", "/v1/batch"}

// FuzzServerRequest posts arbitrary bodies to every /v1/* route through
// ServeHTTP, under a small request timeout and body cap. Nothing may
// panic or answer 500; every body, and every line of a batch body, is
// valid JSON; and every non-200 answer carries an error envelope whose
// code maps to that status.
func FuzzServerRequest(f *testing.F) {
	s, _ := newTestServer(f, 1, Options{RequestTimeout: 250 * time.Millisecond, MaxBodyBytes: 16 << 10})
	nets := corpus(f, 21, 2)
	line := mustMarshal(f, api.Request{Net: nets[0], TargetMult: 1.3})
	bare := mustMarshal(f, nets[1])
	seeds := [][]byte{
		line,
		bare,
		mustMarshal(f, api.Request{Tree: treeNets(f, 22, 1)[0], TargetMult: 1.3}),
		mustMarshal(f, api.Request{Net: nets[0], TargetsNS: []float64{0.5, 1, 2}}),
		mustMarshal(f, api.BusRequest{Tracks: nets, TargetMult: 1.3}),
		[]byte(`{"tracks": [null, null], "target_mult": 1.3}`),
		append(append(append([]byte{}, line...), '\n'), bare...),
		[]byte(`[` + string(line) + `, 5]`),
		[]byte(`{"net": 5}`),
		[]byte(`{"target_mult": 1.2}`),
		[]byte(`{not json`),
		[]byte(`null`),
		[]byte(`[]`),
		{},
	}
	for route := range fuzzRoutes {
		for _, body := range seeds {
			f.Add(uint8(route), body)
		}
	}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		path := fuzzRoutes[int(route)%len(fuzzRoutes)]
		rr := post(t, s, path, body)
		if rr.Code == http.StatusInternalServerError {
			t.Fatalf("%s %q: 500: %s", path, body, rr.Body.Bytes())
		}
		lines := [][]byte{rr.Body.Bytes()}
		if path == "/v1/batch" {
			lines = bytes.Split(bytes.TrimSpace(rr.Body.Bytes()), []byte("\n"))
		}
		for _, l := range lines {
			if !json.Valid(l) {
				t.Fatalf("%s %q: invalid JSON %q", path, body, l)
			}
		}
		if rr.Code == http.StatusOK {
			return
		}
		var env struct {
			Err *api.ErrorInfo `json:"error"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil || env.Err == nil {
			t.Fatalf("%s %q: status %d without an envelope: %s", path, body, rr.Code, rr.Body.Bytes())
		}
		if got := statusFor(env.Err.Code); got != rr.Code {
			t.Fatalf("%s %q: status %d, but code %q maps to %d", path, body, rr.Code, env.Err.Code, got)
		}
	})
}
