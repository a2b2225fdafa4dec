package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
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

// TestRequestBodyReader: single-request and bus bodies are read whole
// whatever length they declare. A declared length beyond the body reads
// the body and allocates at most bodyPrealloc up front, a body longer
// than bodyPrealloc grows, a chunked body without a length reads whole,
// and a body over MaxBodyBytes still answers too_large.
func TestRequestBodyReader(t *testing.T) {
	s, _ := newTestServer(t, 1, Options{MaxBodyBytes: 1 << 20})
	nets := corpus(t, 13, 2)
	body := mustMarshal(t, api.Request{Net: nets[0], TargetMult: 1.3})

	for _, tc := range []struct {
		name     string
		body     []byte
		declared int64
	}{
		{"declared beyond the body", body, 256 << 20},
		{"declared exactly", body, int64(len(body))},
		{"longer than the preallocation", bytes.Repeat([]byte{' '}, 3*bodyPrealloc), 3 * bodyPrealloc},
		{"empty", nil, 0},
	} {
		req := httptest.NewRequest("POST", "/v1/optimize", bytes.NewReader(tc.body))
		req.ContentLength = tc.declared
		raw, err := s.readBody(httptest.NewRecorder(), req)
		if err != nil || !bytes.Equal(raw, tc.body) {
			t.Fatalf("%s: read %d bytes (err %v), want the %d-byte body", tc.name, len(raw), err, len(tc.body))
		}
		if tc.declared > int64(len(tc.body)) && cap(raw) > bodyPrealloc+bytes.MinRead {
			t.Fatalf("%s: allocated %d bytes for a %d-byte body", tc.name, cap(raw), len(tc.body))
		}
	}

	want := decodeResponse(t, post(t, s, "/v1/optimize", body))
	req := httptest.NewRequest("POST", "/v1/optimize", bytes.NewReader(body))
	req.ContentLength = 256 << 20
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	if got := decodeResponse(t, rr); rr.Code != http.StatusOK || got.TotalWidthU != want.TotalWidthU || !slices.Equal(got.PositionsUM, want.PositionsUM) {
		t.Fatalf("overdeclared body: status %d, answer %+v, want %+v", rr.Code, got, want)
	}

	// A real client sends a body of unknown length chunked.
	chunked := make(chan bool, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		chunked <- r.ContentLength == -1 && slices.Equal(r.TransferEncoding, []string{"chunked"})
		s.ServeHTTP(w, r)
	}))
	defer ts.Close()
	bus := mustMarshal(t, api.BusRequest{Tracks: nets, TargetMult: 1.3})
	resp, err := http.Post(ts.URL+"/v1/bus", "application/json", io.MultiReader(bytes.NewReader(bus)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br api.BusResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil || resp.StatusCode != http.StatusOK || len(br.Tracks) != len(nets) {
		t.Fatalf("chunked bus: status %d, %d tracks (err %v), want %d", resp.StatusCode, len(br.Tracks), err, len(nets))
	}
	if !<-chunked {
		t.Fatal("the bus body did not arrive chunked")
	}

	rr = post(t, s, "/v1/bus", bytes.Repeat([]byte{' '}, 2<<20))
	var tooLarge api.BusResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &tooLarge); err != nil || rr.Code != http.StatusRequestEntityTooLarge ||
		tooLarge.Err == nil || tooLarge.Err.Code != api.CodeTooLarge {
		t.Fatalf("oversized bus body: status %d, %s", rr.Code, rr.Body.Bytes())
	}
}
