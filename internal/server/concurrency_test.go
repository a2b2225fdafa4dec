package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/rip-eda/rip/internal/api"
)

// gatedServer installs the admission test hook: every admitted request
// announces itself on admitted and then blocks until release is closed,
// so tests can hold the server at a known saturation level.
func gatedServer(t *testing.T, opts Options) (s *Server, admitted chan string, release chan struct{}) {
	t.Helper()
	s, _ = newTestServer(t, 2, opts)
	admitted = make(chan string, 16)
	release = make(chan struct{})
	s.testHookAdmitted = func(route string) {
		admitted <- route
		<-release
	}
	return s, admitted, release
}

func waitAdmitted(t *testing.T, admitted chan string) {
	t.Helper()
	select {
	case <-admitted:
	case <-time.After(10 * time.Second):
		t.Fatal("request was never admitted")
	}
}

// TestBackpressure429: with the single admission slot held, the next
// request is refused immediately with 429 + Retry-After instead of
// queuing; once the slot frees, requests are admitted again.
func TestBackpressure429(t *testing.T) {
	s, admitted, release := gatedServer(t, Options{MaxInFlight: 1, DefaultTargetMult: 1.3})
	net := corpus(t, 31, 1)[0]
	body := mustMarshal(t, api.Request{Net: net, TargetMult: 1.3})

	first := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/optimize", bytes.NewReader(body)))
		first <- rr
	}()
	waitAdmitted(t, admitted)

	// Saturated: optimize and batch must both bounce, concurrently.
	var wg sync.WaitGroup
	codes := make([]int, 8)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := "/v1/optimize"
			if i%2 == 1 {
				path = "/v1/batch"
			}
			rr := httptest.NewRecorder()
			s.ServeHTTP(rr, httptest.NewRequest("POST", path, bytes.NewReader(body)))
			codes[i] = rr.Code
			if h := rr.Header().Get("Retry-After"); h == "" {
				t.Error("429 without Retry-After")
			}
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusTooManyRequests {
			t.Fatalf("saturated request %d: status %d, want 429", i, c)
		}
	}
	if got := s.InFlight(); got != 1 {
		t.Fatalf("inflight %d while one request is held", got)
	}

	close(release)
	if rr := <-first; rr.Code != http.StatusOK {
		t.Fatalf("held request finished with %d: %s", rr.Code, rr.Body.String())
	}
	// The freed slot admits again.
	if rr := post(t, s, "/v1/optimize", body); rr.Code != http.StatusOK {
		t.Fatalf("post-release request: status %d", rr.Code)
	}
	if got := s.InFlight(); got != 0 {
		t.Fatalf("inflight %d after quiescence", got)
	}
	text := get(t, s, "/metrics").Body.String()
	if v := metricValue(t, text, `rip_requests_rejected_total{route="optimize",reason="saturated"}`); v != 4 {
		t.Fatalf("optimize saturated rejections %g, want 4", v)
	}
	if v := metricValue(t, text, `rip_requests_rejected_total{route="batch",reason="saturated"}`); v != 4 {
		t.Fatalf("batch saturated rejections %g, want 4", v)
	}
}

// TestRequestTimeoutPropagation: an expired per-request budget reaches
// the engine as context cancellation and comes back as 504, for both the
// single and batch routes.
func TestRequestTimeoutPropagation(t *testing.T) {
	s, _ := newTestServer(t, 2, Options{RequestTimeout: time.Nanosecond})
	net := corpus(t, 37, 1)[0]
	body := mustMarshal(t, api.Request{Net: net, TargetMult: 1.3})

	rr := post(t, s, "/v1/optimize", body)
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rr.Code, rr.Body.String())
	}
	if resp := decodeResponse(t, rr); resp.Err == nil || !strings.Contains(resp.Err.Message, "deadline exceeded") {
		t.Fatalf("error %+v should surface the deadline", resp.Err)
	}

	// Batch routes isolate the timeout per net: the request succeeds,
	// every net reports the deadline.
	var jsonl bytes.Buffer
	jsonl.Write(body)
	jsonl.WriteByte('\n')
	jsonl.Write(body)
	jsonl.WriteByte('\n')
	rr = post(t, s, "/v1/batch", jsonl.Bytes())
	if rr.Code != http.StatusOK {
		t.Fatalf("batch status %d", rr.Code)
	}
	for i, line := range nonEmptyLines(rr.Body.String()) {
		if !strings.Contains(line, "deadline exceeded") {
			t.Fatalf("batch line %d lacks deadline error: %s", i, line)
		}
	}
}

func nonEmptyLines(s string) []string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.TrimSpace(l) != "" {
			out = append(out, l)
		}
	}
	return out
}

// TestGracefulShutdownDrains: BeginShutdown refuses new work with 503
// while a request already admitted runs to completion — the drain
// contract cmd/ripd pairs with http.Server.Shutdown.
func TestGracefulShutdownDrains(t *testing.T) {
	s, admitted, release := gatedServer(t, Options{MaxInFlight: 4})
	net := corpus(t, 41, 1)[0]
	body := mustMarshal(t, api.Request{Net: net, TargetMult: 1.3})

	inFlight := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/optimize", bytes.NewReader(body)))
		inFlight <- rr
	}()
	waitAdmitted(t, admitted)

	s.BeginShutdown()
	if rr := post(t, s, "/v1/optimize", body); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining server admitted new work: %d", rr.Code)
	}
	if rr := post(t, s, "/v1/batch", body); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining server admitted new batch: %d", rr.Code)
	}
	if rr := get(t, s, "/readyz"); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: %d", rr.Code)
	}

	close(release) // let the in-flight request finish
	if rr := <-inFlight; rr.Code != http.StatusOK {
		t.Fatalf("in-flight request should complete the drain with 200, got %d: %s",
			rr.Code, rr.Body.String())
	}
	if got := s.InFlight(); got != 0 {
		t.Fatalf("inflight %d after drain", got)
	}
	text := get(t, s, "/metrics").Body.String()
	if v := metricValue(t, text, `rip_requests_rejected_total{route="optimize",reason="draining"}`); v != 1 {
		t.Fatalf("draining rejections %g, want 1", v)
	}
}

// TestConcurrentMixedTraffic: many concurrent clients across every
// endpoint, no saturation, everything answers and the counters balance.
// Run with -race; this is the test that exercises handler state sharing.
func TestConcurrentMixedTraffic(t *testing.T) {
	s, _ := newTestServer(t, 4, Options{MaxInFlight: 64, DefaultTargetMult: 1.3})
	nets := corpus(t, 43, 3)
	const clients = 12
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			net := nets[c%len(nets)]
			body := mustMarshal(t, api.Request{Net: net, TargetMult: 1.3})
			switch c % 3 {
			case 0:
				rr := httptest.NewRecorder()
				s.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/optimize", bytes.NewReader(body)))
				if rr.Code != http.StatusOK {
					t.Errorf("client %d: optimize %d", c, rr.Code)
				}
			case 1:
				var jsonl bytes.Buffer
				jsonl.Write(body)
				jsonl.WriteByte('\n')
				jsonl.Write(body)
				jsonl.WriteByte('\n')
				rr := httptest.NewRecorder()
				s.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/batch", &jsonl))
				if rr.Code != http.StatusOK {
					t.Errorf("client %d: batch %d", c, rr.Code)
				}
				if n := len(nonEmptyLines(rr.Body.String())); n != 2 {
					t.Errorf("client %d: %d batch lines, want 2", c, n)
				}
			case 2:
				rr := httptest.NewRecorder()
				s.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
				if rr.Code != http.StatusOK {
					t.Errorf("client %d: metrics %d", c, rr.Code)
				}
			}
		}(c)
	}
	wg.Wait()
	if got := s.InFlight(); got != 0 {
		t.Fatalf("inflight %d after all clients returned", got)
	}
	text := get(t, s, "/metrics").Body.String()
	nets64 := metricValue(t, text, "rip_nets_total")
	if nets64 != 12 { // 4 optimize + 4 batches × 2 nets
		t.Fatalf("nets total %g, want 12", nets64)
	}
	if v := metricValue(t, text, "rip_net_errors_total"); v != 0 {
		t.Fatalf("net errors %g, want 0", v)
	}
}
