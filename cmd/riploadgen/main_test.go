package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestPercentileNearestRank pins the nearest-rank definition: the
// ⌈q·n⌉-th smallest sample. The p50 of [1 2 3 4] is 2 — the truncating
// index int(q·n) the original implementation used returns 3.
func TestPercentileNearestRank(t *testing.T) {
	ms := func(vs ...int) []time.Duration {
		out := make([]time.Duration, len(vs))
		for i, v := range vs {
			out[i] = time.Duration(v) * time.Millisecond
		}
		return out
	}
	tests := []struct {
		name   string
		sorted []time.Duration
		q      float64
		want   float64
	}{
		{"empty", nil, 0.5, 0},
		{"single", ms(7), 0.5, 7},
		{"p50 even n is the lower middle", ms(1, 2, 3, 4), 0.50, 2},
		{"p50 odd n is the middle", ms(1, 2, 3), 0.50, 2},
		{"p25 of four", ms(1, 2, 3, 4), 0.25, 1},
		{"p75 of four", ms(1, 2, 3, 4), 0.75, 3},
		{"p99 rounds up to the max of four", ms(1, 2, 3, 4), 0.99, 4},
		{"p100 is the max", ms(1, 2, 3, 4), 1.00, 4},
		{"p0 clamps to the min", ms(1, 2, 3, 4), 0.00, 1},
		{"p99 of 100 is the 99th sample", seq(100), 0.99, 99},
		{"p999 of 1000 is the 999th sample", seq(1000), 0.999, 999},
		{"p50 of 1000", seq(1000), 0.50, 500},
	}
	for _, tc := range tests {
		if got := percentile(tc.sorted, tc.q); got != tc.want {
			t.Errorf("%s: percentile(n=%d, q=%g) = %g, want %g",
				tc.name, len(tc.sorted), tc.q, got, tc.want)
		}
	}
}

// seq builds the sorted latencies [1ms, 2ms, ..., n ms].
func seq(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i+1) * time.Millisecond
	}
	return out
}

// TestPostClassification pins post()'s outcome taxonomy, in particular
// the regression where a non-2xx answer with a decodable but
// envelope-free body (a proxy or LB speaking JSON) counted as success.
func TestPostClassification(t *testing.T) {
	tests := []struct {
		name     string
		status   int
		body     string
		wantHit  bool
		wantCode string
	}{
		{"success", http.StatusOK, `{"feasible":true}`, false, ""},
		{"success cache hit", http.StatusOK, `{"feasible":true,"cache_hit":true}`, true, ""},
		{"enveloped error", http.StatusBadRequest,
			`{"error":{"code":"bad_request","message":"no"},"error_message":"no"}`, false, "bad_request"},
		{"non-2xx html page", http.StatusBadGateway, `<html>502</html>`, false, "transport"},
		{"non-2xx empty json", http.StatusServiceUnavailable, `{}`, false, "transport"},
		{"non-2xx enveloped keeps its code", http.StatusTooManyRequests,
			`{"error":{"code":"overloaded","message":"shed"}}`, false, "overloaded"},
		{"2xx garbage", http.StatusOK, `not json`, false, "transport"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(tc.status)
				w.Write([]byte(tc.body))
			}))
			defer srv.Close()
			hit, code := post(srv.Client(), srv.URL+"/v1/optimize", []byte(`{}`))
			if hit != tc.wantHit || code != tc.wantCode {
				t.Errorf("post(%d, %q) = (hit=%v, code=%q), want (hit=%v, code=%q)",
					tc.status, tc.body, hit, code, tc.wantHit, tc.wantCode)
			}
		})
	}
}

// TestPostTransportError pins the no-response-at-all path.
func TestPostTransportError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	srv.Close() // connection refused from here on
	hit, code := post(http.DefaultClient, srv.URL, []byte(`{}`))
	if hit || code != "transport" {
		t.Errorf("post(closed server) = (hit=%v, code=%q), want (false, \"transport\")", hit, code)
	}
}
