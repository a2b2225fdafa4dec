package main

import (
	"net/http"
	"net/http/httptest"
	"testing"

	rip "github.com/rip-eda/rip"
	"github.com/rip-eda/rip/internal/server"
)

// TestPprofFlag: the profiler is mounted only with -pprof; without it
// /debug/pprof/ is an unknown route, and the service routes answer
// either way.
func TestPprofFlag(t *testing.T) {
	reg := rip.NewTechRegistry()
	if _, err := reg.RegisterBuiltin("180nm"); err != nil {
		t.Fatal(err)
	}
	eng, err := rip.NewMultiEngine(reg, "180nm", rip.EngineOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng, server.Options{})
	for _, tc := range []struct {
		on   bool
		want int
	}{{false, http.StatusNotFound}, {true, http.StatusOK}} {
		h := withPprof(srv, tc.on)
		for path, want := range map[string]int{"/debug/pprof/": tc.want, "/livez": http.StatusOK} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != want {
				t.Fatalf("-pprof=%v: GET %s answered %d, want %d", tc.on, path, rec.Code, want)
			}
		}
	}
}
