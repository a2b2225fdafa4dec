package main

import (
	"os"
	"strings"
	"testing"
)

// TestParsePromFixture parses a /metrics page captured from ripd after a
// small coupled_bus run: per-node and per-route series fold into one sum
// each, and histograms keep their _sum and _count series.
func TestParsePromFixture(t *testing.T) {
	f, err := os.Open("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := parseProm(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"rip_requests_total":                      8,  // optimize 4 + batch 1 + bus 3
		"rip_requests_rejected_total":             0,  // every route and reason
		"rip_front_solves_total":                  24, // 2 + 2 + 10 + 10
		"rip_coupling_solves_total":               16,
		"rip_bus_jobs_total":                      3,
		"rip_bus_exact_total":                     3,
		"rip_bus_iterated_total":                  0,
		"rip_cache_hits_total":                    12,
		"rip_http_request_duration_seconds_count": 8,
	}
	for name, v := range want {
		got, ok := s[name]
		if !ok || got != v {
			t.Errorf("%s = %g (present %v), want %g", name, got, ok, v)
		}
	}
	if sum := s["rip_http_request_duration_seconds_sum"]; !(sum > 0) {
		t.Errorf("histogram sum %g, want > 0", sum)
	}
}

// TestAbsentFamilies checks that a family missing from either reading
// makes its delta absent rather than 0, as when a release renames or
// deletes it.
func TestAbsentFamilies(t *testing.T) {
	before, err := parseProm(strings.NewReader("rip_bus_iterated_total{tech=\"90nm\"} 4\nrip_requests_total 10\n"))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader("rip_requests_total 25\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := delta(before, after, "rip_requests_total"); !ok || d != 15 {
		t.Errorf("requests delta = %g, %v; want 15, true", d, ok)
	}
	if _, ok := delta(before, after, "rip_bus_iterated_total"); ok {
		t.Error("a family deleted between readings should be absent")
	}
	if _, ok := delta(before, after, "rip_phase_seconds_count"); ok {
		t.Error("a family the server never exported should be absent")
	}
}

func TestParsePromLabels(t *testing.T) {
	s, err := parseProm(strings.NewReader(`rip_x{a="b}c",d="e \"q\" f"} 2
rip_x{a="z"} 3 1700000000
rip_y 1.5e3
`))
	if err != nil {
		t.Fatal(err)
	}
	if s["rip_x"] != 5 || s["rip_y"] != 1500 {
		t.Errorf("parsed %v, want rip_x 5 and rip_y 1500", s)
	}
	for _, bad := range []string{"rip_x{a=\"b\" 1\n", "rip_x\n", "rip_x{} one\n"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("%q parsed without an error", bad)
		}
	}
}

func TestParseProc(t *testing.T) {
	// The command name may hold spaces and parentheses.
	stat := "4242 (rip d) x) S 1 4242 4242 0 -1 4194560 1000 0 0 0 1234 56 0 0 20 0 9 0 100 1000000 500\n"
	ticks, err := parseStatTicks(stat)
	if err != nil || ticks != 1234+56 {
		t.Errorf("parseStatTicks = %d, %v; want %d", ticks, err, 1234+56)
	}
	if _, err := parseStatTicks("4242 (ripd S 1"); err == nil {
		t.Error("a stat line without a closing paren parsed")
	}
	status := "Name:\tripd\nVmPeak:\t  900 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  100 kB\n"
	if kb, err := parseStatusKB(status, "VmHWM"); err != nil || kb != 204800 {
		t.Errorf("VmHWM = %d, %v; want 204800", kb, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("a missing status key parsed")
	}
}
