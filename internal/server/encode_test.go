package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/rip-eda/rip/internal/api"
	"github.com/rip-eda/rip/internal/netgen"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/wire"
)

// servedPost is one request of the served-traffic corpus.
type servedPost struct {
	path string
	body []byte
}

// servedCorpus is the traffic ripd serves, on the server's four nodes:
// netgen lines at several budgets, with targets_ns sweeps and their
// fronts; uniform and embedded-deadline trees; worst-aggressor and
// explicit-factor lines; bus groups of 2 to 6 tracks; and JSONL and
// array batches.
func servedCorpus(t *testing.T, s *Server) []servedPost {
	t.Helper()
	var posts []servedPost
	add := func(path string, v any) { posts = append(posts, servedPost{path, mustMarshal(t, v)}) }
	for i, name := range []string{"180nm", "130nm", "90nm", "65nm"} {
		node, err := tech.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := netgen.DefaultConfig(node)
		if err != nil {
			t.Fatal(err)
		}
		nets, err := netgen.Corpus(int64(60+i), 2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var jsonl []byte
		for _, n := range nets {
			for _, mult := range []float64{1.1, 1.3, 2} {
				add("/v1/optimize", api.Request{Net: n, Tech: name, TargetMult: mult})
			}
			add("/v1/front", api.Request{Net: n, Tech: name})
			var front api.FrontResponse
			if err := json.Unmarshal(post(t, s, "/v1/front", mustMarshal(t, api.Request{Net: n, Tech: name})).Body.Bytes(), &front); err != nil {
				t.Fatal(err)
			}
			tmin := front.TMinNS
			add("/v1/optimize", api.Request{Net: n, Tech: name, TargetsNS: []float64{1.05 * tmin, 1.2 * tmin, 1.7 * tmin, 3 * tmin}})
			jsonl = append(append(jsonl, mustMarshal(t, api.Request{Net: n, Tech: name, TargetMult: 1.5})...), '\n')
		}
		posts = append(posts, servedPost{"/v1/batch", jsonl})
		add("/v1/batch", []api.Request{{Net: nets[0], Tech: name, TargetMult: 1.4}, {Net: nets[1], Tech: name, TargetMult: 1.6}})

		tcfg, err := netgen.DefaultTreeConfig(node)
		if err != nil {
			t.Fatal(err)
		}
		tcfg.Sinks = 3 + i
		trees, err := netgen.TreeCorpus(int64(70+i), 1, tcfg)
		if err != nil {
			t.Fatal(err)
		}
		add("/v1/optimize", api.Request{Tree: trees[0], Tech: name, TargetMult: 1.3})
		add("/v1/optimize", api.Request{Tree: trees[0], Tech: name})
		add("/v1/front", api.Request{Tree: trees[0], Tech: name})

		mf := 1.5
		add("/v1/optimize", api.Request{Net: nets[0], Tech: name, TargetMult: 1.6, Aggressor: "worst", Scheme: "staggered"})
		add("/v1/optimize", api.Request{Net: nets[0], Tech: name, TargetMult: 1.6, MF: &mf})
		add("/v1/front", api.Request{Net: nets[0], Tech: name, Aggressor: "worst", Scheme: "staggered"})

		groups, err := netgen.BusCorpus(int64(80+i), 12, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range groups {
			if len(g) == 2+i || len(g) == 6-i {
				add("/v1/bus", api.BusRequest{Tracks: g, Tech: name, TargetMult: 1.3})
			}
		}
	}
	return posts
}

// TestServedBodiesMatchMarshal posts the served-traffic corpus cold and
// then warm through ServeHTTP: every body, and every batch line, equals
// json.Marshal of its decoded answer plus a newline, with a matching
// Content-Length on single answers. Every answer takes the fast path;
// only the error envelope goes to encoding/json.
func TestServedBodiesMatchMarshal(t *testing.T) {
	s, _ := newTechServer(t, 2, Options{}, "180nm", "130nm", "90nm", "65nm")
	posts := servedCorpus(t, s)
	posts = append(posts, servedPost{"/v1/optimize", []byte(`{"target_mult": 1.2}`)})
	check := func(p servedPost, body []byte, v any) {
		t.Helper()
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("%s: %v: %s", p.path, err, body)
		}
		if want := append(mustMarshal(t, v), '\n'); !bytes.Equal(body, want) {
			t.Fatalf("%s: body\n%s\nwant\n%s", p.path, body, want)
		}
	}
	before := s.m.encodeFallbacks.Load()
	answers := 0
	for pass := range 2 {
		for _, p := range posts {
			rr := post(t, s, p.path, p.body)
			body := rr.Body.Bytes()
			switch {
			case p.path == "/v1/batch" && body[0] == '[':
				var rs []api.Response
				check(p, body, &rs)
				answers += len(rs)
				continue
			case p.path == "/v1/batch":
				for _, l := range bytes.SplitAfter(body, []byte("\n")) {
					if len(l) > 0 {
						check(p, l, new(api.Response))
						answers++
					}
				}
				continue
			case p.path == "/v1/front":
				check(p, body, new(api.FrontResponse))
			case p.path == "/v1/bus":
				check(p, body, new(api.BusResponse))
			default:
				check(p, body, new(api.Response))
			}
			answers++
			if n, err := strconv.Atoi(rr.Header().Get("Content-Length")); err != nil || n != len(body) {
				t.Fatalf("%s: Content-Length %q for a %d-byte body", p.path, rr.Header().Get("Content-Length"), len(body))
			}
			if rr.Code != http.StatusOK && !bytes.Contains(body, []byte(`"error"`)) {
				t.Fatalf("%s: status %d: %s", p.path, rr.Code, body)
			}
			if pass == 1 && rr.Code == http.StatusOK && !bytes.Contains(body, []byte(`"cache_hit":true`)) {
				t.Fatalf("%s: warm pass missed: %s", p.path, body)
			}
		}
	}
	if got := s.m.encodeFallbacks.Load() - before; got != 2 {
		t.Fatalf("%d of %d answers went to encoding/json, want only the error envelope's 2", got, answers)
	}
	text := get(t, s, "/metrics").Body.String()
	if !strings.Contains(text, "rip_encode_fallbacks_total 2\n") {
		t.Fatal("/metrics does not report the 2 fallbacks")
	}
	// The deprecated bus families stay exported while the benchmark reads
	// them: every bus job is exact, none iterated.
	for _, name := range []string{"180nm", "130nm", "90nm", "65nm"} {
		jobs := metricValue(t, text, fmt.Sprintf("rip_bus_jobs_total{tech=%q}", name))
		exact := metricValue(t, text, fmt.Sprintf("rip_bus_exact_total{tech=%q}", name))
		iterated := metricValue(t, text, fmt.Sprintf("rip_bus_iterated_total{tech=%q}", name))
		if jobs == 0 || exact != jobs || iterated != 0 {
			t.Fatalf("%s: %g bus jobs, %g exact, %g iterated", name, jobs, exact, iterated)
		}
	}
}

// TestPooledBodiesNotAliased: nothing a parse returns may point into the
// body's bytes, which go back to the pool once parsed. Line, tree and
// bus bodies, both in the scanner's canonical form and indented (which
// it declines to encoding/json), parse the same after their buffer is
// overwritten as an untouched copy does.
func TestPooledBodiesNotAliased(t *testing.T) {
	nets := corpus(t, 31, 3)
	mf := 1.2
	bodies := []any{
		api.Request{Net: nets[0], TargetMult: 1.3},
		api.Request{Net: nets[1], TargetsNS: []float64{1, 2}, Aggressor: "worst", Scheme: "auto", MF: &mf},
		api.Request{Tree: treeNets(t, 32, 1)[0], TargetMult: 1.3},
		api.BusRequest{Tracks: []*wire.Net{nets[0], renamed(nets[0], "copy"), nets[2]}, TargetMult: 1.3},
	}
	parse := func(raw []byte, bus bool) any {
		t.Helper()
		var v any
		var err error
		if bus {
			v, err = api.ParseBusRequest(raw)
		} else {
			v, err = api.ParseRequest(raw)
		}
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for i, b := range bodies {
		_, bus := b.(api.BusRequest)
		indented, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		for _, raw := range [][]byte{mustMarshal(t, b), indented} {
			want := parse(bytes.Clone(raw), bus)
			got := parse(raw, bus)
			for k := range raw {
				raw[k] = 'x'
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("body %d: a parse changed when its buffer was overwritten: %+v, want %+v", i, got, want)
			}
		}
	}
}

// renamed returns a copy of n that differs only in its name.
func renamed(n *wire.Net, name string) *wire.Net {
	c := *n
	c.Name = name
	return &c
}

// BenchmarkServeWarm times a verified hit through ServeHTTP, with no
// network: a 65nm line, a targets_ns sweep (a budget ladder) and a tree
// on /v1/optimize, the line's front on /v1/front, and a 4-track bus on
// /v1/bus.
func BenchmarkServeWarm(b *testing.B) {
	s, _ := newTechServer(b, 1, Options{}, "65nm")
	node := tech.T65()
	cfg, err := netgen.DefaultConfig(node)
	if err != nil {
		b.Fatal(err)
	}
	nets, err := netgen.Corpus(41, 1, cfg)
	if err != nil {
		b.Fatal(err)
	}
	tcfg, err := netgen.DefaultTreeConfig(node)
	if err != nil {
		b.Fatal(err)
	}
	tcfg.Sinks = 8
	trees, err := netgen.TreeCorpus(42, 1, tcfg)
	if err != nil {
		b.Fatal(err)
	}
	groups, err := netgen.BusCorpus(43, 16, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var tracks []*wire.Net
	for _, g := range groups {
		if len(g) == 4 {
			tracks = g
			break
		}
	}
	var front api.FrontResponse
	if err := json.Unmarshal(post(b, s, "/v1/front", mustMarshal(b, api.Request{Net: nets[0]})).Body.Bytes(), &front); err != nil {
		b.Fatal(err)
	}
	tmin := front.TMinNS
	for _, c := range []struct {
		name, path string
		req        any
	}{
		{"line", "/v1/optimize", api.Request{Net: nets[0], TargetMult: 1.3}},
		{"ladder", "/v1/optimize", api.Request{Net: nets[0], TargetsNS: []float64{1.1 * tmin, 1.3 * tmin, 1.6 * tmin, 2 * tmin}}},
		{"tree", "/v1/optimize", api.Request{Tree: trees[0], TargetMult: 1.3}},
		{"front", "/v1/front", api.Request{Net: nets[0]}},
		{"bus", "/v1/bus", api.BusRequest{Tracks: tracks, TargetMult: 1.3}},
	} {
		body := mustMarshal(b, c.req)
		for range 2 {
			if rr := post(b, s, c.path, body); rr.Code != http.StatusOK {
				b.Fatalf("%s: status %d: %s", c.name, rr.Code, rr.Body.Bytes())
			}
		}
		if rr := post(b, s, c.path, body); !bytes.Contains(rr.Body.Bytes(), []byte(`"cache_hit":true`)) {
			b.Fatalf("%s: not a hit: %s", c.name, rr.Body.Bytes())
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			rd := bytes.NewReader(body)
			for range b.N {
				rd.Reset(body)
				req := httptest.NewRequest("POST", c.path, rd)
				s.ServeHTTP(httptest.NewRecorder(), req)
			}
		})
	}
}
