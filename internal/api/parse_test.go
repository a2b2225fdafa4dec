package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"github.com/rip-eda/rip/internal/engine"
	"github.com/rip-eda/rip/internal/netgen"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/tree"
	"github.com/rip-eda/rip/internal/wire"
)

// parseRequestTwoPass is the two-pass request decoder ParseRequestKind
// replaced, kept as its oracle: a probe for the "net"/"tree" keys, then a
// decode of the whole body as a Request, whose net and tree decode again
// through their own UnmarshalJSON.
func parseRequestTwoPass(raw []byte, bare Kind) (Request, error) {
	var probe struct {
		Net  json.RawMessage `json:"net"`
		Tree json.RawMessage `json:"tree"`
	}
	if err := json.Unmarshal(raw, &probe); err == nil &&
		(present(probe.Net) || present(probe.Tree)) {
		var r Request
		if err := json.Unmarshal(raw, &r); err != nil {
			return Request{}, fmt.Errorf("decoding request: %v", err)
		}
		return r, nil
	}
	if bare == KindTree {
		var n tree.Net
		if err := json.Unmarshal(raw, &n); err != nil {
			return Request{}, fmt.Errorf("not a tree object: %v", err)
		}
		return Request{Tree: &n}, nil
	}
	var n wire.Net
	if err := json.Unmarshal(raw, &n); err != nil {
		return Request{}, fmt.Errorf("not a net object: %v", err)
	}
	return Request{Net: &n}, nil
}

func present(raw json.RawMessage) bool {
	return len(raw) > 0 && string(raw) != "null"
}

// errPrefix is the shape an error names: the text before its first colon
// ("decoding request", "not a net object" or "not a tree object").
func errPrefix(err error) string {
	s := err.Error()
	if i := strings.IndexByte(s, ':'); i >= 0 {
		return s[:i]
	}
	return s
}

// dupShapeKeys reports whether raw is a JSON object that names "net" or
// "tree" more than once, matching keys the way encoding/json does.
func dupShapeKeys(raw []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	seen := map[string]bool{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		key, _ := tok.(string)
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			return false
		}
		for _, name := range []string{"net", "tree"} {
			if strings.EqualFold(key, name) {
				if seen[name] {
					return true
				}
				seen[name] = true
			}
		}
	}
	return false
}

// parseCase is one body and the bare kind it is parsed under.
type parseCase struct {
	name string
	body []byte
	bare Kind
}

// parseCorpus is FuzzParseRequest's seed corpus: wrapper lines, trees,
// coupled, mf and targets_ns requests, bare nets and trees, every body
// TestParseRequestShapes parses, and the pinned edge cases.
func parseCorpus(t testing.TB) []parseCase {
	t.Helper()
	cfg, err := netgen.DefaultConfig(tech.T180())
	if err != nil {
		t.Fatal(err)
	}
	cfg.MinSegments, cfg.MaxSegments = 4, 4
	line, err := netgen.Generate(rand.New(rand.NewSource(3)), cfg, "fuzzline")
	if err != nil {
		t.Fatal(err)
	}
	tcfg, err := netgen.DefaultTreeConfig(tech.T180())
	if err != nil {
		t.Fatal(err)
	}
	tcfg.Sinks = 3
	tn, err := netgen.GenerateTree(rand.New(rand.NewSource(4)), tcfg, "fuzztree")
	if err != nil {
		t.Fatal(err)
	}
	marshal := func(v any) []byte {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	bareLine, bareTree := marshal(line), marshal(tn)
	mf := 0.8
	cases := []parseCase{
		{"line wrapper", marshal(Request{Net: line, TargetMult: 1.3}), KindLine},
		{"line wrapper with tech", marshal(Request{V: 1, Net: line, Tech: "90nm", TargetNS: 0.9}), KindLine},
		{"tree wrapper", marshal(Request{Tree: tn, TargetMult: 1.4}), KindLine},
		{"tree wrapper, tree bare kind", marshal(Request{Tree: tn, TargetNS: 2}), KindTree},
		{"coupled", marshal(Request{Net: line, TargetMult: 1.3, Aggressor: "worst", Scheme: "staggered"}), KindLine},
		{"mf", marshal(Request{Net: line, TargetMult: 1.3, MF: &mf}), KindLine},
		{"targets_ns", marshal(Request{Net: line, TargetsNS: []float64{0.5, 0.8, 1.2}}), KindLine},
		{"both kinds", []byte(`{"net": ` + string(bareLine) + `, "tree": ` + string(bareTree) + `, "target_mult": 1.2}`), KindLine},
		{"bare net", bareLine, KindLine},
		{"bare tree", bareTree, KindTree},
		{"bare tree as a line", bareTree, KindLine},
		{"bare net as a tree", bareLine, KindTree},
		{"bad wrapper", []byte(`{"net": ` + string(bareLine) + `, "target_mult": "1.2"}`), KindLine},
	}
	for _, k := range []int{2, 4} {
		tracks, err := netgen.BusGroup(rand.New(rand.NewSource(int64(k))), cfg, "fuzzbus", k)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, parseCase{fmt.Sprintf("bus of %d", k), marshal(BusRequest{V: 1, Tracks: tracks, Tech: "180nm", TargetMult: 1.3, Method: "exact"}), KindLine})
	}
	// A track that repeats the first one's bytes but for its name.
	renamed := func(first, name, rest string) []byte {
		return []byte(`{"tracks":[` + first + `,{"name":` + name + rest + `],"target_mult":1.3}`)
	}
	_, lineRest, _ := strings.Cut(string(bareLine), `","`)
	lineRest = `,"` + lineRest
	cases = append(cases,
		parseCase{"renamed copy", renamed(string(bareLine), `"copy"`, lineRest), KindLine},
		parseCase{"renamed copy, spaced name", renamed(string(bareLine), ` "copy"`, lineRest), KindLine},
		parseCase{"renamed copy, one byte off", renamed(string(bareLine), `"copy"`, strings.Replace(lineRest, `"layer":"metal`, `"layer":"netal`, 1)), KindLine},
		parseCase{"renamed copy of a spaced first track", renamed(strings.Replace(string(bareLine), `"name":"`, `"name": "`, 1), `"copy""`, lineRest), KindLine},
		parseCase{"null track", []byte(`{"tracks": [null, ` + string(bareLine) + `], "target_ns": 2}`), KindLine},
		parseCase{"capitalized Tracks", []byte(`{"Tracks": [` + string(bareLine) + `, ` + string(bareLine) + `], "target_mult": 1.3}`), KindLine},
		parseCase{"escaped track name", []byte(`{"tracks": [` + string(bareLine) + `, ` + strings.Replace(string(bareLine), `"name":"`, `"name":"\u0041`, 1) + `], "target_mult": 1.3}`), KindLine},
	)
	for _, tc := range pinnedParses(bareLine) {
		cases = append(cases, parseCase{tc.name, []byte(tc.body), KindLine})
	}
	return cases
}

// pinnedParse is one body whose shape decision is pinned: want is the
// error prefix, or "" when the body parses.
type pinnedParse struct {
	name, body, want string
}

// pinnedParses builds the pinned cases around one bare line net. Every
// one lies outside the scanner's canonical subset, so encoding/json
// alone decides it.
func pinnedParses(bareLine []byte) []pinnedParse {
	wrapper := `{"net": ` + string(bareLine) + `, "target_mult": 1.3`
	return []pinnedParse{
		// encoding/json folds case and decodes escapes and UTF-8.
		{"capitalized Net", `{"Net": ` + string(bareLine) + `, "target_mult": 1.3}`, ""},
		{"escaped name", strings.Replace(string(bareLine), `"name":"`, `"name":"\u0041`, 1), ""},
		{"non-ASCII name", strings.Replace(string(bareLine), `"name":"`, `"name":"é`, 1), ""},
		// A repeated key decodes into what the first one left.
		{"repeated segments", `{"segments":[{"length_um":1,"cc_ff_per_um":5}],` + string(bareLine[1:]), ""},
		{"null mf", wrapper + `, "mf": null}`, ""},
		{"bare net with an unknown key", `{"color": "red", ` + string(bareLine[1:]), ""},
		{"fractional v", `{"v": 1.0, ` + wrapper[1:] + `}`, "decoding request"},
		{"length out of range", string(lengthRe.ReplaceAll([]byte(wrapper), []byte(`"length_um":1e400`))) + `}`, "decoding request"},
		// A body that is not one JSON value has no "net" key at all.
		{"bytes after the object", wrapper + `} x`, "not a net object"},
		{"truncated after the net", `{"net": ` + string(bareLine), "not a net object"},
		// A non-null "net" of the wrong type is still a wrapper.
		{"number net", `{"net": 5}`, "decoding request"},
		{"array net", `{"net": []}`, "decoding request"},
		// A null "net" is no net at all: the body falls back to bare.
		{"null net", `{"net": null}`, "not a net object"},
		// The wrapper ignores keys it does not know, whatever their type.
		{"wrapper with a stray name", `{"net": ` + string(bareLine) + `, "target_mult": 1.3, "name": 5}`, ""},
		// A bare net ignores the wrapper's fields, whatever their type.
		{"bare net with a wrong-typed tech", `{"tech": 5, ` + string(bareLine[1:]), ""},
		{"null", `null`, "not a net object"},
		{"array", `[1]`, "not a net object"},
		{"not json", `not json`, "not a net object"},
	}
}

// lengthRe matches a segment's length member.
var lengthRe = regexp.MustCompile(`"length_um":[^,}]*`)

// TestParseRequestPinned: the shape decisions the one-pass decoder must
// keep, each also checked against the two-pass oracle, and each left to
// encoding/json by the scanner.
func TestParseRequestPinned(t *testing.T) {
	bareLine, err := json.Marshal(testNet(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range pinnedParses(bareLine) {
		raw := []byte(tc.body)
		_, err := ParseRequest(raw)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v, want a request", tc.name, err)
		case tc.want != "" && (err == nil || errPrefix(err) != tc.want):
			t.Errorf("%s: err=%v, want a %q error", tc.name, err, tc.want)
		}
		var w request
		if w.scan(raw, KindLine, new(wire.NetJSON), new(tree.NetJSON)) {
			t.Errorf("%s: the scanner read %s, want it left to encoding/json", tc.name, raw)
		}
		assertSameParse(t, raw, KindLine)
		assertSameAsJSON(t, raw, KindLine)
	}
}

// assertSameAsJSON requires ParseRequestKind and ParseBusRequest to
// return on raw exactly what encoding/json alone returns: equal requests,
// or identical error texts.
func assertSameAsJSON(t *testing.T, raw []byte, bare Kind) {
	t.Helper()
	got, gotErr := ParseRequestKind(raw, bare)
	want, wantErr := parseRequest(raw, bare, false)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%q (bare %v): scanned %+v, %v; encoding/json %+v, %v", raw, bare, got, gotErr, want, wantErr)
	}
	gotBus, gotErr := ParseBusRequest(raw)
	wantBus, wantErr := parseBusRequest(raw, false)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(gotBus, wantBus) {
		t.Fatalf("%q as a bus: scanned %+v, %v; encoding/json %+v, %v", raw, gotBus, gotErr, wantBus, wantErr)
	}
}

// assertSameParse requires ParseRequestKind and the two-pass oracle to
// agree on raw: both reject with the same prefix, or both accept equal
// requests, nets included.
func assertSameParse(t *testing.T, raw []byte, bare Kind) {
	t.Helper()
	got, gotErr := ParseRequestKind(raw, bare)
	want, wantErr := parseRequestTwoPass(raw, bare)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%q (bare %v): one-pass err=%v, two-pass err=%v", raw, bare, gotErr, wantErr)
	case gotErr != nil:
		if errPrefix(gotErr) != errPrefix(wantErr) {
			t.Fatalf("%q (bare %v): one-pass err=%v, two-pass err=%v", raw, bare, gotErr, wantErr)
		}
	case !reflect.DeepEqual(got, want):
		t.Fatalf("%q (bare %v): one-pass %+v, two-pass %+v", raw, bare, got, want)
	}
}

// FuzzParseRequest: on any body and either bare kind, ParseRequestKind
// and ParseBusRequest return exactly what encoding/json alone returns,
// whether the scanner reads the body or declines it. And the one-pass
// decoder and the two-pass oracle both accept, with equal requests, or
// both reject, naming the same shape. A body that repeats "net" or "tree"
// is exempt from the oracle: it let the last of them replace the others
// whole, while one pass merges them field by field, as encoding/json
// does with any repeated object key.
func FuzzParseRequest(f *testing.F) {
	for _, tc := range parseCorpus(f) {
		f.Add(tc.body, tc.bare == KindTree)
	}
	f.Fuzz(func(t *testing.T, raw []byte, treeKind bool) {
		bare := KindLine
		if treeKind {
			bare = KindTree
		}
		assertSameAsJSON(t, raw, bare)
		if dupShapeKeys(raw) {
			return
		}
		assertSameParse(t, raw, bare)
	})
}

// TestScannerReadsServedBodies: every body the benchmark, clients and
// peer forwarding send (json.Marshal of a Request or a BusRequest) is
// read by the scanner, on all four nodes, and decodes to what
// encoding/json decodes. A scanner that declined them would pass every
// equality test and serve nothing.
func TestScannerReadsServedBodies(t *testing.T) {
	marshal := func(v any) []byte {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	var all []byte
	read := func(raw []byte, bare Kind) {
		t.Helper()
		all = append(all, raw...)
		var w request
		if !w.scan(raw, bare, new(wire.NetJSON), new(tree.NetJSON)) {
			t.Fatalf("the scanner declined a served body: %s", raw)
		}
		assertSameAsJSON(t, raw, bare)
	}
	readBus := func(raw []byte) {
		t.Helper()
		all = append(all, raw...)
		var w busRequest
		if !w.scan(raw) {
			t.Fatalf("the scanner declined a served bus body: %s", raw)
		}
		assertSameAsJSON(t, raw, KindLine)
	}
	for i, name := range tech.BuiltinNames() {
		node, err := tech.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := netgen.DefaultConfig(node)
		if err != nil {
			t.Fatal(err)
		}
		lines, err := netgen.Corpus(int64(40+i), 3, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range lines {
			mf := 1.5
			read(marshal(Request{Net: n, Tech: name, TargetMult: 1.3}), KindLine)
			read(marshal(Request{Net: n, Tech: name}), KindLine)
			read(marshal(Request{Net: n, Tech: name, TargetMult: 1.3, Aggressor: "worst", Scheme: "staggered"}), KindLine)
			read(marshal(Request{Net: n, Tech: name, TargetsNS: []float64{0.25, 0.5, 1}}), KindLine)
			read(marshal(FromJob(engine.Job{Net: n, Tech: name, TargetMult: 1.3})), KindLine)
			read(marshal(FromJob(engine.Job{Net: n, Tech: name, Target: 1e-9, MF: &mf})), KindLine)
			read(marshal(n), KindLine)
		}
		tcfg, err := netgen.DefaultTreeConfig(node)
		if err != nil {
			t.Fatal(err)
		}
		trees, err := netgen.TreeCorpus(int64(50+i), 2, tcfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, tn := range trees {
			read(marshal(Request{Tree: tn, Tech: name, TargetMult: 1.3}), KindLine)
			read(marshal(Request{Tree: tn, Tech: name}), KindTree)
			read(marshal(FromJob(engine.Job{TreeNet: tn, Tech: name, Budgets: []float64{1e-9, 2e-9}})), KindLine)
			read(marshal(tn), KindTree)
		}
		rng := rand.New(rand.NewSource(int64(60 + i)))
		for k := 2; k <= 6; k++ {
			tracks, err := netgen.BusGroup(rng, cfg, fmt.Sprintf("bus%d", k), k)
			if err != nil {
				t.Fatal(err)
			}
			readBus(marshal(BusRequest{Tracks: tracks, Tech: name, TargetMult: 1.3}))
		}
	}
	for _, field := range []string{`"forbidden_zones"`, `"cc_ff_per_um"`, `"layer"`, `"parent"`, `"rat_ns"`,
		`"buffer_site":true`, `"aggressor":"none"`, `"scheme"`, `"mf"`, `"targets_ns"`, `"v":1`} {
		if !bytes.Contains(all, []byte(field)) {
			t.Errorf("no served body carries %s", field)
		}
	}
}

// BenchmarkParseRequest decodes served request bodies: 180nm lines of 4
// and 10 segments, a 180nm tree and a 4-track 90nm bus, all on the
// scanner's path, and the 4-segment line with one unknown key, on
// encoding/json's.
func BenchmarkParseRequest(b *testing.B) {
	lineOf := func(node *tech.Technology, segments int) *wire.Net {
		cfg, err := netgen.DefaultConfig(node)
		if err != nil {
			b.Fatal(err)
		}
		cfg.MinSegments, cfg.MaxSegments = segments, segments
		n, err := netgen.Generate(rand.New(rand.NewSource(int64(segments))), cfg, fmt.Sprintf("l%d", segments))
		if err != nil {
			b.Fatal(err)
		}
		return n
	}
	tcfg, err := netgen.DefaultTreeConfig(tech.T180())
	if err != nil {
		b.Fatal(err)
	}
	tn, err := netgen.GenerateTree(rand.New(rand.NewSource(5)), tcfg, "t")
	if err != nil {
		b.Fatal(err)
	}
	bcfg, err := netgen.DefaultConfig(tech.T90())
	if err != nil {
		b.Fatal(err)
	}
	tracks, err := netgen.BusGroup(rand.New(rand.NewSource(6)), bcfg, "bus", 4)
	if err != nil {
		b.Fatal(err)
	}
	t180 := tech.T180()
	parseOne := func(raw []byte) error {
		_, err := ParseRequest(raw)
		return err
	}
	parseBus := func(raw []byte) error {
		_, err := ParseBusRequest(raw)
		return err
	}
	line4 := Request{Net: lineOf(t180, 4), Tech: "180nm", TargetMult: 1.3}
	for _, bc := range []struct {
		name  string
		body  any
		parse func([]byte) error
	}{
		{"line4", line4, parseOne},
		{"line10", Request{Net: lineOf(t180, 10), Tech: "180nm", TargetMult: 1.3}, parseOne},
		{"tree", Request{Tree: tn, Tech: "180nm", TargetMult: 1.3}, parseOne},
		{"bus4", BusRequest{Tracks: tracks, Tech: "90nm", TargetMult: 1.3}, parseBus},
		// One unknown key sends the line4 body down encoding/json's path.
		{"line4_fallback", struct {
			Request
			Client string `json:"client"`
		}{line4, "c1"}, parseOne},
	} {
		raw, err := json.Marshal(bc.body)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for range b.N {
				if err := bc.parse(raw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
