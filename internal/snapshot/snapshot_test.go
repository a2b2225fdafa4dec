package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/rip-eda/rip/internal/engine"
	"github.com/rip-eda/rip/internal/netgen"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/wire"
)

func testNets(t testing.TB, seed int64, n int) []*wire.Net {
	t.Helper()
	cfg, err := netgen.DefaultConfig(tech.T180())
	if err != nil {
		t.Fatal(err)
	}
	nets, err := netgen.Corpus(seed, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nets
}

func newMulti(t testing.TB) *engine.Multi {
	t.Helper()
	m, err := engine.NewMulti(tech.DefaultRegistry(), "180nm", engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// warm solves the corpus on the Multi (round-robining two nodes) and
// returns the results keyed by input index.
func warm(t testing.TB, m *engine.Multi, nets []*wire.Net) []engine.Result {
	t.Helper()
	jobs := make([]engine.Job, len(nets))
	for i, n := range nets {
		techName := "180nm"
		if i%2 == 1 {
			techName = "90nm"
		}
		jobs[i] = engine.Job{Net: n, Tech: techName, TargetMult: 1.3}
	}
	results := m.Run(jobs)
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("warm solve failed: %v", r.Err)
		}
	}
	return results
}

// TestSnapshotRoundTrip saves a warmed Multi's caches and restores them
// into a cold Multi: every net must come back as a cache hit with a
// bit-identical placement.
func TestSnapshotRoundTrip(t *testing.T) {
	nets := testNets(t, 7, 12)
	a := newMulti(t)
	warm(t, a, nets)
	// The reference answers are verified hits (second pass), matching
	// what a restored replica serves: hits recompute the served delay
	// with the independent evaluator, cold solves report the DP's own.
	want := warm(t, a, nets)

	path := filepath.Join(t.TempDir(), "cache.snap")
	st, err := SaveMulti(path, a)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries == 0 || st.Nodes == 0 {
		t.Fatalf("empty save stats: %+v", st)
	}

	b := newMulti(t)
	lst, err := LoadMulti(path, b)
	if err != nil {
		t.Fatal(err)
	}
	if lst.Entries != st.Entries || lst.SkippedEntries != 0 {
		t.Fatalf("load stats %+v, saved %+v", lst, st)
	}

	got := warm(t, b, nets)
	for i := range want {
		if !got[i].CacheHit {
			t.Fatalf("net %d: expected a verified hit after restore", i)
		}
		w, g := want[i].Res.Solution, got[i].Res.Solution
		if w.Delay != g.Delay || w.TotalWidth != g.TotalWidth ||
			!reflect.DeepEqual(w.Assignment.Positions, g.Assignment.Positions) ||
			!reflect.DeepEqual(w.Assignment.Widths, g.Assignment.Widths) {
			t.Fatalf("net %d: restored answer differs from original", i)
		}
	}
}

// reseal recomputes the trailing checksum after a deliberate mutation,
// so format checks deeper than the checksum are reachable.
func reseal(data []byte) []byte {
	sum := sha256.Sum256(data[:len(data)-sha256.Size])
	copy(data[len(data)-sha256.Size:], sum[:])
	return data
}

// TestSnapshotCorruption is the corruption matrix: every damaged image
// must fail the load cleanly (or skip the damaged section) — never
// import garbage.
func TestSnapshotCorruption(t *testing.T) {
	nets := testNets(t, 11, 6)
	a := newMulti(t)
	warm(t, a, nets)
	var buf bytes.Buffer
	var sections []Node
	for _, name := range a.Names() {
		e, _ := a.Engine(name)
		sections = append(sections, Node{Name: name, Identity: e.TechIdentity(), Entries: e.ExportCache()})
	}
	if _, err := Write(&buf, sections); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr bool
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }, true},
		{"flipped byte", func(b []byte) []byte {
			b[len(b)/2] ^= 0x40
			return b
		}, true},
		{"bad magic", func(b []byte) []byte {
			b[0] ^= 0xff
			return reseal(b)
		}, true},
		{"wrong version", func(b []byte) []byte {
			b[8] = 99
			return reseal(b)
		}, true},
		{"trailing garbage", func(b []byte) []byte {
			b = append(b, make([]byte, 40)...)
			return b
		}, true},
		{"empty file", func(b []byte) []byte { return nil }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte(nil), good...))
			path := filepath.Join(t.TempDir(), "bad.snap")
			if err := writeFile(path, data); err != nil {
				t.Fatal(err)
			}
			m := newMulti(t)
			_, err := LoadMulti(path, m)
			if tc.wantErr && err == nil {
				t.Fatal("expected a load error")
			}
			if err != nil && m.CacheStats().Entries != 0 {
				t.Fatal("a failed load must import nothing")
			}
		})
	}
}

// TestSnapshotRefusesV2: an intact v2 or v3 image fails the load with
// ErrVersion and imports nothing, so the replica starts cold instead of
// holding entries no signature can reach: v2 entries carry the text
// cache keys v3 replaced, and v3 line keys spell their scenario by name
// where v4 keys it by its physics.
func TestSnapshotRefusesV2(t *testing.T) {
	a := newMulti(t)
	warm(t, a, testNets(t, 12, 4))
	var buf bytes.Buffer
	var sections []Node
	for _, name := range a.Names() {
		e, _ := a.Engine(name)
		sections = append(sections, Node{Name: name, Identity: e.TechIdentity(), Entries: e.ExportCache()})
	}
	if _, err := Write(&buf, sections); err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint32{2, 3} {
		data := bytes.Clone(buf.Bytes())
		binary.LittleEndian.PutUint32(data[len(magic):], v)
		path := filepath.Join(t.TempDir(), fmt.Sprintf("v%d.snap", v))
		if err := writeFile(path, reseal(data)); err != nil {
			t.Fatal(err)
		}
		m := newMulti(t)
		if _, err := LoadMulti(path, m); !errors.Is(err, ErrVersion) {
			t.Fatalf("v%d image: load error %v, want ErrVersion", v, err)
		}
		if n := m.CacheStats().Entries; n != 0 {
			t.Fatalf("a refused v%d image imported %d entries", v, n)
		}
	}
}

// TestSnapshotDigestMismatch: a section recorded under a different
// electrical identity is skipped whole, without failing the load.
func TestSnapshotDigestMismatch(t *testing.T) {
	nets := testNets(t, 13, 4)
	a := newMulti(t)
	warm(t, a, nets)
	e180, _ := a.Engine("180nm")
	e90, _ := a.Engine("90nm")
	path := filepath.Join(t.TempDir(), "cache.snap")
	_, err := Save(path, []Node{
		{Name: "180nm", Identity: "not the real identity", Entries: e180.ExportCache()},
		{Name: "90nm", Identity: e90.TechIdentity(), Entries: e90.ExportCache()},
		{Name: "no-such-node", Identity: "x", Entries: e90.ExportCache()},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := newMulti(t)
	st, err := LoadMulti(path, b)
	if err != nil {
		t.Fatal(err)
	}
	if st.SkippedNodes != 2 || st.Nodes != 1 {
		t.Fatalf("stats %+v: want 1 accepted section, 2 skipped", st)
	}
	if got, _ := b.Engine("180nm"); got.CacheStats().Entries != 0 {
		t.Fatal("digest-mismatched section must not be imported")
	}
}

// TestImportRejectsUnsound: structurally broken entries are dropped at
// import, counted in SkippedEntries.
func TestImportRejectsUnsound(t *testing.T) {
	m := newMulti(t)
	e, _ := m.Engine("180nm")
	bad := []engine.CacheEntry{
		{Key: "", TMin: 1, Line: []engine.CachePoint{{Delay: 1, TotalWidth: 1}}},
		{Key: "k1", TMin: math.NaN(), Line: []engine.CachePoint{{Delay: 1, TotalWidth: 1}}},
		{Key: "k2", TMin: 1},
		{Key: "k3", TMin: 1, Line: []engine.CachePoint{{Delay: math.Inf(1), TotalWidth: 1}}},
		{Key: "k4", TMin: 1, Line: []engine.CachePoint{{Delay: 1, TotalWidth: 1,
			Positions: []float64{1}, Widths: []float64{1, 2}}}},
		// Coupling mutants: scheme values outside the plain/staggered/
		// shielded alphabet, negative and non-finite scheme lengths.
		{Key: "k5", TMin: 1, Line: []engine.CachePoint{{Delay: 1, TotalWidth: 1,
			Positions: []float64{1}, Widths: []float64{1}, Schemes: []uint8{0, 3}}}},
		{Key: "k6", TMin: 1, Line: []engine.CachePoint{{Delay: 1, TotalWidth: 1,
			Positions: []float64{1}, Widths: []float64{1}, StaggerLen: -1}}},
		{Key: "k7", TMin: 1, Line: []engine.CachePoint{{Delay: 1, TotalWidth: 1,
			Positions: []float64{1}, Widths: []float64{1}, ShieldLen: math.Inf(1)}}},
		{Key: "k8", TMin: 1, Line: []engine.CachePoint{{Delay: 1, TotalWidth: 1,
			Positions: []float64{1}, Widths: []float64{1}, StaggerLen: math.NaN()}}},
	}
	if n := e.ImportCache(bad); n != 0 {
		t.Fatalf("imported %d unsound entries", n)
	}
	good := []engine.CacheEntry{
		{Key: "k", TMin: 1, Line: []engine.CachePoint{
			{Delay: 1, TotalWidth: 2, Positions: []float64{0.5}, Widths: []float64{3}}}},
		// A sound coupled entry: schemes in-alphabet, finite lengths.
		{Key: "kc", TMin: 1, Line: []engine.CachePoint{
			{Delay: 1, TotalWidth: 2, Positions: []float64{0.5}, Widths: []float64{3},
				Schemes: []uint8{1, 2}, StaggerLen: 0.001, ShieldLen: 0.002}}},
	}
	if n := e.ImportCache(good); n != 2 {
		t.Fatalf("rejected a sound entry")
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// BenchmarkSnapshotSaveLoad measures one save-plus-load cycle of a
// warmed multi-node cache — the restart cost a deployment pays.
func BenchmarkSnapshotSaveLoad(b *testing.B) {
	nets := testNets(b, 17, 64)
	a := newMulti(b)
	warm(b, a, nets)
	path := filepath.Join(b.TempDir(), "cache.snap")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SaveMulti(path, a); err != nil {
			b.Fatal(err)
		}
		cold := newMulti(b)
		if _, err := LoadMulti(path, cold); err != nil {
			b.Fatal(err)
		}
	}
}
