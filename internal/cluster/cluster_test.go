package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/rip-eda/rip/internal/api"
	"github.com/rip-eda/rip/internal/cluster"
	"github.com/rip-eda/rip/internal/engine"
	"github.com/rip-eda/rip/internal/netgen"
	"github.com/rip-eda/rip/internal/server"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/wire"
)

func testNets(t *testing.T, seed int64, n int) []*wire.Net {
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

// replica is one ripd-shaped member: engine, HTTP server, live listener.
type replica struct {
	eng *engine.Multi
	ts  *httptest.Server
}

func newReplica(t *testing.T) *replica {
	t.Helper()
	reg := tech.NewRegistry()
	if _, err := reg.RegisterBuiltin("180nm"); err != nil {
		t.Fatal(err)
	}
	eng, err := engine.NewMulti(reg, "180nm", engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng, server.Options{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &replica{eng: eng, ts: ts}
}

// ringUp wires n live replicas into one consistent-hash ring, exactly
// the way `ripd -self ... -peers ...` does, and returns them with their
// nodes.
func ringUp(t *testing.T, n int, strict bool) ([]*replica, []*cluster.Node) {
	t.Helper()
	reps := make([]*replica, n)
	urls := make([]string, n)
	for i := range reps {
		reps[i] = newReplica(t)
		urls[i] = reps[i].ts.URL
	}
	nodes := make([]*cluster.Node, n)
	for i, rep := range reps {
		node, err := cluster.New(cluster.Config{
			Self:            urls[i],
			Peers:           urls,
			DisableFallback: strict,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep.eng.SetForwarder(node.Forwarder(rep.eng))
		nodes[i] = node
	}
	return reps, nodes
}

func optimizeBody(t *testing.T, n *wire.Net) []byte {
	t.Helper()
	b, err := json.Marshal(api.Request{Net: n, TargetMult: 1.3})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func postOptimize(t *testing.T, url string, body []byte) (api.Response, int) {
	t.Helper()
	resp, err := http.Post(url+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out api.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out, resp.StatusCode
}

func frontSolves(reps []*replica) uint64 {
	var total uint64
	for _, rep := range reps {
		e, _ := rep.eng.Engine("180nm")
		total += e.FrontStats().Solves
	}
	return total
}

// TestRingOrderInsensitive: every replica must compute the same
// ownership no matter how its member list was ordered.
func TestRingOrderInsensitive(t *testing.T) {
	a, err := cluster.NewRing([]string{"http://a", "http://b", "http://c"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cluster.NewRing([]string{"http://c", "http://a", "http://b", "http://a"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"k1", "k2", "k3", "net/42", "tree/7"} {
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("ring ownership depends on member order for %q", key)
		}
	}
}

// TestRingBalancesLoopbackMembers: members on one host differ only in
// the last digits of their port, the shape of a local multi-replica
// fleet (and of every test ring here). Each member of such a 2- or
// 3-member ring must own close to 1/n of real shape signatures. With
// raw FNV-64a the vnodes of such members bunched up, and one member
// could own anywhere from 8% to 95% of the keys.
func TestRingBalancesLoopbackMembers(t *testing.T) {
	eng, err := engine.NewMulti(tech.DefaultRegistry(), "180nm", engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, n := range testNets(t, 41, 1000) {
		if sig, ok := eng.Signature(engine.Job{Net: n, TargetMult: 1.3}); ok {
			keys = append(keys, sig)
		}
	}
	for _, size := range []int{2, 3} {
		for _, base := range []int{8080, 18081, 32768, 40000, 45678, 60999} {
			members := make([]string, size)
			for i := range members {
				members[i] = fmt.Sprintf("http://127.0.0.1:%d", base+i)
			}
			ring, err := cluster.NewRing(members, 0)
			if err != nil {
				t.Fatal(err)
			}
			owned := make(map[string]int)
			for _, k := range keys {
				owned[ring.Owner(k)]++
			}
			for _, m := range members {
				share := float64(owned[m]) / float64(len(keys))
				if math.Abs(share-1/float64(size)) > 0.1 {
					t.Errorf("%d-member ring at port %d: %s owns %.1f%% of %d keys",
						size, base, m, 100*share, len(keys))
				}
			}
		}
	}
}

// TestThreeReplicaRing is the fleet story end to end: a 3-replica ring
// partitions the cache (the whole fleet DP-solves each shape about
// once), serves cross-replica hits, and degrades to local solves — not
// errors — when a replica dies mid-run.
func TestThreeReplicaRing(t *testing.T) {
	nets := testNets(t, 23, 12)
	reps, _ := ringUp(t, 3, false)

	// Round 1 (cold): spread the corpus over all three replicas.
	bodies := make([][]byte, len(nets))
	for i, n := range nets {
		bodies[i] = optimizeBody(t, n)
		out, code := postOptimize(t, reps[i%3].ts.URL, bodies[i])
		if code != http.StatusOK || out.Err != nil {
			t.Fatalf("net %d: status %d, err %+v", i, code, out.Err)
		}
	}

	// The partitioning claim: the fleet's total DP work must match a
	// single warmed replica's, within 10% — each shape solved once
	// somewhere, not once per replica.
	solo := newReplica(t)
	for _, b := range bodies {
		if out, code := postOptimize(t, solo.ts.URL, b); code != http.StatusOK || out.Err != nil {
			t.Fatalf("solo replica failed: status %d, err %+v", code, out.Err)
		}
	}
	soloEng, _ := solo.eng.Engine("180nm")
	soloSolves := soloEng.FrontStats().Solves
	if fleet := frontSolves(reps); float64(fleet) > 1.1*float64(soloSolves) {
		t.Fatalf("fleet ran %d front solves; a single warmed replica runs %d (limit 1.1x)", fleet, soloSolves)
	}

	// Round 2 (warm): every request lands on a different replica than
	// round 1 and must still be a cache hit — the hit lives on the
	// shape's owner, reached by forwarding.
	for i, b := range bodies {
		out, code := postOptimize(t, reps[(i+1)%3].ts.URL, b)
		if code != http.StatusOK || out.Err != nil {
			t.Fatalf("warm net %d: status %d, err %+v", i, code, out.Err)
		}
		if !out.CacheHit {
			t.Fatalf("warm net %d: expected a cross-replica cache hit", i)
		}
	}
	if fleet, was := frontSolves(reps), soloSolves; float64(fleet) > 1.1*float64(was) {
		t.Fatalf("warm pass re-solved: %d front solves after, %d before", fleet, was)
	}

	// Kill one replica; the survivors must absorb its shapes with local
	// solves — zero errors, never an unavailable answer.
	reps[2].ts.Close()
	for i, b := range bodies {
		out, code := postOptimize(t, reps[0].ts.URL, b)
		if code != http.StatusOK || out.Err != nil {
			t.Fatalf("post-kill net %d: status %d, err %+v", i, code, out.Err)
		}
	}
}

// TestStrictModeAnswersPeerUnavailable: with fallback disabled, a dead
// owner yields a retryable 503 carrying the peer_unavailable code and
// Retry-After — load shedding, not silent absorption.
func TestStrictModeAnswersPeerUnavailable(t *testing.T) {
	nets := testNets(t, 29, 10)
	live := newReplica(t)
	dead := "http://127.0.0.1:1" // nothing listens on port 1
	node, err := cluster.New(cluster.Config{
		Self:            live.ts.URL,
		Peers:           []string{live.ts.URL, dead},
		DisableFallback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	live.eng.SetForwarder(node.Forwarder(live.eng))

	sawUnavailable := false
	for _, n := range nets {
		body := optimizeBody(t, n)
		resp, err := http.Post(live.ts.URL+"/v1/optimize", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out api.Response
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			resp.Body.Close()
			continue // this shape is owned locally
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503 for a dead owner", resp.StatusCode)
		}
		if out.Err == nil || out.Err.Code != api.CodePeerUnavailable {
			t.Fatalf("error %+v, want code %q", out.Err, api.CodePeerUnavailable)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("a peer_unavailable 503 must carry Retry-After")
		}
		resp.Body.Close()
		sawUnavailable = true
	}
	if !sawUnavailable {
		t.Fatal("no net hashed to the dead peer; enlarge the corpus")
	}
}

// TestForwardHeaderStopsLoops: a request already forwarded once is
// answered locally even by a non-owner, so disagreeing member lists
// cannot bounce a job around the ring.
func TestForwardHeaderStopsLoops(t *testing.T) {
	nets := testNets(t, 31, 8)
	live := newReplica(t)
	node, err := cluster.New(cluster.Config{
		Self:  live.ts.URL,
		Peers: []string{live.ts.URL, "http://127.0.0.1:1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	live.eng.SetForwarder(node.Forwarder(live.eng))

	for _, n := range nets {
		req, err := http.NewRequest(http.MethodPost, live.ts.URL+"/v1/optimize",
			bytes.NewReader(optimizeBody(t, n)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(cluster.ForwardHeader, "1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var out api.Response
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || out.Err != nil {
			t.Fatalf("forwarded request failed: status %d, err %+v", resp.StatusCode, out.Err)
		}
	}
	if st := node.Stats(); st.Forwards != 0 || st.Failures != 0 {
		t.Fatalf("already-forwarded requests must not forward again: %+v", st)
	}
}

// TestStrictRingBatchStaysWithinPeerAdmission: a batch sent to one
// replica of a strict-mode ring forwards at most Workers jobs at a time,
// so the owner, admitting its default 4·Workers requests, sheds none of
// them: no 429 reaches the breaker and no job fails as peer_unavailable,
// for a JSON-array batch (Run) and a JSONL one (RunStream) alike. Every
// net in the batch is owned by the peer, so no local solve paces the
// forwards.
func TestStrictRingBatchStaysWithinPeerAdmission(t *testing.T) {
	reps, nodes := ringUp(t, 2, true)
	ring, err := cluster.NewRing(nodes[0].Peers(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var array []json.RawMessage
	var jsonl bytes.Buffer
	for _, n := range testNets(t, 37, 64) {
		sig, ok := reps[0].eng.Signature(engine.Job{Net: n, TargetMult: 1.3})
		if !ok || ring.Owner(sig) != reps[1].ts.URL || len(array) == 24 {
			continue
		}
		b := optimizeBody(t, n)
		array = append(array, b)
		jsonl.Write(b)
		jsonl.WriteByte('\n')
	}
	if len(array) < 16 {
		t.Fatalf("only %d of 64 nets hashed to the peer; enlarge the corpus", len(array))
	}
	arrayBody, err := json.Marshal(array)
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{arrayBody, jsonl.Bytes()} {
		resp, err := http.Post(reps[0].ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out []api.Response
		if body[0] == '[' {
			err = json.NewDecoder(resp.Body).Decode(&out)
		} else {
			dec := json.NewDecoder(resp.Body)
			for dec.More() {
				var r api.Response
				if err = dec.Decode(&r); err != nil {
					break
				}
				out = append(out, r)
			}
		}
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || len(out) != len(array) {
			t.Fatalf("batch: status %d, %d of %d answers, err %v", resp.StatusCode, len(out), len(array), err)
		}
		for i, r := range out {
			if r.Err != nil {
				t.Fatalf("net %d: %+v", i, r.Err)
			}
		}
	}
	if st := nodes[0].Stats(); st.Forwards != uint64(2*len(array)) || st.Failures != 0 || st.OpenBreakers != 0 {
		t.Fatalf("forward stats %+v: want %d forwards and no failure", st, 2*len(array))
	}
}
