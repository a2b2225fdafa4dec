package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"github.com/rip-eda/rip/internal/api"
	"github.com/rip-eda/rip/internal/engine"
)

// ForwardHeader marks a request as already forwarded once. A replica
// receiving it answers locally no matter who the ring says owns the
// shape, so disagreeing member lists (mid-rollout, mid-scale-up) cause
// at most one extra hop, never a loop.
const ForwardHeader = "X-Rip-Forwarded"

type localOnlyKey struct{}

// WithLocalOnly marks the context of an already-forwarded request: the
// Forwarder declines every job under it. The HTTP server applies it
// when ForwardHeader is present.
func WithLocalOnly(ctx context.Context) context.Context {
	return context.WithValue(ctx, localOnlyKey{}, true)
}

// IsLocalOnly reports whether forwarding is disabled on this context.
func IsLocalOnly(ctx context.Context) bool {
	v, _ := ctx.Value(localOnlyKey{}).(bool)
	return v
}

// Config describes this replica's place in the ring.
type Config struct {
	// Self is this replica's own address as it appears in Peers
	// ("host:port" or a full base URL).
	Self string
	// Peers lists every replica's address, self included (self is added
	// if absent — every member must use the same full list).
	Peers []string
	// Vnodes is the virtual-node count per member (0 = default 128).
	Vnodes int
	// Timeout bounds each forwarded request (0 = 15s). The request's
	// own deadline still applies on top.
	Timeout time.Duration
	// DisableFallback switches peer failures from "solve locally" to an
	// explicit peer_unavailable error — for deployments that would
	// rather shed load than absorb an owner's traffic on top of their
	// own.
	DisableFallback bool
	// BreakerThreshold is the consecutive-failure count that opens a
	// peer's circuit breaker (0 = 3); BreakerCooldown is how long it
	// stays open before a half-open probe (0 = 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Client overrides the HTTP client (tests).
	Client *http.Client
}

// Node routes jobs whose shapes other replicas own: its Forwarder,
// installed on the Multi (SetForwarder), makes every solve path —
// singles, batches, streams — ring-aware, with each batch forwarding at
// most Workers jobs at a time.
type Node struct {
	self     string
	ring     *Ring
	client   *http.Client
	timeout  time.Duration
	fallback bool
	breakers map[string]*breaker

	forwards  atomic.Uint64 // answered by a peer
	failures  atomic.Uint64 // forward attempts that failed
	fallbacks atomic.Uint64 // failures absorbed by a local solve
	sigMisses atomic.Uint64 // jobs declined as unroutable
}

// errPeerDown marks a forward that never left: the peer's breaker is
// open.
var errPeerDown = fmt.Errorf("cluster: peer circuit breaker open")

// New builds the replica's ring node. The Multi is attached separately
// (engine.Multi.SetForwarder) so construction cannot race traffic.
func New(cfg Config) (*Node, error) {
	if strings.TrimSpace(cfg.Self) == "" {
		return nil, fmt.Errorf("cluster: Self address is required")
	}
	self := normalize(cfg.Self)
	members := []string{self}
	for _, p := range cfg.Peers {
		if strings.TrimSpace(p) == "" {
			continue
		}
		members = append(members, normalize(p))
	}
	ring, err := NewRing(members, cfg.Vnodes)
	if err != nil {
		return nil, err
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 15 * time.Second
	}
	threshold := cfg.BreakerThreshold
	if threshold <= 0 {
		threshold = 3
	}
	cooldown := cfg.BreakerCooldown
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 32,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	n := &Node{
		self:     self,
		ring:     ring,
		client:   client,
		timeout:  timeout,
		fallback: !cfg.DisableFallback,
		breakers: make(map[string]*breaker),
	}
	for _, m := range ring.Members() {
		if m != self {
			n.breakers[m] = newBreaker(threshold, cooldown)
		}
	}
	return n, nil
}

// normalize turns "host:port" into a base URL and strips trailing
// slashes so ring membership compares canonically.
func normalize(addr string) string {
	addr = strings.TrimRight(strings.TrimSpace(addr), "/")
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return addr
}

// Self returns this replica's canonical ring address.
func (n *Node) Self() string { return n.self }

// Peers lists the ring members, sorted.
func (n *Node) Peers() []string { return n.ring.Members() }

// Forwarder binds the node to the Multi it fronts, yielding the hook
// SetForwarder takes. (The node itself carries no Multi pointer: the
// Multi owns the node's lifetime, not the reverse.)
func (n *Node) Forwarder(m *engine.Multi) engine.Forwarder {
	return &forwarder{n: n, m: m}
}

type forwarder struct {
	n *Node
	m *engine.Multi
}

// Owner resolves the job's owning replica; ok=false means the job stays
// local (already forwarded, unroutable, or owned here).
func (f *forwarder) Owner(ctx context.Context, j engine.Job) (string, bool) {
	n := f.n
	if IsLocalOnly(ctx) {
		return "", false
	}
	sig, ok := f.m.Signature(j)
	if !ok {
		n.sigMisses.Add(1)
		return "", false
	}
	o := n.ring.Owner(sig)
	if o == n.self {
		return "", false
	}
	return o, true
}

func (f *forwarder) ForwardSolve(ctx context.Context, owner string, j engine.Job) (engine.Result, bool) {
	n := f.n
	var out api.Response
	if err := n.post(ctx, owner, "/v1/optimize", api.FromJob(j), &out); err != nil {
		err, handled := n.fail(owner, err)
		return engine.Result{Net: j.Net, TreeNet: j.TreeNet, Tech: j.Tech, Err: err}, handled
	}
	n.forwards.Add(1)
	return api.ToResult(out, j), true
}

func (f *forwarder) ForwardFront(ctx context.Context, owner string, j engine.Job) (engine.FrontResult, bool) {
	n := f.n
	var out api.FrontResponse
	if err := n.post(ctx, owner, "/v1/front", api.FromJob(j), &out); err != nil {
		err, handled := n.fail(owner, err)
		return engine.FrontResult{Net: j.Net, TreeNet: j.TreeNet, Tech: j.Tech, Err: err}, handled
	}
	n.forwards.Add(1)
	return api.ToFrontResult(out, j), true
}

// fail accounts one peer failure and picks the degradation: fallback
// mode declines the job (handled=false → the Multi solves locally);
// strict mode answers with a retryable peer_unavailable error.
func (n *Node) fail(owner string, err error) (error, bool) {
	n.failures.Add(1)
	if n.fallback {
		n.fallbacks.Add(1)
		return nil, false
	}
	return api.Coded(api.CodePeerUnavailable,
		fmt.Errorf("cluster: owner %s unavailable: %w", owner, err)), true
}

// post forwards one request to the owner and decodes its response.
// Any decodable response with a verdict-class status is authoritative
// (including the owner's own per-net errors); transport failures,
// overload shedding (429), unavailability (503) and server errors
// count against the owner's breaker and return an error.
func (n *Node) post(ctx context.Context, owner, path string, payload, out any) error {
	br := n.breakers[owner]
	if br == nil {
		return fmt.Errorf("cluster: %s is not a ring member", owner)
	}
	if !br.allow(time.Now()) {
		return errPeerDown
	}
	body, err := json.Marshal(payload)
	if err != nil {
		br.success() // not the peer's fault; release the half-open probe
		return fmt.Errorf("cluster: encoding forward: %w", err)
	}
	ctx, cancel := context.WithTimeout(ctx, n.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+path, bytes.NewReader(body))
	if err != nil {
		br.success()
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardHeader, "1")
	resp, err := n.client.Do(req)
	if err != nil {
		br.failure(time.Now())
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		br.failure(time.Now())
		return err
	}
	switch resp.StatusCode {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusGatewayTimeout, http.StatusInternalServerError,
		http.StatusBadGateway:
		br.failure(time.Now())
		return fmt.Errorf("cluster: owner answered %s", resp.Status)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		br.failure(time.Now())
		return fmt.Errorf("cluster: undecodable owner response (%s): %w", resp.Status, err)
	}
	br.success()
	return nil
}

// Stats is a point-in-time snapshot of the node's forwarding health.
type Stats struct {
	// Forwards counts jobs answered by their owning peer.
	Forwards uint64
	// Failures counts forward attempts that failed (transport error,
	// peer overload, open breaker).
	Failures uint64
	// Fallbacks counts failures absorbed by a local solve.
	Fallbacks uint64
	// Unroutable counts jobs declined because no signature exists.
	Unroutable uint64
	// OpenBreakers counts peers currently skipped.
	OpenBreakers int
	// Peers is the ring size (self included).
	Peers int
}

// Stats snapshots the forwarding counters.
func (n *Node) Stats() Stats {
	st := Stats{
		Forwards:   n.forwards.Load(),
		Failures:   n.failures.Load(),
		Fallbacks:  n.fallbacks.Load(),
		Unroutable: n.sigMisses.Load(),
		Peers:      len(n.ring.Members()),
	}
	now := time.Now()
	for _, br := range n.breakers {
		if br.open(now) {
			st.OpenBreakers++
		}
	}
	return st
}
