// Command ripd serves repeater insertion over HTTP: a long-running
// process around one shared multi-technology batch engine, so the
// solution caches are a cross-request asset — a net solved for one
// client is a warm hit for every later request with the same signature
// on the same node.
//
// Usage:
//
//	ripd                                   # :8080, all built-in nodes, 180nm default
//	ripd -addr :9000 -tech 65nm -cache 65536
//	ripd -techs 90nm,65nm                  # serve only these nodes
//	ripd -tech-dir ./nodes -tech foundry-90lp   # + custom JSON nodes
//	ripd -max-inflight 64 -timeout 30s    # backpressure + per-request budget
//	ripd -aggressor worst -scheme staggered   # crosstalk-aware defaults
//	ripd -cache-save rip.snap -cache-load rip.snap   # warm restarts
//	ripd -self host1:8080 -peers host1:8080,host2:8080,host3:8080   # ring
//
// Endpoints (wire format shared with ripcli -batch; see internal/api):
//
//	POST /v1/optimize   {"net": {...}, "tech": "90nm", "target_mult": 1.2} → solution;
//	                    "targets_ns": [0.8, 1.0] answers every listed budget
//	                    from one cached Pareto front ("sweep" in the response)
//	POST /v1/batch      JSON array or JSONL stream of the same → solutions;
//	                    lines may mix technology nodes freely
//	POST /v1/front      {"net": {...}, "tech": "90nm"} → the net's full
//	                    power–delay Pareto front (no budget required)
//	POST /v1/bus        {"tracks": [{...}, ...], "target_mult": 1.2} →
//	                    joint co-optimization of parallel tracks: per-track
//	                    schemes plus the group area/power the coordination
//	                    saved vs independent worst-case sign-off
//	GET  /livez         process liveness (always 200 while up)
//	GET  /readyz        traffic readiness: 503 while draining or while a
//	                    snapshot restore is still running; reports ring
//	                    peers and snapshot age
//	GET  /metrics       Prometheus text (requests, latency, per-tech
//	                    rip_cache_*/rip_dp_*/rip_front_*/rip_bus_*
//	                    {tech="..."} and rip_cluster_*/rip_snapshot_*
//	                    series)
//
// With -aggressor, line requests that carry no "aggressor" of their
// own are solved under that crosstalk scenario (-scheme picks which
// countermeasures the solver may deploy; see internal/delay). A
// request's explicit "aggressor": "none" always forces the classic
// ground-only model, and /v1/front never inherits the defaults.
// Coupled and uncoupled solves cache separately.
//
// Requests without a "tech" field solve on the -tech default node;
// unknown names get a 400 (single) or per-line error (batch) listing the
// served nodes. Every failure carries the structured error envelope
// {"error": {"code", "message", ...}}. Saturation answers 429 (with
// Retry-After) rather than queuing unboundedly.
//
// With -cache-save, the Pareto-front caches are snapshotted to disk
// periodically and at shutdown (atomic rename — kill -9 never leaves a
// torn file); with -cache-load, a snapshot is restored at boot in the
// background while /readyz reports "loading". Restored entries are
// verified against the actual net before being served.
//
// With -peers, the replicas form a consistent-hash ring over net-shape
// signatures: each shape has one owning replica, non-owners forward to
// it over the ordinary /v1/* wire format, and the fleet's caches
// partition instead of duplicating. An unreachable owner degrades to a
// local solve (default) or an explicit retryable peer_unavailable error
// (-peer-strict).
//
// SIGINT/SIGTERM starts a graceful drain: /readyz flips to 503 so load
// balancers stop routing here, in-flight requests finish (bounded by
// -grace), a final snapshot is written, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	rip "github.com/rip-eda/rip"
	"github.com/rip-eda/rip/internal/cluster"
	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/server"
	"github.com/rip-eda/rip/internal/snapshot"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		techName    = flag.String("tech", "", "default technology node for requests that name none (default: first of -techs)")
		techList    = flag.String("techs", "180nm,130nm,90nm,65nm", "comma-separated built-in nodes to serve")
		techDir     = flag.String("tech-dir", "", "directory of custom technology JSON files to serve (registered under their name)")
		workers     = flag.Int("workers", 0, "engine parallelism, shared across nodes (0 = all cores)")
		cacheSize   = flag.Int("cache", 0, "per-node solution-cache capacity (0 = default 4096, negative = disabled)")
		maxInFlight = flag.Int("max-inflight", 0, "concurrent requests admitted before 429 (0 = 4x workers)")
		timeout     = flag.Duration("timeout", 2*time.Minute, "per-request solving timeout (0 = none)")
		target      = flag.Float64("target", 0, "default target_mult for requests that carry no budget (0 = require one per request)")
		defaultAgg  = flag.String("aggressor", "", "default crosstalk aggressor for line requests that carry no \"aggressor\": worst, best, quiet or none (empty = classic ground-only model)")
		defaultSch  = flag.String("scheme", "", "default countermeasure scheme for coupled requests that carry no \"scheme\": plain, staggered, shielded or auto (needs -aggressor)")
		grace       = flag.Duration("grace", 30*time.Second, "shutdown drain budget for in-flight requests")

		cacheSave    = flag.String("cache-save", "", "snapshot the caches to this file periodically and at shutdown")
		cacheLoad    = flag.String("cache-load", "", "restore a cache snapshot from this file at boot (missing file is not an error)")
		saveInterval = flag.Duration("cache-save-interval", 5*time.Minute, "interval between background snapshots (requires -cache-save)")

		self        = flag.String("self", "", "this replica's own address as peers see it (required with -peers)")
		peers       = flag.String("peers", "", "comma-separated replica addresses forming the consistent-hash ring (include every replica; self is added if absent)")
		peerTimeout = flag.Duration("peer-timeout", 15*time.Second, "per-forward timeout for peer requests")
		peerStrict  = flag.Bool("peer-strict", false, "answer peer failures with a retryable peer_unavailable error instead of solving locally")
	)
	flag.Parse()

	agg, err := delay.ParseAggressor(*defaultAgg)
	if err != nil {
		fatal(fmt.Errorf("ripd: -aggressor: %v", err))
	}
	if _, err := delay.ParseSchemeMode(*defaultSch); err != nil {
		fatal(fmt.Errorf("ripd: -scheme: %v", err))
	}
	if *defaultSch != "" && agg == delay.AggressorNone {
		fatal(fmt.Errorf("ripd: -scheme %q needs -aggressor worst, best or quiet", *defaultSch))
	}

	reg := rip.NewTechRegistry()
	defTech := *techName
	for _, name := range strings.Split(*techList, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		canonical, err := reg.RegisterBuiltin(name)
		if err != nil {
			fatal(err)
		}
		// Without an explicit -tech, the first served node is the
		// default — `ripd -techs 90nm,65nm` must come up serving 90nm by
		// default, not die resolving a node it was told not to serve.
		if defTech == "" {
			defTech = canonical
		}
	}
	if *techDir != "" {
		names, err := reg.LoadDir(*techDir)
		if err != nil {
			fatal(err)
		}
		log.Printf("ripd: loaded %d custom node(s) from %s: %s", len(names), *techDir, strings.Join(names, ", "))
		if defTech == "" && len(names) > 0 {
			defTech = names[0]
		}
	}
	opts := rip.EngineOptions{Workers: *workers}
	if *cacheSize < 0 {
		opts.Cache.Disabled = true
	} else {
		opts.Cache.Capacity = *cacheSize
	}
	eng, err := rip.NewMultiEngine(reg, defTech, opts)
	if err != nil {
		fatal(err)
	}

	// Ring membership. The forwarder hooks into the engine itself, so
	// singles, batches and streams all route identically.
	var node *cluster.Node
	if *peers != "" {
		if *self == "" {
			fatal(errors.New("-peers requires -self (this replica's own address)"))
		}
		node, err = cluster.New(cluster.Config{
			Self:            *self,
			Peers:           strings.Split(*peers, ","),
			Timeout:         *peerTimeout,
			DisableFallback: *peerStrict,
		})
		if err != nil {
			fatal(err)
		}
		eng.SetForwarder(node.Forwarder(eng))
		log.Printf("ripd: ring of %d replicas (self %s)", len(node.Peers()), node.Self())
	}

	// Periodic snapshots; the saver's last-save time feeds /readyz and
	// rip_snapshot_age_seconds.
	var saver *snapshot.Saver
	var lastSnap func() time.Time
	if *cacheSave != "" {
		saver = snapshot.NewSaver(*cacheSave, *saveInterval, eng, log.Printf)
		lastSnap = saver.LastSave
	}

	srv := server.New(eng, server.Options{
		MaxInFlight:       *maxInFlight,
		RequestTimeout:    *timeout,
		DefaultTargetMult: *target,
		DefaultAggressor:  *defaultAgg,
		DefaultScheme:     *defaultSch,
		Cluster:           node,
		LastSnapshot:      lastSnap,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if saver != nil {
		go saver.Run(ctx)
	}

	// Restore in the background: the server answers immediately (cold
	// requests just miss the still-filling cache) while /readyz reports
	// "loading" so balancers prefer warm replicas.
	if *cacheLoad != "" {
		srv.SetReady(false)
		go func() {
			defer srv.SetReady(true)
			st, err := rip.LoadCacheSnapshot(*cacheLoad, eng)
			switch {
			case errors.Is(err, os.ErrNotExist):
				log.Printf("ripd: no snapshot at %s (cold start)", *cacheLoad)
			case err != nil:
				log.Printf("ripd: snapshot restore failed (cold start): %v", err)
			default:
				log.Printf("ripd: restored %d cache entries (%d nodes, %d skipped) from %s",
					st.Entries, st.Nodes, st.SkippedNodes, *cacheLoad)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("ripd: serving %s (default %s) on %s (%d workers, %d in-flight max, timeout %s)",
		strings.Join(eng.Names(), ", "), eng.Default(), *addr, eng.Workers(), srv.MaxInFlight(), timeout)

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}

	// Drain: refuse new work immediately, let admitted requests finish.
	log.Printf("ripd: shutdown signal — draining in-flight requests (budget %s)", grace)
	srv.BeginShutdown()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fatal(err)
	}
	// One final snapshot after the drain, so the image includes every
	// request that finished during it. (Saver.Run also snapshots on ctx
	// cancellation, but that races the drain; this one is ordered.)
	if saver != nil {
		if err := saver.SaveNow(); err == nil {
			log.Printf("ripd: final snapshot written to %s", *cacheSave)
		}
	}
	st := eng.CacheStats()
	log.Printf("ripd: stopped — caches served %d hits / %d misses / %d rejected (%d entries)",
		st.Hits, st.Misses, st.Rejected, st.Entries)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ripd:", err)
	os.Exit(1)
}
