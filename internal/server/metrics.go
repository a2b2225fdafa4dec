package server

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"github.com/rip-eda/rip/internal/cluster"
	"github.com/rip-eda/rip/internal/engine"
)

// durationBuckets are the cumulative latency histogram bounds in seconds.
// They span sub-millisecond cache hits through multi-second chip batches;
// the final +Inf bucket is implicit.
var durationBuckets = [...]float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 30}

// histogram is a fixed-bucket latency histogram safe for concurrent
// observation: per-bucket counts plus a sum, all atomic.
type histogram struct {
	counts   [len(durationBuckets) + 1]atomic.Uint64
	sumNanos atomic.Int64
	total    atomic.Uint64
}

func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	idx := len(durationBuckets) // +Inf
	for i, b := range durationBuckets {
		if s <= b {
			idx = i
			break
		}
	}
	h.counts[idx].Add(1)
	h.sumNanos.Add(int64(d))
	h.total.Add(1)
}

// routeMetrics are the per-route request counters.
type routeMetrics struct {
	requests  atomic.Uint64 // admitted requests
	saturated atomic.Uint64 // 429: in-flight limit hit
	draining  atomic.Uint64 // 503: shutdown in progress
	latency   histogram
}

// metrics is the server-wide counter set exported at /metrics. The
// engine's cache counters are not mirrored here — they are pulled live
// from engine.CacheStats at render time so the numbers cover every
// consumer of a shared engine, not just HTTP traffic.
type metrics struct {
	optimize  routeMetrics
	batch     routeMetrics
	front     routeMetrics
	bus       routeMetrics
	inflight  atomic.Int64
	nets      atomic.Uint64 // nets solved over HTTP (all routes)
	netErrors atomic.Uint64 // per-net failures over HTTP
}

func (m *metrics) route(name string) *routeMetrics {
	switch name {
	case "batch":
		return &m.batch
	case "front":
		return &m.front
	case "bus":
		return &m.bus
	}
	return &m.optimize
}

// routes lists the per-route counter sets in render order.
func (m *metrics) routes() []struct {
	name string
	rm   *routeMetrics
} {
	return []struct {
		name string
		rm   *routeMetrics
	}{{"optimize", &m.optimize}, {"batch", &m.batch}, {"front", &m.front}, {"bus", &m.bus}}
}

// writePrometheus renders the counter set in the Prometheus text
// exposition format (version 0.0.4) without any client library.
func (m *metrics) writePrometheus(w io.Writer, eng *engine.Multi, start time.Time, draining bool,
	node *cluster.Node, lastSnap func() time.Time) {
	fmt.Fprintf(w, "# HELP rip_uptime_seconds Seconds since the server started.\n")
	fmt.Fprintf(w, "# TYPE rip_uptime_seconds gauge\n")
	fmt.Fprintf(w, "rip_uptime_seconds %g\n", time.Since(start).Seconds())

	fmt.Fprintf(w, "# HELP rip_draining Whether the server is refusing new work for shutdown.\n")
	fmt.Fprintf(w, "# TYPE rip_draining gauge\n")
	fmt.Fprintf(w, "rip_draining %d\n", b2i(draining))

	fmt.Fprintf(w, "# HELP rip_requests_total Admitted optimization requests by route.\n")
	fmt.Fprintf(w, "# TYPE rip_requests_total counter\n")
	for _, r := range m.routes() {
		fmt.Fprintf(w, "rip_requests_total{route=%q} %d\n", r.name, r.rm.requests.Load())
	}

	fmt.Fprintf(w, "# HELP rip_requests_rejected_total Requests refused before solving, by route and reason.\n")
	fmt.Fprintf(w, "# TYPE rip_requests_rejected_total counter\n")
	for _, r := range m.routes() {
		fmt.Fprintf(w, "rip_requests_rejected_total{route=%q,reason=\"saturated\"} %d\n", r.name, r.rm.saturated.Load())
		fmt.Fprintf(w, "rip_requests_rejected_total{route=%q,reason=\"draining\"} %d\n", r.name, r.rm.draining.Load())
	}

	fmt.Fprintf(w, "# HELP rip_requests_inflight Requests currently being served.\n")
	fmt.Fprintf(w, "# TYPE rip_requests_inflight gauge\n")
	fmt.Fprintf(w, "rip_requests_inflight %d\n", m.inflight.Load())

	fmt.Fprintf(w, "# HELP rip_nets_total Nets solved over HTTP.\n")
	fmt.Fprintf(w, "# TYPE rip_nets_total counter\n")
	fmt.Fprintf(w, "rip_nets_total %d\n", m.nets.Load())

	fmt.Fprintf(w, "# HELP rip_net_errors_total Per-net failures over HTTP (parse, validation or solver).\n")
	fmt.Fprintf(w, "# TYPE rip_net_errors_total counter\n")
	fmt.Fprintf(w, "rip_net_errors_total %d\n", m.netErrors.Load())

	fmt.Fprintf(w, "# HELP rip_http_request_duration_seconds Request latency by route.\n")
	fmt.Fprintf(w, "# TYPE rip_http_request_duration_seconds histogram\n")
	for _, r := range m.routes() {
		var cum uint64
		for i, b := range durationBuckets {
			cum += r.rm.latency.counts[i].Load()
			fmt.Fprintf(w, "rip_http_request_duration_seconds_bucket{route=%q,le=\"%g\"} %d\n", r.name, b, cum)
		}
		cum += r.rm.latency.counts[len(durationBuckets)].Load()
		fmt.Fprintf(w, "rip_http_request_duration_seconds_bucket{route=%q,le=\"+Inf\"} %d\n", r.name, cum)
		fmt.Fprintf(w, "rip_http_request_duration_seconds_sum{route=%q} %g\n", r.name,
			time.Duration(r.rm.latency.sumNanos.Load()).Seconds())
		fmt.Fprintf(w, "rip_http_request_duration_seconds_count{route=%q} %d\n", r.name, r.rm.latency.total.Load())
	}

	fmt.Fprintf(w, "# HELP rip_engine_workers The engine's shared parallelism bound.\n")
	fmt.Fprintf(w, "# TYPE rip_engine_workers gauge\n")
	fmt.Fprintf(w, "rip_engine_workers %d\n", eng.Workers())

	// Per-technology engine counters. Every served node gets its own
	// labeled series — the caches, and therefore the hit rates and DP
	// workloads, are per node by construction, and folding them into one
	// unlabeled number would hide exactly the skew an operator of a
	// multi-technology service needs to see. Each node's stats are
	// snapshotted once per scrape (CacheStats walks every shard lock).
	names := eng.Names()
	fmt.Fprintf(w, "# HELP rip_technologies Number of technology nodes served.\n")
	fmt.Fprintf(w, "# TYPE rip_technologies gauge\n")
	fmt.Fprintf(w, "rip_technologies %d\n", len(names))

	type techSnap struct {
		name  string
		cache engine.CacheStats
		dp    engine.DPStats
		tree  engine.TreeDPStats
		front engine.FrontStats
		eps   engine.EpsStats
		cpl   engine.CouplingStats
		busS  engine.BusStats
	}
	snaps := make([]techSnap, 0, len(names))
	for _, name := range names {
		e, ok := eng.Engine(name)
		if !ok {
			continue
		}
		snaps = append(snaps, techSnap{name: name, cache: e.CacheStats(), dp: e.DPStats(),
			tree: e.TreeDPStats(), front: e.FrontStats(), eps: e.EpsStats(), cpl: e.CouplingStats(),
			busS: e.BusStats()})
	}
	perTech := func(metric, kind, help string, get func(techSnap) uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n", metric, help)
		fmt.Fprintf(w, "# TYPE %s %s\n", metric, kind)
		for _, s := range snaps {
			fmt.Fprintf(w, "%s{tech=%q} %d\n", metric, s.name, get(s))
		}
	}

	perTech("rip_cache_hits_total", "counter", "Solution-cache lookups served after verification, by node.",
		func(s techSnap) uint64 { return s.cache.Hits })
	perTech("rip_cache_misses_total", "counter", "Solution-cache lookups that found no entry, by node.",
		func(s techSnap) uint64 { return s.cache.Misses })
	perTech("rip_cache_rejected_total", "counter", "Cache entries found but failing re-verification, by node.",
		func(s techSnap) uint64 { return s.cache.Rejected })
	perTech("rip_cache_evictions_total", "counter", "LRU evictions, by node.",
		func(s techSnap) uint64 { return s.cache.Evictions })
	perTech("rip_cache_entries", "gauge", "Cached solutions currently held, by node.",
		func(s techSnap) uint64 { return uint64(s.cache.Entries) })

	// DP work counters: the actual pruning workload behind the requests
	// (the cost the paper's Table 2 measures), pulled live from the shared
	// engine like the cache stats above.
	perTech("rip_dp_solves_total", "counter", "Completed dynamic-program runs (τmin + pipeline phases), by node.",
		func(s techSnap) uint64 { return s.dp.Solves })
	perTech("rip_dp_generated_total", "counter", "Partial solutions generated across all DP runs, by node.",
		func(s techSnap) uint64 { return s.dp.Generated })
	perTech("rip_dp_kept_total", "counter", "Partial solutions surviving pruning across all DP runs, by node.",
		func(s techSnap) uint64 { return s.dp.Kept })
	perTech("rip_dp_max_per_level", "gauge", "Largest surviving option set any DP level has held, by node.",
		func(s techSnap) uint64 { return s.dp.MaxPerLevel })
	perTech("rip_dp_budget_aborts_total", "counter", "Solves aborted by the MaxGenerated work budget, by node.",
		func(s techSnap) uint64 { return s.dp.BudgetAborts })

	// Tree DP work counters: the same pruning-workload visibility for
	// tree jobs (τmin sweeps + hybrid pipeline phases).
	perTech("rip_tree_dp_solves_total", "counter", "Completed tree dynamic-program runs (τmin + pipeline phases), by node.",
		func(s techSnap) uint64 { return s.tree.Solves })
	perTech("rip_tree_dp_generated_total", "counter", "Partial solutions generated across all tree DP runs, by node.",
		func(s techSnap) uint64 { return s.tree.Generated })
	perTech("rip_tree_dp_kept_total", "counter", "Partial solutions surviving pruning across all tree DP runs, by node.",
		func(s techSnap) uint64 { return s.tree.Kept })
	perTech("rip_tree_dp_max_per_node", "gauge", "Largest surviving option set any tree DP node has held, by node.",
		func(s techSnap) uint64 { return s.tree.MaxPerNode })

	// Front counters: the engine's native cached object is the Pareto
	// front — one solve per distinct shape, every budget answered by
	// lookup. Lookups vs solves is the multi-budget leverage the front
	// refactor buys; points per front sizes the retained curves.
	perTech("rip_front_solves_total", "counter", "Pareto fronts computed (one per cold net shape), by node.",
		func(s techSnap) uint64 { return s.front.Solves })
	perTech("rip_front_points_total", "counter", "Front points retained across all computed fronts, by node.",
		func(s techSnap) uint64 { return s.front.Points })
	perTech("rip_front_max_points", "gauge", "Largest single front computed, by node.",
		func(s techSnap) uint64 { return s.front.MaxPoints })
	perTech("rip_front_lookups_total", "counter", "Budget answers served by front lookup, by node.",
		func(s techSnap) uint64 { return s.front.Lookups })
	perTech("rip_front_coalesced_total", "counter", "Jobs answered by another job's in-flight solve of their shape, by node.",
		func(s techSnap) uint64 { return s.front.Coalesced })

	// ε-relaxation counters: how much of the workload runs relaxed, how
	// many candidates only the relaxation pruned (the work the ε mode
	// saves), and the certified per-answer suboptimality distribution —
	// the operator's evidence that the speedup stays inside its bound.
	perTech("rip_dp_eps_solves_total", "counter", "Front solves performed in ε-relaxed mode, by node.",
		func(s techSnap) uint64 { return s.eps.Solves })
	perTech("rip_dp_eps_pruned_total", "counter", "Candidates pruned only by the ε relaxation, by node.",
		func(s techSnap) uint64 { return s.eps.Pruned })
	perTech("rip_dp_eps_answers_total", "counter", "Budget answers served from ε-relaxed fronts, by node.",
		func(s techSnap) uint64 { return s.eps.Answers })
	fmt.Fprintf(w, "# HELP rip_dp_eps_bound Certified relative width-suboptimality bound per served ε answer.\n")
	fmt.Fprintf(w, "# TYPE rip_dp_eps_bound histogram\n")
	for _, s := range snaps {
		var cum uint64
		for i, edge := range engine.EpsBoundBuckets {
			cum += s.eps.BoundHist[i]
			fmt.Fprintf(w, "rip_dp_eps_bound_bucket{tech=%q,le=\"%g\"} %d\n", s.name, edge, cum)
		}
		cum += s.eps.BoundHist[len(engine.EpsBoundBuckets)]
		fmt.Fprintf(w, "rip_dp_eps_bound_bucket{tech=%q,le=\"+Inf\"} %d\n", s.name, cum)
		fmt.Fprintf(w, "rip_dp_eps_bound_sum{tech=%q} %g\n", s.name, s.eps.BoundSum)
		fmt.Fprintf(w, "rip_dp_eps_bound_count{tech=%q} %d\n", s.name, s.eps.Answers)
	}

	// Crosstalk counters: how much of the workload is priced under a
	// coupling scenario, and how often the served answers actually deploy
	// the staggering/shielding countermeasures — flat zeros under coupled
	// load mean budgets are loose enough that plain wiring wins.
	perTech("rip_coupling_jobs_total", "counter", "Accepted crosstalk-aware jobs (solve and front queries), by node.",
		func(s techSnap) uint64 { return s.cpl.Jobs })
	perTech("rip_coupling_solves_total", "counter", "Coupled front solves performed (cache hits add none), by node.",
		func(s techSnap) uint64 { return s.cpl.Solves })
	perTech("rip_coupling_staggered_answers_total", "counter", "Served answers staggering at least one interval, by node.",
		func(s techSnap) uint64 { return s.cpl.StaggeredAnswers })
	perTech("rip_coupling_shielded_answers_total", "counter", "Served answers shielding at least one interval, by node.",
		func(s techSnap) uint64 { return s.cpl.ShieldedAnswers })

	// Bus co-optimization counters: how much of the workload arrives as
	// track groups, and which co-decision algorithm answers them. Sweeps
	// against iterated jobs is the convergence health signal — an average
	// near the 32-sweep cap means best-response is being cut off.
	perTech("rip_bus_jobs_total", "counter", "Accepted bus co-optimization jobs, by node.",
		func(s techSnap) uint64 { return s.busS.Jobs })
	perTech("rip_bus_tracks_total", "counter", "Member tracks across accepted bus jobs, by node.",
		func(s techSnap) uint64 { return s.busS.Tracks })
	perTech("rip_bus_exact_total", "counter", "Bus jobs answered by the joint chain DP, by node.",
		func(s techSnap) uint64 { return s.busS.Exact })
	perTech("rip_bus_iterated_total", "counter", "Bus jobs answered by iterated best-response, by node.",
		func(s techSnap) uint64 { return s.busS.Iterated })
	perTech("rip_bus_sweeps_total", "counter", "Best-response sweeps across iterated bus jobs, by node.",
		func(s techSnap) uint64 { return s.busS.Sweeps })

	// Cluster forwarding health (only when a ring is configured). The
	// forwards/fallbacks split is the signal that matters: fallbacks
	// climbing means owners are unreachable and the fleet is quietly
	// re-duplicating cache entries it meant to partition.
	if node != nil {
		cs := node.Stats()
		cg := func(metric, kind, help string, v uint64) {
			fmt.Fprintf(w, "# HELP %s %s\n", metric, help)
			fmt.Fprintf(w, "# TYPE %s %s\n", metric, kind)
			fmt.Fprintf(w, "%s %d\n", metric, v)
		}
		cg("rip_cluster_peers", "gauge", "Ring members, self included.", uint64(cs.Peers))
		cg("rip_cluster_forwards_total", "counter", "Jobs answered by their owning peer.", cs.Forwards)
		cg("rip_cluster_forward_failures_total", "counter", "Forward attempts that failed.", cs.Failures)
		cg("rip_cluster_fallbacks_total", "counter", "Peer failures absorbed by a local solve.", cs.Fallbacks)
		cg("rip_cluster_unroutable_total", "counter", "Jobs declined as unroutable (no shape signature).", cs.Unroutable)
		cg("rip_cluster_open_breakers", "gauge", "Peers currently skipped by an open circuit breaker.", uint64(cs.OpenBreakers))
	}

	// Snapshot age (only when periodic snapshots are configured): a
	// stalled saver shows as unbounded growth here.
	if lastSnap != nil {
		if last := lastSnap(); !last.IsZero() {
			fmt.Fprintf(w, "# HELP rip_snapshot_age_seconds Seconds since the last successful cache snapshot.\n")
			fmt.Fprintf(w, "# TYPE rip_snapshot_age_seconds gauge\n")
			fmt.Fprintf(w, "rip_snapshot_age_seconds %g\n", time.Since(last).Seconds())
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
