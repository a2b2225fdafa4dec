// Command ripbench-e2e is the repository's benchmark: it builds ripd from
// the checkout, boots it with default flags, drives one of four seeded
// workloads over HTTP, checks every answer, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics) one per line, then
// one JSON result line. See README.md for the workloads and metrics.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh --workload chip_batch --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh                      # all four workloads
//	bash benchmark/run.sh -trace 1             # plus spans and per-layer metrics
//	bash benchmark/run.sh -sets 2 -o a.json    # two sets, medians and quartiles
//	bash benchmark/run.sh compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"
)

const (
	// setupReps is how many fresh processes each run sets up; setup_s is
	// their median.
	setupReps = 5
	// runCap bounds one workload run after the build, so a pathological
	// slowdown still ends in failures rather than a hung benchmark.
	runCap = 150 * time.Second
	// wakeTime is how long every CPU spins before a run's first set-up.
	wakeTime = time.Second
)

// wakeCPUs keeps every CPU busy for d. On the 2-vCPU virtual machine the
// benchmark was tuned on, a vCPU left idle for several seconds comes back
// at half speed for about a second; spinning first keeps that out of the
// timings, and the run stays busy from there on.
func wakeCPUs(d time.Duration) {
	stop := time.Now().Add(d)
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
			}
		}()
	}
	wg.Wait()
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: chip_batch, interactive_hot, interactive_mix or coupled_bus (default: all four)")
		seed     = flag.Int64("seed", 2005, "input seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 15, "run length in seconds (1–60)")
		traced   = flag.Int("trace", 0, "1 = also replay the run in-process with spans and print the per-layer metrics")
		sets     = flag.Int("sets", 0, "run every workload this many times (seeds seed, seed+1, …), alternating workload order, and print each metric's median and quartiles")
		out      = flag.String("o", "", "with -sets: write every run's metrics here (the input of compare)")
	)
	flag.Parse()
	if flag.Arg(0) == "compare" {
		os.Exit(compareMain(flag.Args()[1:]))
	}
	if flag.NArg() > 0 || *seconds < 1 || *seconds > 60 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	names := workloadNames
	if *workload != "" {
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(os.Stderr, "ripbench-e2e: unknown workload %q (want one of %v)\n", *workload, workloadNames)
			os.Exit(2)
		}
		names = []string{*workload}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	b, err := newBench(ctx, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ripbench-e2e:", err)
		os.Exit(2)
	}
	if *sets > 0 {
		os.Exit(b.runSets(ctx, names, *seed, *sets, *out))
	}
	code := 0
	for _, name := range names {
		rep, err := b.run(ctx, name, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ripbench-e2e: %s: %v\n", name, err)
			os.Exit(1)
		}
		rep.print(os.Stdout)
		if err := b.printJSON(os.Stdout, rep); err != nil {
			fmt.Fprintln(os.Stderr, "ripbench-e2e:", err)
			os.Exit(1)
		}
		if !rep.correct() {
			code = 1
		}
	}
	os.Exit(code)
}

// bench holds what every run shares: the checkout, the built server and
// the metric contract.
type bench struct {
	build, bin string
	spec       *spec
	seconds    int
	trace      bool
}

func newBench(ctx context.Context, seconds int, trace bool) (*bench, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	sp, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	b := &bench{build: filepath.Join(root, ".bench_build"), spec: sp, seconds: seconds, trace: trace}
	b.bin = filepath.Join(b.build, "ripd")
	if err := buildRipd(ctx, root, b.bin); err != nil {
		return nil, err
	}
	return b, nil
}

// metric is one reported number. An absent metric could not be measured
// (its source is gone or the workload never exercised it).
type metric struct {
	name, unit string
	value      float64
	ok         bool
	n          int // samples behind a percentile, 0 otherwise
}

// report is one workload run's outcome.
type report struct {
	workload          string
	seed              int64
	metrics           []metric
	attempted, failed int
	examples          []string
}

func (r *report) add(name, unit string, v float64, ok bool) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, ok: ok && !math.IsNaN(v) && !math.IsInf(v, 0)})
}

// addN reports a percentile of n samples; it is absent without samples.
func (r *report) addN(name, unit string, v float64, n int) {
	r.add(name, unit, v, n > 0)
	r.metrics[len(r.metrics)-1].n = n
}

func (r *report) correct() bool { return r.failed == 0 }

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// print writes one "workload metric value unit [n=samples]" line per
// metric.
func (r *report) print(w *os.File) {
	for _, m := range r.metrics {
		v := "absent"
		if m.ok {
			v = strconv.FormatFloat(m.value, 'g', -1, 64)
		}
		n := ""
		if m.n > 0 {
			n = fmt.Sprintf(" n=%d", m.n)
		}
		fmt.Fprintf(w, "%s %s %s %s%s\n", r.workload, m.name, v, m.unit, n)
	}
	for _, e := range r.examples {
		fmt.Fprintf(os.Stderr, "ripbench-e2e: %s: failure: %s\n", r.workload, e)
	}
}

// printJSON writes the result line: the end-to-end metrics BENCHMARK.json
// lists, or with -trace 1 its per-layer metrics. An absent metric's
// value is null.
func (b *bench) printJSON(w *os.File, r *report) error {
	type value struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	want := b.spec.EndToEnd
	if b.trace {
		want = b.spec.PerLayer
	}
	metrics := make(map[string]value, len(want))
	for _, s := range want {
		m, ok := r.get(s.Name)
		if !ok {
			return fmt.Errorf("%s: BENCHMARK.json lists %s but the run does not compute it", r.workload, s.Name)
		}
		v := value{Unit: m.unit}
		if m.ok {
			v.Value = &m.value
		}
		metrics[s.Name] = v
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), max(1, r.attempted), r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// run executes one workload: set-up, the timed window, the correctness
// oracle and, with tracing, the in-process replay.
func (b *bench) run(ctx context.Context, name string, seed int64) (rep *report, err error) {
	ctx, cancel := context.WithTimeout(ctx, runCap)
	defer cancel()
	w, err := buildWorkload(name, seed, sizesFor(b.seconds))
	if err != nil {
		return nil, err
	}
	chk := newChecker()
	logPath := filepath.Join(b.build, "logs", name+".log")

	// Set-up: setupReps fresh processes, each booted to readiness and sent
	// the set-up batch. The last one serves the timed window.
	var (
		setups []float64
		srv    *ripd
	)
	defer func() {
		if srv != nil {
			if serr := srv.stop(); err == nil && serr != nil {
				err = serr
			}
		}
	}()
	wakeCPUs(wakeTime)
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			err := srv.stop()
			srv = nil
			if err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if srv, err = startRipd(b.bin, logPath); err != nil {
			return nil, err
		}
		if err := srv.waitReady(ctx); err != nil {
			return nil, err
		}
		cl := newClient(srv.base, w.conns)
		failed := chk.failures()
		lines, _ := chk.batch(ctx, cl, w.warm)
		cl.close()
		if chk.failures() > failed {
			return nil, fmt.Errorf("set-up batch failed: %v", chk.examples)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == 0 && len(w.ladders) > 0 {
			if err := w.fillLadders(targetsByName(lines)); err != nil {
				return nil, err
			}
		}
	}

	cl := newClient(srv.base, w.conns)
	defer cl.close()
	admin := newClient(srv.base, 1)
	defer admin.close()
	if w.warmup > 0 {
		drive(ctx, w, cl, chk, w.warmup)
	}
	chk.beginWindow()
	before, err := scrapeMetrics(ctx, admin)
	if err != nil {
		return nil, err
	}
	pb, err := readProc(srv.pid())
	if err != nil {
		return nil, err
	}
	win := drive(ctx, w, cl, chk, w.window)
	after, err := scrapeMetrics(ctx, admin)
	if err != nil {
		return nil, err
	}
	pa, err := readProc(srv.pid())
	if err != nil {
		return nil, err
	}

	// The window's dup counts, before the replay fetches add any.
	chk.mu.Lock()
	dups := 0
	for _, n := range chk.missBySig {
		dups += n - 1
	}
	replayItems := chk.missOrder[:min(replayMax, len(chk.missOrder))]
	chk.mu.Unlock()
	var fronts map[*item]frontAnswer
	if b.trace {
		fronts = fetchFronts(ctx, admin, chk, replayItems)
	}
	err = srv.stop()
	srv = nil
	if err != nil {
		return nil, err
	}
	if err := chk.resolve(ctx, seed, resolveCount); err != nil {
		return nil, err
	}

	rep = &report{workload: name, seed: seed}
	sent := w.sentItems(win.sent)
	// End-to-end metrics.
	nets := float64(win.answered())
	lat := sortedIn(win.lat, time.Millisecond)
	rep.add("setup_s", "s", median(setups), true)
	rep.add("nets_per_s", "nets/s", nets/win.elapsed.Seconds(), nets > 0)
	rep.addN("latency_p50_ms", "ms", percentile(lat, 0.50), len(lat))
	rep.addN("latency_p99_ms", "ms", percentile(lat, 0.99), len(lat))

	// Per-layer metrics measured from outside the process.
	rep.add("ripd.cpu_ms_per_net", "ms", float64(pa.cpuTicks-pb.cpuTicks)*1000/clockTicks/nets, nets > 0)
	rep.add("ripd.peak_rss_mb", "MB", float64(pa.hwmKB)/1024, true)
	d := func(metric, series, unit string) {
		v, ok := delta(before, after, series)
		rep.add(metric, unit, v, ok)
	}
	d("server.requests", "rip_requests_total", "count")
	d("server.rejected", "rip_requests_rejected_total", "count")
	latSum, ok1 := delta(before, after, "rip_http_request_duration_seconds_sum")
	latCount, ok2 := delta(before, after, "rip_http_request_duration_seconds_count")
	serverMean := latSum / latCount * 1000
	rep.add("server.latency_mean_ms", "ms", serverMean, ok1 && ok2 && latCount > 0)
	rep.add("server.http_overhead_ms", "ms", mean(sortedIn(win.svc, time.Millisecond))-serverMean, ok1 && ok2 && latCount > 0)
	hits, okh := delta(before, after, "rip_cache_hits_total")
	misses, okm := delta(before, after, "rip_cache_misses_total")
	rejected, okr := delta(before, after, "rip_cache_rejected_total")
	rep.add("engine.hit_rate", "ratio", hits/(hits+misses+rejected), okh && okm && okr && hits+misses+rejected > 0)
	d("engine.cache_rejected", "rip_cache_rejected_total", "count")
	d("engine.cache_evictions", "rip_cache_evictions_total", "count")
	d("engine.front_solves", "rip_front_solves_total", "count")
	distinct := distinctShapes(sent)
	rep.add("engine.distinct_shapes", "count", float64(distinct), true)
	solves, oks := delta(before, after, "rip_front_solves_total")
	rep.add("engine.dup_solve_ratio", "ratio", solves/float64(distinct), oks && distinct > 0)
	d("engine.front_lookups", "rip_front_lookups_total", "count")
	d("dp.solves", "rip_dp_solves_total", "count")
	d("dp.generated", "rip_dp_generated_total", "count")
	d("dp.kept", "rip_dp_kept_total", "count")
	gen, okg := delta(before, after, "rip_dp_generated_total")
	kept, okk := delta(before, after, "rip_dp_kept_total")
	rep.add("dp.kept_ratio", "ratio", kept/gen, okg && okk && gen > 0)
	d("dp.budget_aborts", "rip_dp_budget_aborts_total", "count")
	d("tree.solves", "rip_tree_dp_solves_total", "count")
	d("tree.generated", "rip_tree_dp_generated_total", "count")
	d("tree.kept", "rip_tree_dp_kept_total", "count")
	d("coupling.solves", "rip_coupling_solves_total", "count")
	d("bus.jobs", "rip_bus_jobs_total", "count")
	d("bus.tracks", "rip_bus_tracks_total", "count")
	d("bus.exact", "rip_bus_exact_total", "count")
	d("bus.iterated", "rip_bus_iterated_total", "count")
	rep.add("workload.repeat_share", "ratio", repeatShare(sent), len(sent) > 0)
	rep.add("workload.concurrent_dup_share", "ratio", float64(dups)/nets, nets > 0)
	if w.due != nil {
		rep.addN("gen.timer_lag_p99_ms", "ms", percentile(sortedIn(win.timerLag, time.Millisecond), 0.99), len(win.timerLag))
		rep.addN("gen.send_lag_p99_ms", "ms", percentile(sortedIn(win.sendLag, time.Millisecond), 0.99), len(win.sendLag))
	}

	if b.trace {
		if err := b.traceRun(ctx, rep, w, win.sent, chk, replayItems, fronts); err != nil {
			return nil, err
		}
	}

	chk.mu.Lock()
	rep.attempted, rep.failed, rep.examples = chk.attempted, chk.failed, chk.examples
	chk.mu.Unlock()
	rep.add("error_frac", "ratio", float64(rep.failed)/float64(max(1, rep.attempted)), true)
	rep.add("nproc", "count", float64(runtime.NumCPU()), true)
	return rep, nil
}

// drive runs the workload's timed traffic; a cycling workload runs for d.
func drive(ctx context.Context, w *workload, cl *client, chk *checker, d time.Duration) window {
	send := func(ctx context.Context, i int) (int, bool) { return chk.single(ctx, cl, w.seq[i]) }
	switch {
	case w.batch != nil:
		// One connection sends the whole batch: one request, one latency
		// sample.
		t0 := time.Now()
		_, nets := chk.batch(ctx, cl, w.batch)
		d := time.Since(t0)
		return window{lat: []time.Duration{d}, nets: []int{nets}, svc: []time.Duration{d}, sent: 1, elapsed: d}
	case w.due != nil:
		return openLoop(ctx, w.conns, w.due, send)
	case w.cycle:
		return closedLoop(ctx, w.conns, math.MaxInt, time.Now().Add(d), func(ctx context.Context, i int) (int, bool) {
			return chk.single(ctx, cl, w.seq[i%len(w.seq)])
		})
	}
	// The cold pass completes before the warm replays start, so warm
	// latencies never share the CPUs with a cold solve.
	win := closedLoop(ctx, w.conns, w.cold, time.Time{}, send)
	warm := closedLoop(ctx, w.conns, len(w.seq)-w.cold, time.Time{}, func(ctx context.Context, i int) (int, bool) {
		return send(ctx, w.cold+i)
	})
	win.add(&warm)
	return win
}

// targetsByName reads target_ns per net from set-up batch answers.
func targetsByName(lines [][]byte) map[string]float64 {
	out := make(map[string]float64)
	for _, l := range lines {
		var r struct {
			Net      string  `json:"net"`
			TargetNS float64 `json:"target_ns"`
		}
		if json.Unmarshal(l, &r) == nil {
			out[r.Net] = r.TargetNS
		}
	}
	return out
}

// distinctShapes counts the distinct fronts the items need. Trees are
// solved by their own DP, not from a front, so they count nowhere here.
func distinctShapes(items []*item) int {
	seen := make(map[string]bool)
	for _, it := range items {
		if it.kind == kindTree {
			continue
		}
		for _, s := range it.sigs {
			seen[s] = true
		}
	}
	return len(seen)
}

// repeatShare is the share of nets whose shape (for a bus, whose group)
// came earlier in the sequence.
func repeatShare(items []*item) float64 {
	seen := make(map[string]bool)
	repeats := 0
	for _, it := range items {
		if seen[it.sig] {
			repeats++
		}
		seen[it.sig] = true
	}
	return float64(repeats) / float64(len(items))
}

// frontAnswer is the part of a served front the kernel replay checks.
type frontAnswer struct {
	tminNS float64
	points int
}

// fetchFronts asks ripd for the served front of each replayed shape.
func fetchFronts(ctx context.Context, cl *client, chk *checker, items []*item) map[*item]frontAnswer {
	out := make(map[*item]frontAnswer, len(items))
	for _, it := range items {
		req := map[string]any{"net": it.src, "tech": it.tech}
		if it.req.Aggressor != "" {
			req["aggressor"], req["scheme"] = it.req.Aggressor, it.req.Scheme
		}
		body, err := json.Marshal(req)
		if err != nil {
			chk.fail(failf("replay", "%v", err))
			continue
		}
		status, raw, err := cl.post(ctx, "/v1/front", body)
		var fr struct {
			TMinNS float64                `json:"tmin_ns"`
			Points []struct{}             `json:"points"`
			Err    *struct{ Code string } `json:"error"`
		}
		if err == nil {
			err = json.Unmarshal(raw, &fr)
		}
		switch {
		case err != nil:
			chk.fail(failf("transport", "front of %s: %v", it.name, err))
		case fr.Err != nil || status != 200:
			chk.fail(failf("replay", "front of %s answered %d", it.name, status))
		default:
			out[it] = frontAnswer{tminNS: fr.TMinNS, points: len(fr.Points)}
		}
	}
	return out
}

// traceRun replays the run in-process with spans, runs the kernel replay,
// writes the span file and adds the per-layer metrics they measure.
func (b *bench) traceRun(ctx context.Context, rep *report, w *workload, sent int, chk *checker, replayItems []*item, fronts map[*item]frontAnswer) error {
	tr, noop, err := traceWorkload(ctx, w, sent)
	if err != nil {
		return err
	}
	for _, f := range append(tr.failed, failedOf(noop)...) {
		chk.fail(f)
	}
	path := filepath.Join(b.build, "traces", fmt.Sprintf("%s-seed%d.json", w.name, rep.seed))
	if err := tr.writeSpans(path, w.name, rep.seed); err != nil {
		return err
	}
	fmt.Printf("%s trace.file %s\n", w.name, path)

	us := time.Microsecond
	dec, enc := sortedIn(tr.decode, us), sortedIn(tr.encode, us)
	rep.addN("api.decode_p50_us", "us", percentile(dec, 0.5), len(dec))
	rep.addN("api.decode_p99_us", "us", percentile(dec, 0.99), len(dec))
	rep.addN("api.encode_p50_us", "us", percentile(enc, 0.5), len(enc))
	rep.addN("api.encode_p99_us", "us", percentile(enc, 0.99), len(enc))
	rep.add("api.response_bytes_mean", "bytes", mean(tr.bytes), len(tr.bytes) > 0)
	hit, miss := sortedIn(tr.hit, us), sortedIn(tr.miss, time.Millisecond)
	rep.addN("engine.solve_hit_p50_us", "us", percentile(hit, 0.5), len(hit))
	rep.addN("engine.solve_hit_p99_us", "us", percentile(hit, 0.99), len(hit))
	rep.addN("engine.solve_miss_p50_ms", "ms", percentile(miss, 0.5), len(miss))
	rep.addN("engine.solve_miss_p99_ms", "ms", percentile(miss, 0.99), len(miss))
	warmBus := sortedIn(tr.busWarm, us)
	rep.addN("engine.bus_warm_p50_us", "us", percentile(warmBus, 0.5), len(warmBus))
	if noop != nil {
		on := sortedIn(tr.reqs[len(w.warm):], us)
		off := sortedIn(noop.reqs, us)
		p50on, p50off := percentile(on, 0.5), percentile(off, 0.5)
		rep.add("trace.overhead_frac", "ratio", (p50on-p50off)/p50off, len(on) > 0 && len(off) > 0)
	}

	// The replay stops early after half a run length: coupled fronts cost
	// up to a second each.
	rp, err := kernelReplay(replayItems, fronts, tr.missBy, time.Now().Add(time.Duration(b.seconds)*time.Second/2))
	if err != nil {
		return err
	}
	ok := rp.match && len(rp.front) > 0
	if !rp.match {
		fmt.Fprintf(os.Stderr, "ripbench-e2e: %s: kernel replay disagrees with the served fronts; replay metrics absent\n", w.name)
	}
	tau, front := slices.Sorted(slices.Values(rp.tau)), slices.Sorted(slices.Values(rp.front))
	self := slices.Sorted(slices.Values(rp.self))
	rep.add("engine.miss_self_ms", "ms", median(self), ok && len(self) > 0)
	rep.add("dp.tau_min_p50_ms", "ms", percentile(tau, 0.5), ok)
	rep.add("dp.front_p50_ms", "ms", percentile(front, 0.5), ok)
	rep.add("dp.front_p99_ms", "ms", percentile(front, 0.99), ok)
	rep.add("dp.front_allocs", "count", mean(rp.allocs), ok)
	rep.add("dp.front_points_mean", "count", mean(rp.points), ok)
	matched := 0.0
	if rp.match {
		matched = 1
	}
	rep.add("dp.replay_match", "bool", matched, len(rp.front) > 0)
	fmt.Printf("%s dp.replay_shapes %d count\n", w.name, len(rp.front))
	return nil
}

func failedOf(tr *tracer) []*failure {
	if tr == nil {
		return nil
	}
	return tr.failed
}

// spec is the part of BENCHMARK.json the benchmark reads: which metrics
// the result line carries and the bounds compare applies.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(s.EndToEnd) == 0 {
		return nil, errors.New(path + " lists no end_to_end metrics")
	}
	return &s, nil
}
