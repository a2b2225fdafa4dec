package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rip-eda/rip/internal/api"
	"github.com/rip-eda/rip/internal/core"
	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/dp"
	"github.com/rip-eda/rip/internal/engine"
	"github.com/rip-eda/rip/internal/repeater"
	"github.com/rip-eda/rip/internal/units"
)

// span is one timed step of a traced request. Spans of one request share
// its trace id (the request's index in the traced sequence); times are
// nanoseconds since the traced run began.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"span"`
	Parent int    `json:"parent"` // -1 for the request span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Attrs  string `json:"attrs,omitempty"`
}

// tracer replays a workload's requests in-process through the public
// calls ripd's handlers make, timing each layer boundary: api.decode
// (parse, resolve the node, apply defaults, validate), engine.solve, and
// api.encode (wire form and JSON). Spans stay in memory until the run
// ends; with spans off it keeps only the per-request durations (the
// no-op recorder the tracing overhead is measured against).
type tracer struct {
	m     *engine.Multi
	start time.Time
	spans bool

	mu      sync.Mutex
	out     []span
	decode  []time.Duration
	encode  []time.Duration
	hit     []time.Duration
	miss    []time.Duration
	busWarm []time.Duration
	reqs    []time.Duration // whole-request durations
	bytes   []float64
	missBy  map[string]time.Duration // first miss solve per line shape
	failed  []*failure
}

func newTracer(m *engine.Multi, spans bool) *tracer {
	return &tracer{m: m, start: time.Now(), spans: spans, missBy: make(map[string]time.Duration)}
}

// request runs one item the way its handler does; batchLine runs it the
// way a /v1/batch line is (no node check or validation before the
// engine, compact JSON).
func (tr *tracer) request(ctx context.Context, id int, it *item, batchLine bool) {
	t0 := time.Now()
	var (
		req  api.Request
		breq api.BusRequest
		err  error
	)
	if it.kind == kindBus {
		if err = json.Unmarshal(it.body, &breq); err == nil {
			if _, err = tr.m.Resolve(breq.Tech); err == nil {
				breq.ApplyDefault(0, 0)
				err = breq.Validate()
			}
		}
	} else if req, err = api.ParseRequest(it.body); err == nil {
		if !batchLine {
			_, err = tr.m.Resolve(req.Tech)
		}
		if err == nil && it.kind == kindFront && !batchLine {
			err = req.ValidateFront()
		} else if err == nil {
			req.ApplyDefault(0, 0)
			req.ApplyDefaultEps(0)
			req.ApplyDefaultCoupling("", "")
			if !batchLine {
				err = req.Validate()
			}
		}
	}
	t1 := time.Now()
	if err != nil {
		tr.fail(failf("trace_decode", "%s: %v", it.name, err))
		return
	}

	var (
		hit  bool
		serr error
		wire func() any
	)
	switch it.kind {
	case kindBus:
		br := tr.m.SolveBus(ctx, breq.Job())
		hit, serr = len(br.Tracks) > 0, br.Err
		for _, t := range br.Tracks {
			hit = hit && t.CacheHit
		}
		wire = func() any { return api.FromBusResult(br) }
	case kindFront:
		fr := tr.m.FrontContext(ctx, req.Job())
		hit, serr = fr.CacheHit, fr.Err
		wire = func() any { return api.FromFrontResult(fr) }
	default:
		res := tr.m.SolveContext(ctx, req.Job())
		hit, serr = res.CacheHit, res.Err
		wire = func() any { return api.FromResult(res) }
	}
	t2 := time.Now()
	var out []byte
	if batchLine {
		out, err = json.Marshal(wire())
	} else {
		out, err = json.MarshalIndent(wire(), "", "  ")
	}
	t3 := time.Now()
	if serr == nil && err != nil {
		serr = err
	}

	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.reqs = append(tr.reqs, t3.Sub(t0))
	if serr != nil {
		tr.failed = append(tr.failed, failf("trace_solve", "%s: %v", it.name, serr))
		return
	}
	solve := t2.Sub(t1)
	tr.decode = append(tr.decode, t1.Sub(t0))
	tr.encode = append(tr.encode, t3.Sub(t2))
	tr.bytes = append(tr.bytes, float64(len(out)))
	outcome := "hit"
	if hit {
		tr.hit = append(tr.hit, solve)
		if it.kind == kindBus {
			tr.busWarm = append(tr.busWarm, solve)
		}
	} else {
		outcome = "miss"
		tr.miss = append(tr.miss, solve)
		if _, seen := tr.missBy[it.sig]; it.kind.lineKind() && !seen {
			tr.missBy[it.sig] = solve
		}
	}
	if !tr.spans {
		return
	}
	at := func(t time.Time) int64 { return int64(t.Sub(tr.start)) }
	root := 4 * id
	tr.out = append(tr.out,
		span{Trace: id, ID: root, Parent: -1, Name: "request", Start: at(t0), End: at(t3), Attrs: it.tech},
		span{Trace: id, ID: root + 1, Parent: root, Name: "api.decode", Start: at(t0), End: at(t1)},
		span{Trace: id, ID: root + 2, Parent: root, Name: "engine.solve", Start: at(t1), End: at(t2), Attrs: outcome},
		span{Trace: id, ID: root + 3, Parent: root, Name: "api.encode", Start: at(t2), End: at(t3)})
}

func (tr *tracer) fail(f *failure) {
	tr.mu.Lock()
	tr.failed = append(tr.failed, f)
	tr.mu.Unlock()
}

// run drives items in order from conns goroutines, the way the engine's
// workers pull a stream. Request ids start at first; it returns how many
// ran.
func (tr *tracer) run(ctx context.Context, conns int, items []*item, batch bool, first int) int {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				tr.request(ctx, first+i, items[i], batch)
			}
		}()
	}
	wg.Wait()
	return min(int(next.Load()), len(items))
}

// hotTraceCap bounds the traced interactive_hot requests: hits are cheap
// enough that an uncapped replay would hold millions of spans.
const hotTraceCap = 10000

// traceWorkload replays the set-up batch and the requests the HTTP
// window sent (sent of them) in-process, in order and at the same
// concurrency. interactive_hot replays only its first hotTraceCap
// requests, twice: traced, then with the no-op recorder, returned as
// noop.
func traceWorkload(ctx context.Context, w *workload, sent int) (tr, noop *tracer, err error) {
	m, err := engine.NewMulti(ripdRegistry(), nodes[0], engine.Options{})
	if err != nil {
		return nil, nil, err
	}
	tr = newTracer(m, true)
	id := tr.run(ctx, 2, w.warm, true, 0)
	switch {
	case w.batch != nil:
		// ripd's stream solves the batch on its two workers.
		tr.run(ctx, 2, w.batch, true, id)
	case w.cycle:
		items := w.sentItems(min(sent, hotTraceCap))
		tr.run(ctx, w.conns, items, false, id)
		noop = newTracer(m, false)
		noop.run(ctx, w.conns, items, false, id)
	case w.due != nil:
		tr.run(ctx, w.conns, w.seq[:sent], false, id)
	default:
		id += tr.run(ctx, w.conns, w.seq[:w.cold], false, id)
		tr.run(ctx, w.conns, w.seq[w.cold:sent], false, id)
	}
	return tr, noop, ctx.Err()
}

// writeSpans writes the spans as one JSON file.
func (tr *tracer) writeSpans(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, tr.out})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// frontStepFactor is the engine's native front space: the concise
// library's width range at 4× its granularity, on the coarse pitch.
const frontStepFactor = 4

// replayMax bounds the shapes the kernel replay re-runs.
const replayMax = 64

// replay is the kernel replay's outcome: the two dynamic programs of a
// cold line solve, timed alone on one goroutine.
type replay struct {
	tau, front []float64 // ms per solve
	allocs     []float64 // heap allocations per front solve
	points     []float64 // front points per solve
	self       []float64 // traced miss solve minus τmin+front, ms
	match      bool      // τmin bits and point counts equal the served fronts
}

// kernelReplay re-runs dp.Solver.MinimumDelayStats (reference space) and
// SolveFront (the engine's front space, ladder on) for each item's
// shape, under its coupling scenario, until stop. served holds ripd's
// /v1/front answers for the same shapes; missBy the traced run's miss
// solve times.
func kernelReplay(items []*item, served map[*item]frontAnswer, missBy map[string]time.Duration, stop time.Time) (*replay, error) {
	d := core.DefaultConfig()
	lib, err := repeater.Range(d.MinWidth, d.MaxWidth, frontStepFactor*d.RoundGranularity)
	if err != nil {
		return nil, err
	}
	frontOpts := dp.Options{Library: lib, Pitch: d.CoarsePitch, MaxGenerated: d.MaxGenerated, Ladder: true}
	refOpts, err := dp.ReferenceOptions()
	if err != nil {
		return nil, err
	}
	reg := ripdRegistry()
	s := dp.NewSolver()
	r := &replay{match: true}
	for i, it := range items {
		if i > 0 && time.Now().After(stop) {
			break
		}
		t, _, err := reg.Get(it.tech)
		if err != nil {
			return nil, err
		}
		ev, err := delay.NewEvaluator(it.req.Net, t)
		if err != nil {
			return nil, err
		}
		var cpl *delay.Coupling
		if it.req.Aggressor != "" {
			agg, err := delay.ParseAggressor(it.req.Aggressor)
			if err != nil {
				return nil, err
			}
			mode, err := delay.ParseSchemeMode(it.req.Scheme)
			if err != nil {
				return nil, err
			}
			if cpl, err = delay.NewCoupling(t, agg, mode); err != nil {
				return nil, err
			}
		}
		ro, fo := refOpts, frontOpts
		ro.Coupling, fo.Coupling = cpl, cpl
		if i == 0 {
			// Warm the solver's arenas, as the engine's pooled solvers are.
			if _, _, err := s.SolveFront(ev, fo); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		tmin, _, err := s.MinimumDelayStats(ev, ro)
		if err != nil {
			return nil, fmt.Errorf("replay τmin of %s: %w", it.name, err)
		}
		t1 := time.Now()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t2 := time.Now()
		front, _, err := s.SolveFront(ev, fo)
		t3 := time.Now()
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return nil, fmt.Errorf("replay front of %s: %w", it.name, err)
		}
		kernel := t1.Sub(t0) + t3.Sub(t2)
		r.tau = append(r.tau, ms(t1.Sub(t0)))
		r.front = append(r.front, ms(t3.Sub(t2)))
		r.allocs = append(r.allocs, float64(ms1.Mallocs-ms0.Mallocs))
		r.points = append(r.points, float64(len(front)))
		if sf, ok := served[it]; !ok || !sameBits(tmin/units.NanoSecond, sf.tminNS) || len(front) != sf.points {
			r.match = false
		}
		if d, ok := missBy[it.sig]; ok {
			r.self = append(r.self, ms(d-kernel))
		}
	}
	return r, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
