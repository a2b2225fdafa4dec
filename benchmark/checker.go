package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"github.com/rip-eda/rip/internal/api"
	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/units"
)

// checker verifies every answer ripd gives and keeps the counts the
// report needs. An answer byte-identical to one already verified for the
// same item is the same verdict, so repeated hits cost a comparison, not
// a decode: the client shares the host's cores with the server.
type checker struct {
	reg *tech.Registry

	mu        sync.Mutex
	memo      map[*item][]byte // last verified answer per item
	served    map[*item][]byte // first good answer per item, for the re-solve oracle
	attempted int
	failed    int
	codes     map[string]int
	examples  []string
	// missBySig counts answers computed rather than served from cache,
	// per shape, since the window began; missOrder lists line items in
	// the order their shape first missed (the kernel replay's input).
	missBySig map[string]int
	missSeen  map[string]bool
	missOrder []*item
}

func newChecker() *checker {
	return &checker{
		reg:       tech.DefaultRegistry(),
		memo:      make(map[*item][]byte),
		served:    make(map[*item][]byte),
		codes:     make(map[string]int),
		missBySig: make(map[string]int),
		missSeen:  make(map[string]bool),
	}
}

// failure is a failed request or check, keyed by an envelope code or one
// of the benchmark's own codes.
type failure struct{ code, msg string }

func (f *failure) Error() string { return f.code + ": " + f.msg }

func failf(code, format string, args ...any) *failure {
	return &failure{code: code, msg: fmt.Sprintf(format, args...)}
}

// beginWindow restarts the per-window miss counts.
func (c *checker) beginWindow() {
	c.mu.Lock()
	c.missBySig = make(map[string]int)
	c.mu.Unlock()
}

// failures reports how many checks have failed so far.
func (c *checker) failures() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed
}

// fail records a failure that is not tied to one answer.
func (c *checker) fail(f *failure) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	c.noteFailure(f)
}

func (c *checker) noteFailure(f *failure) {
	c.failed++
	c.codes[f.code]++
	if len(c.examples) < 5 {
		c.examples = append(c.examples, f.Error())
	}
}

// single sends one item to its endpoint and checks the answer.
func (c *checker) single(ctx context.Context, cl *client, it *item) (int, bool) {
	status, body, err := cl.post(ctx, it.kind.route(), it.body)
	if !c.answer(it, status, body, err) {
		return 0, false
	}
	return it.nets, true
}

// batch sends items as one JSONL /v1/batch and checks that exactly one
// answer line comes back per input line, in input order. It returns the
// answer lines and the nets the good ones counted.
func (c *checker) batch(ctx context.Context, cl *client, items []*item) (lines [][]byte, nets int) {
	var body bytes.Buffer
	for _, it := range items {
		body.Write(it.body)
		body.WriteByte('\n')
	}
	status, raw, err := cl.post(ctx, "/v1/batch", body.Bytes())
	if err == nil && status != 200 {
		err = failf("http_status", "batch answered %d", status)
	}
	if err != nil {
		for range items {
			c.answer(nil, 0, nil, err)
		}
		return nil, 0
	}
	if raw = bytes.TrimRight(raw, "\n"); len(raw) > 0 {
		lines = bytes.Split(raw, []byte("\n"))
	}
	for i, it := range items {
		if i >= len(lines) {
			c.fail(failf("batch_truncated", "batch of %d lines answered %d", len(items), len(lines)))
			continue
		}
		// checkAnswer pins each line's net name, and copies are named
		// apart, so an answer out of input order fails here too.
		if c.answer(it, status, lines[i], nil) {
			nets += it.nets
		}
	}
	if len(lines) > len(items) {
		c.fail(failf("batch_extra", "batch of %d lines answered %d", len(items), len(lines)))
	}
	return lines, nets
}

// answer checks one answer (it is nil for a request that never reached
// the server) and records the outcome.
func (c *checker) answer(it *item, status int, body []byte, err error) bool {
	if err == nil && it != nil {
		c.mu.Lock()
		prev, seen := c.memo[it]
		c.mu.Unlock()
		if seen && status == 200 && bytes.Equal(prev, body) {
			c.mu.Lock()
			c.attempted++
			c.mu.Unlock()
			return true
		}
	}
	var f *failure
	miss := false
	switch {
	case err != nil:
		var ok bool
		if f, ok = err.(*failure); !ok {
			f = failf("transport", "%v", err)
		}
	default:
		miss, f = c.verify(it, status, body)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if f != nil {
		c.noteFailure(f)
		return false
	}
	c.memo[it] = body
	if _, ok := c.served[it]; !ok {
		c.served[it] = body
	}
	if miss && it.kind != kindBus {
		c.missBySig[it.sig]++
		if it.kind.lineKind() && !c.missSeen[it.sig] {
			c.missSeen[it.sig] = true
			c.missOrder = append(c.missOrder, it)
		}
	}
	return true
}

// verify decodes one answer and checks it; miss reports an answer that
// was computed rather than served from cache. Failures branch on the
// envelope's code only.
func (c *checker) verify(it *item, status int, body []byte) (miss bool, f *failure) {
	var env struct {
		Err *api.ErrorInfo `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return false, failf("undecodable", "%s: %v", it.name, err)
	}
	if env.Err != nil {
		return false, failf(env.Err.Code, "%s: %s", it.name, env.Err.Message)
	}
	if status/100 != 2 {
		return false, failf("http_status", "%s: status %d without an error envelope", it.name, status)
	}
	switch it.kind {
	case kindFront:
		var r api.FrontResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return false, failf("undecodable", "%s: %v", it.name, err)
		}
		return !r.CacheHit, checkFront(it, &r)
	case kindBus:
		var r api.BusResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return false, failf("undecodable", "bus: %v", err)
		}
		return false, checkBus(it, &r)
	}
	var r api.Response
	if err := json.Unmarshal(body, &r); err != nil {
		return false, failf("undecodable", "%s: %v", it.name, err)
	}
	return !r.CacheHit, c.checkAnswer(it, &r)
}

// checkAnswer checks an optimize answer (or batch line) against its
// request. Every workload's budgets are feasible, so an infeasible
// verdict is a wrong answer here.
func (c *checker) checkAnswer(it *item, r *api.Response) *failure {
	if r.Net != it.name || r.Tech != it.tech {
		return failf("wrong_net", "asked %s on %s, answered %s on %s", it.name, it.tech, r.Net, r.Tech)
	}
	switch it.kind {
	case kindLine:
		if !r.Feasible {
			return failf("infeasible", "%s at %g ns", it.name, r.TargetNS)
		}
		return c.checkPlacement(it, r.TargetNS, r.PositionsUM, r.WidthsU)
	case kindLadder:
		if len(r.Sweep) != len(it.req.TargetsNS) {
			return failf("wrong_sweep", "%s: %d budgets answered %d", it.name, len(it.req.TargetsNS), len(r.Sweep))
		}
		for _, p := range r.Sweep {
			if !p.Feasible {
				return failf("infeasible", "%s at %g ns", it.name, p.TargetNS)
			}
			if f := c.checkPlacement(it, p.TargetNS, p.PositionsUM, p.WidthsU); f != nil {
				return f
			}
		}
	case kindTree:
		if r.Kind != "tree" || !r.Feasible {
			return failf("infeasible", "tree %s (kind %q, feasible %v)", it.name, r.Kind, r.Feasible)
		}
	case kindCoupled:
		if !r.Feasible {
			return failf("infeasible", "%s under %s/%s", it.name, it.req.Aggressor, it.req.Scheme)
		}
		if r.Aggressor != it.req.Aggressor || r.Scheme != it.req.Scheme {
			return failf("wrong_scenario", "%s: asked %s/%s, answered %s/%s", it.name,
				it.req.Aggressor, it.req.Scheme, r.Aggressor, r.Scheme)
		}
	}
	return nil
}

// checkPlacement re-evaluates an uncoupled line answer on the request's
// own net: the placement must be legal and its Elmore delay within the
// budget.
func (c *checker) checkPlacement(it *item, targetNS float64, posUM, widths []float64) *failure {
	t, _, err := c.reg.Get(it.tech)
	if err != nil {
		return failf("oracle", "%v", err)
	}
	ev, err := delay.NewEvaluator(it.req.Net, t)
	if err != nil {
		return failf("oracle", "%s: %v", it.name, err)
	}
	a := delay.Assignment{Positions: make([]float64, len(posUM)), Widths: widths}
	for i, x := range posUM {
		a.Positions[i] = x * units.Micron
	}
	if err := ev.Validate(a); err != nil {
		return failf("invalid_placement", "%s: %v", it.name, err)
	}
	if d, limit := ev.Total(a), targetNS*units.NanoSecond*(1+1e-9); !(d <= limit) {
		return failf("budget_violated", "%s: delay %g s over budget %g s", it.name, d, limit)
	}
	return nil
}

// checkFront checks a served front is a Pareto curve: delay strictly
// rising while width strictly falls.
func checkFront(it *item, r *api.FrontResponse) *failure {
	if r.Net != it.name || r.Tech != it.tech {
		return failf("wrong_net", "asked front of %s on %s, answered %s on %s", it.name, it.tech, r.Net, r.Tech)
	}
	if len(r.Points) == 0 || !(r.TMinNS > 0) {
		return failf("empty_front", "%s: %d points, tmin %g", it.name, len(r.Points), r.TMinNS)
	}
	for i := 1; i < len(r.Points); i++ {
		p, q := r.Points[i-1], r.Points[i]
		if !(q.DelayNS > p.DelayNS && q.TotalWidthU < p.TotalWidthU) {
			return failf("not_pareto", "%s: point %d (%g ns, %g u) after (%g ns, %g u)", it.name, i,
				q.DelayNS, q.TotalWidthU, p.DelayNS, p.TotalWidthU)
		}
	}
	return nil
}

// checkBus checks a bus answer's bookkeeping: one track answer per
// track in order, per-track fields summing to the group fields, and the
// coordinated assignment no worse than the independent baseline
// (infeasible tracks first, then width).
func checkBus(it *item, r *api.BusResponse) *failure {
	if len(r.Tracks) != len(it.bus.Tracks) || r.Tech != it.tech {
		return failf("wrong_tracks", "bus of %d tracks on %s answered %d on %s", len(it.bus.Tracks), it.tech, len(r.Tracks), r.Tech)
	}
	var area, power, base, width float64
	infeasible, baseInfeasible := 0, 0
	for i, t := range r.Tracks {
		if t.Net != it.bus.Tracks[i].Name {
			return failf("wrong_tracks", "track %d answered %s, asked %s", i, t.Net, it.bus.Tracks[i].Name)
		}
		area += t.AreaSavedUM
		power += t.PowerSavedUW
		if t.BaselineFeasible {
			base += t.BaselineWidthU
		} else {
			baseInfeasible++
		}
		if t.Feasible {
			width += t.WidthU
		} else {
			infeasible++
		}
	}
	sums := []struct {
		name       string
		sum, group float64
	}{
		{"area_saved_um", area, r.GroupAreaSaved},
		{"power_saved_uw", power, r.GroupPowerSaved},
		{"baseline_width_u", base, r.GroupBaselineWidthU},
		{"width_u", width, r.GroupWidthU},
	}
	for _, s := range sums {
		if !near(s.sum, s.group) {
			return failf("bus_sums", "%s: tracks sum to %g, group says %g", s.name, s.sum, s.group)
		}
	}
	if infeasible != r.Infeasible || baseInfeasible != r.BaselineInfeasible {
		return failf("bus_sums", "infeasible tracks %d/%d, group says %d/%d", infeasible, baseInfeasible, r.Infeasible, r.BaselineInfeasible)
	}
	worse := r.Infeasible > r.BaselineInfeasible ||
		r.Infeasible == r.BaselineInfeasible && r.GroupWidthU > r.GroupBaselineWidthU*(1+1e-9)
	if worse {
		return failf("bus_worse", "coordinated (%d infeasible, %g u) worse than baseline (%d, %g u)",
			r.Infeasible, r.GroupWidthU, r.BaselineInfeasible, r.GroupBaselineWidthU)
	}
	return nil
}

// near reports a and b equal up to summation-order rounding.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
