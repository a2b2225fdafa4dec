package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"github.com/rip-eda/rip/internal/api"
	"github.com/rip-eda/rip/internal/bus"
	"github.com/rip-eda/rip/internal/engine"
	"github.com/rip-eda/rip/internal/netgen"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/tree"
	"github.com/rip-eda/rip/internal/wire"
)

// Workload names, in the order a full run executes them.
const (
	chipBatch      = "chip_batch"
	interactiveHot = "interactive_hot"
	interactiveMix = "interactive_mix"
	coupledBus     = "coupled_bus"
)

var workloadNames = []string{chipBatch, interactiveHot, interactiveMix, coupledBus}

// nodes are the technology nodes ripd serves by default.
var nodes = []string{"180nm", "130nm", "90nm", "65nm"}

// Workload shape constants. Sizes that scale with the run length are in
// sizesFor.
const (
	chipBlockLines = 2 // distinct line shapes per node per chip_batch block
	chipBlockTrees = 1 // distinct tree shapes per node per block
	chipMaxCopies  = 6 // each shape is a run of 1..chipMaxCopies arrayed copies
	hotSeqLen      = 4096
	mixCold        = 7 // never-seen lines per interactive_mix second, one per segment count
	lineMult       = 1.3
	busMult        = 1.2
	ladderBudgets  = 10
)

// sizes sets how much each workload sends.
type sizes struct {
	blocks                     int           // chip_batch blocks in its one batch
	prefillLines, prefillTrees int           // set-up batch shapes per node
	window                     time.Duration // interactive_hot's timed window, interactive_mix's schedule
	warmup                     time.Duration // interactive_hot's untimed warm-up
	mixRate                    int           // interactive_mix requests per second
	busGroups                  int           // coupled_bus groups per node
	busReplays                 int           // shuffled warm replays of coupled_bus's groups
}

// sizesFor scales the workloads to a run length. chip_batch and
// coupled_bus do a fixed amount of work, sized so that one run takes
// about the run length on a 2-core host; interactive_hot runs for exactly
// the run length and interactive_mix sends a fixed schedule spread over
// it. coupled_bus gets one group per node per second, so a 15 s run
// holds every group size once per node, and enough warm replays to fill
// about as long as its cold pass.
func sizesFor(seconds int) sizes {
	return sizes{
		blocks:       3 * seconds,
		prefillLines: 7,
		prefillTrees: 2,
		window:       time.Duration(seconds) * time.Second,
		warmup:       time.Second,
		mixRate:      200,
		busGroups:    seconds,
		busReplays:   600,
	}
}

// kind is what an item asks ripd for.
type kind int

const (
	kindLine    kind = iota // uncoupled line, one budget
	kindLadder              // uncoupled line, a targets_ns budget ladder
	kindTree                // routing tree, one budget
	kindFront               // uncoupled line, its whole Pareto front
	kindCoupled             // line under the "worst" aggressor scenario
	kindBus                 // group of parallel tracks
)

// route is the endpoint an item goes to when sent on its own.
func (k kind) route() string {
	switch k {
	case kindFront:
		return "/v1/front"
	case kindBus:
		return "/v1/bus"
	}
	return "/v1/optimize"
}

// lineKind reports whether answers of this kind come from one line front
// (the shapes the kernel replay can re-run).
func (k kind) lineKind() bool { return k != kindTree && k != kindBus }

// item is one distinct request. Repeated requests share the item, so
// answers are verified once per distinct body.
type item struct {
	id   int // creation order, for deterministic sampling
	kind kind
	tech string // canonical node name
	name string // net name the answer echoes ("" for a bus)
	body []byte // the request: a /v1/* body, equally one JSONL batch line
	req  api.Request
	bus  api.BusRequest
	src  *wire.Net // the generated line, so derived requests reuse its exact bytes
	nets int       // nets one answer counts: 1, or the group's track count
	// sig is the engine's cache signature of the request (for a bus, the
	// first track's shape); sigs lists every front the solve needs.
	sig  string
	sigs []string
	base *item // kindLadder: the prefilled line whose answer sets the budgets
}

// workload is one generated traffic mix.
type workload struct {
	name  string
	conns int
	warm  []*item // one JSONL batch inside every set-up
	batch []*item // chip_batch: one JSONL batch
	seq   []*item // request order of the timed window
	cycle bool    // interactive_hot: seq repeats until the window closes
	due   []time.Duration
	// window bounds a cycling workload; warmup runs it untimed first.
	window, warmup time.Duration
	ladders        []*item
	// cold is coupled_bus's cold pass: seq[:cold] all complete before the
	// warm replays start.
	cold int
}

// sentItems lists the items of the first n requests the timed window
// sent (for chip_batch, the items of its batch).
func (w *workload) sentItems(n int) []*item {
	switch {
	case w.batch != nil:
		return w.batch
	case w.cycle:
		out := make([]*item, n)
		for i := range out {
			out[i] = w.seq[i%len(w.seq)]
		}
		return out
	}
	return w.seq[:n]
}

// gen builds items deterministically from one seed.
type gen struct {
	rng    *rand.Rand
	reg    *tech.Registry
	signer *engine.Multi // computes cache signatures; never solves
	lines  map[string]netgen.Config
	trees  map[string]netgen.TreeConfig
	n      int // generated nets
	ids    int // created items
	// Per-node decks of segment counts, a deck of copy counts, and per
	// segment count a deck of node indices for cold lines.
	segs      map[string]*deck
	copies    *deck
	coldNodes map[int]*deck
}

// deck deals values in shuffled rounds, each value once per round.
// Drawing segment and copy counts from decks keeps the paper's
// uniform distributions but gives every seed the same mix of sizes, so
// runs on different seeds cost nearly the same: the spread between them
// is the program's, not the generator's.
type deck struct {
	values, left []int
}

func newDeck(lo, hi int) *deck {
	d := &deck{}
	for v := lo; v <= hi; v++ {
		d.values = append(d.values, v)
	}
	return d
}

func (g *gen) draw(d *deck) int {
	if len(d.left) == 0 {
		d.left = slices.Clone(d.values)
		g.rng.Shuffle(len(d.left), func(i, j int) { d.left[i], d.left[j] = d.left[j], d.left[i] })
	}
	v := d.left[0]
	d.left = d.left[1:]
	return v
}

func newGen(seed int64) (*gen, error) {
	reg := tech.DefaultRegistry()
	signer, err := engine.NewMulti(ripdRegistry(), nodes[0], engine.Options{Workers: 1, Cache: engine.CacheOptions{Disabled: true}})
	if err != nil {
		return nil, err
	}
	g := &gen{
		rng:       rand.New(rand.NewSource(seed)),
		reg:       reg,
		signer:    signer,
		lines:     make(map[string]netgen.Config),
		trees:     make(map[string]netgen.TreeConfig),
		segs:      make(map[string]*deck),
		copies:    newDeck(1, chipMaxCopies),
		coldNodes: make(map[int]*deck),
	}
	for _, node := range nodes {
		t, _, err := reg.Get(node)
		if err != nil {
			return nil, err
		}
		if g.lines[node], err = netgen.DefaultConfig(t); err != nil {
			return nil, err
		}
		if g.trees[node], err = netgen.DefaultTreeConfig(t); err != nil {
			return nil, err
		}
		g.segs[node] = newDeck(g.lines[node].MinSegments, g.lines[node].MaxSegments)
	}
	c := g.lines[nodes[0]] // the §6 segment range is the same on every node
	for m := c.MinSegments; m <= c.MaxSegments; m++ {
		g.coldNodes[m] = newDeck(0, len(nodes)-1)
	}
	return g, nil
}

// ripdRegistry is the node set ripd serves with default flags.
func ripdRegistry() *tech.Registry {
	reg := tech.NewRegistry()
	for _, node := range nodes {
		if _, err := reg.RegisterBuiltin(node); err != nil {
			panic(err) // built-in nodes always register
		}
	}
	return reg
}

func (g *gen) line(node string) (*wire.Net, error) {
	return g.lineOf(node, g.draw(g.segs[node]))
}

// lineOf generates a line of the given segment count.
func (g *gen) lineOf(node string, segments int) (*wire.Net, error) {
	g.n++
	cfg := g.lines[node]
	cfg.MinSegments, cfg.MaxSegments = segments, segments
	return netgen.Generate(g.rng, cfg, fmt.Sprintf("l%04d", g.n))
}

func (g *gen) tree(node string) (*tree.Net, error) {
	g.n++
	return netgen.GenerateTree(g.rng, g.trees[node], fmt.Sprintf("t%04d", g.n))
}

// item encodes a request and parses it back the way ripd does, so the
// oracle and the signature see exactly the net the server sees.
func (g *gen) item(k kind, r api.Request, src *wire.Net) (*item, error) {
	body, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	req, err := api.ParseRequest(body)
	if err != nil {
		return nil, fmt.Errorf("generated request does not parse: %v", err)
	}
	sig, ok := g.signer.Signature(req.Job())
	if !ok {
		return nil, fmt.Errorf("generated request %s has no signature", req.Name())
	}
	g.ids++
	return &item{id: g.ids, kind: k, tech: r.Tech, name: req.Name(), body: body, req: req, src: src,
		nets: 1, sig: sig, sigs: []string{sig}}, nil
}

// lineItem builds an uncoupled line request; mult is 0 for a front.
func (g *gen) lineItem(k kind, node string, n *wire.Net, mult float64) (*item, error) {
	return g.item(k, api.Request{Net: n, Tech: node, TargetMult: mult}, n)
}

func (g *gen) treeItem(node string, t *tree.Net, mult float64) (*item, error) {
	return g.item(kindTree, api.Request{Tree: t, Tech: node, TargetMult: mult}, nil)
}

func (g *gen) coupledItem(node string, n *wire.Net, scheme string) (*item, error) {
	return g.item(kindCoupled, api.Request{Net: n, Tech: node, TargetMult: busMult, Aggressor: "worst", Scheme: scheme}, n)
}

// busItem builds a /v1/bus request. Its sigs are the fronts the engine
// solves for it: every track shape under every Miller factor the
// co-decision can assign.
func (g *gen) busItem(node string, tracks []*wire.Net) (*item, error) {
	body, err := json.Marshal(api.BusRequest{Tracks: tracks, Tech: node, TargetMult: busMult})
	if err != nil {
		return nil, err
	}
	var req api.BusRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	t, _, err := g.reg.Get(node)
	if err != nil {
		return nil, err
	}
	g.ids++
	it := &item{id: g.ids, kind: kindBus, tech: node, body: body, bus: req, nets: len(req.Tracks)}
	for _, tr := range req.Tracks {
		for _, mf := range bus.MFValues(t.MillerMax) {
			sig, ok := g.signer.Signature(engine.Job{Net: tr, Tech: node, MF: &mf})
			if !ok {
				return nil, fmt.Errorf("bus track %s has no signature", tr.Name)
			}
			if !slices.Contains(it.sigs, sig) {
				it.sigs = append(it.sigs, sig)
			}
		}
	}
	it.sig = it.sigs[0]
	return it, nil
}

// prefill is every workload's set-up batch: sz.prefillLines lines and
// sz.prefillTrees trees per node. It is the working set of
// interactive_hot and interactive_mix; chip_batch and coupled_bus never
// send its shapes again. Every set-up thus pays a fresh process's first
// solves the same way, and set-up time is long enough to measure. Seven
// lines per node deal every segment count once, so set-up costs nearly
// the same on every seed.
func (g *gen) prefill(sz sizes) (lines []*item, trees []*item, err error) {
	for _, node := range nodes {
		for i := 0; i < sz.prefillLines; i++ {
			n, err := g.line(node)
			if err != nil {
				return nil, nil, err
			}
			it, err := g.lineItem(kindLine, node, n, lineMult)
			if err != nil {
				return nil, nil, err
			}
			lines = append(lines, it)
		}
		for i := 0; i < sz.prefillTrees; i++ {
			t, err := g.tree(node)
			if err != nil {
				return nil, nil, err
			}
			it, err := g.treeItem(node, t, lineMult)
			if err != nil {
				return nil, nil, err
			}
			trees = append(trees, it)
		}
	}
	return lines, trees, nil
}

// buildWorkload generates the named workload from the seed.
func buildWorkload(name string, seed int64, sz sizes) (*workload, error) {
	g, err := newGen(seed)
	if err != nil {
		return nil, err
	}
	lines, trees, err := g.prefill(sz)
	if err != nil {
		return nil, err
	}
	var w *workload
	switch name {
	case chipBatch:
		w, err = g.chip(sz)
	case interactiveHot:
		w, err = g.hot(sz, lines, trees)
	case interactiveMix:
		w, err = g.mix(sz, slices.Concat(lines, trees))
	case coupledBus:
		w, err = g.coupled(sz)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	w.warm = slices.Concat(lines, trees)
	return w, nil
}

// chip builds chip_batch: one JSONL batch of arrayed nets, made of blocks
// with the same make-up. Every block holds, per node, chipBlockLines line
// and chipBlockTrees tree shapes, each as a contiguous run of
// 1..chipMaxCopies identically routed copies (named apart, like the bits
// of a bus), with the runs shuffled. A block's second line per node
// mirrors the first's segment count (4 pairs with 10, 5 with 9, …) and
// its copy counts are two rounds of the copy deck, so every block asks
// for about the same work.
func (g *gen) chip(sz sizes) (*workload, error) {
	w := &workload{name: chipBatch, conns: 1}
	for b := 0; b < sz.blocks; b++ {
		var runs [][]*item
		for _, node := range nodes {
			cfg, first := g.lines[node], 0
			for s := 0; s < chipBlockLines+chipBlockTrees; s++ {
				run := make([]*item, g.draw(g.copies))
				if s < chipBlockLines {
					segs := g.draw(g.segs[node])
					if s%2 == 1 {
						segs = cfg.MinSegments + cfg.MaxSegments - first
					}
					first = segs
					n, err := g.lineOf(node, segs)
					if err != nil {
						return nil, err
					}
					for c := range run {
						cp := *n // the Line is immutable and safely shared
						cp.Name = fmt.Sprintf("%s.%d", n.Name, c)
						if run[c], err = g.lineItem(kindLine, node, &cp, lineMult); err != nil {
							return nil, err
						}
					}
				} else {
					tn, err := g.tree(node)
					if err != nil {
						return nil, err
					}
					for c := range run {
						cp := *tn
						cp.Name = fmt.Sprintf("%s.%d", tn.Name, c)
						if run[c], err = g.treeItem(node, &cp, lineMult); err != nil {
							return nil, err
						}
					}
				}
				runs = append(runs, run)
			}
		}
		g.rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
		for _, r := range runs {
			w.batch = append(w.batch, r...)
		}
	}
	return w, nil
}

// hot builds interactive_hot: a closed loop over the prefilled set. Of
// the requests, 70% optimize a line (budget 1.3, 1.6 or 2×τmin), 10%
// optimize a tree, 10% ask a line for a ladder of ladderBudgets budgets
// in 1.3–2.8×τmin, and 10% ask a line for its whole front.
func (g *gen) hot(sz sizes, lines, trees []*item) (*workload, error) {
	w := &workload{name: interactiveHot, conns: 2, cycle: true, window: sz.window, warmup: sz.warmup}
	var err error
	type lineReqs struct {
		opt         [3]*item
		ladder, frt *item
	}
	reqs := make([]lineReqs, len(lines))
	for i, base := range lines {
		reqs[i].opt[0] = base
		for k, mult := range []float64{1.6, 2.0} {
			if reqs[i].opt[k+1], err = g.lineItem(kindLine, base.tech, base.src, mult); err != nil {
				return nil, err
			}
		}
		if reqs[i].frt, err = g.lineItem(kindFront, base.tech, base.src, 0); err != nil {
			return nil, err
		}
		// The ladder's budgets need the line's τmin, which the set-up
		// batch answers; fillLadders encodes the body then.
		g.ids++
		reqs[i].ladder = &item{id: g.ids, kind: kindLadder, tech: base.tech, name: base.name, src: base.src,
			nets: 1, sig: base.sig, sigs: base.sigs, base: base}
		w.ladders = append(w.ladders, reqs[i].ladder)
	}
	w.seq = make([]*item, hotSeqLen)
	for i := range w.seq {
		r := reqs[g.rng.Intn(len(reqs))]
		switch p := g.rng.Float64(); {
		case p < 0.7:
			w.seq[i] = r.opt[g.rng.Intn(len(r.opt))]
		case p < 0.8:
			w.seq[i] = trees[g.rng.Intn(len(trees))]
		case p < 0.9:
			w.seq[i] = r.ladder
		default:
			w.seq[i] = r.frt
		}
	}
	return w, nil
}

// fillLadders encodes the ladder requests once the set-up batch has
// answered their base lines: target_ns of a 1.3·τmin answer gives τmin.
func (w *workload) fillLadders(targetNS map[string]float64) error {
	for _, it := range w.ladders {
		t, ok := targetNS[it.base.name]
		if !ok || !(t > 0) {
			return fmt.Errorf("set-up batch did not answer %s, which a ladder needs", it.base.name)
		}
		tmin := t / lineMult
		budgets := make([]float64, ladderBudgets)
		for k := range budgets {
			budgets[k] = tmin * (1.3 + 1.5*float64(k)/float64(ladderBudgets-1))
		}
		body, err := json.Marshal(api.Request{Net: it.src, Tech: it.tech, TargetsNS: budgets})
		if err != nil {
			return err
		}
		if it.req, err = api.ParseRequest(body); err != nil {
			return err
		}
		it.body = body
	}
	return nil
}

// mix builds interactive_mix: sz.mixRate requests per second of the
// window, due at uniformly random times within their second (a Poisson
// process conditioned on its count per second). Each second, mixCold of
// them optimize a line never seen before, one of each segment count (on
// nodes dealt per segment count), each due at a random time within its
// own seventh of the second, so cold arrivals vary but do not pile up
// more in one run than in another; the rest optimize a random item of
// the prefilled set.
func (g *gen) mix(sz sizes, hits []*item) (*workload, error) {
	w := &workload{name: interactiveMix, conns: 2}
	type req struct {
		due time.Duration
		it  *item
	}
	for sec := 0; sec < max(1, int(sz.window/time.Second)); sec++ {
		base := time.Duration(sec) * time.Second
		var reqs []req
		c := g.lines[nodes[0]]
		for k, m := range g.rng.Perm(mixCold) {
			m += c.MinSegments
			node := nodes[g.draw(g.coldNodes[m])]
			l, err := g.lineOf(node, m)
			if err != nil {
				return nil, err
			}
			it, err := g.lineItem(kindLine, node, l, lineMult)
			if err != nil {
				return nil, err
			}
			at := (float64(k) + g.rng.Float64()) / mixCold
			reqs = append(reqs, req{base + time.Duration(at*float64(time.Second)), it})
		}
		for k := mixCold; k < sz.mixRate; k++ {
			at := time.Duration(g.rng.Float64() * float64(time.Second))
			reqs = append(reqs, req{base + at, hits[g.rng.Intn(len(hits))]})
		}
		slices.SortFunc(reqs, func(a, b req) int { return int(a.due - b.due) })
		for _, r := range reqs {
			w.due = append(w.due, r.due)
			w.seq = append(w.seq, r.it)
		}
	}
	return w, nil
}

// Group sizes of coupled_bus: every segment count in busSegs with every
// track count in busTracks, the same on each node. Fixing the sizes
// leaves the seed only the geometry to vary. Coupled solve time grows
// steeply with line length (a 10-segment 65nm group can take 2 s cold),
// so the lines stay short enough that a run holds many groups and their
// geometry averages out.
var (
	busSegs   = []int{4, 5, 6}
	busTracks = []int{2, 3, 4, 5, 6}
)

// coupled builds coupled_bus: sz.busGroups groups per node on 90nm and
// 65nm (cycling through the group sizes), each followed by two single-line
// requests on its first track's geometry under the worst aggressor
// (plain and staggered). All of them go out once, cold, largest group
// first, so both connections stay busy to the end of the cold pass. Once
// every one has answered, sz.busReplays shuffled warm replays of the
// groups follow (warm line hits would put the median between two
// clusters of latencies).
func (g *gen) coupled(sz sizes) (*workload, error) {
	w := &workload{name: coupledBus, conns: 2}
	type group struct {
		weight int
		items  []*item // the bus request, then its two line requests
	}
	var groups []group
	for i := 0; i < sz.busGroups; i++ {
		for _, node := range []string{"90nm", "65nm"} {
			k := i % (len(busSegs) * len(busTracks))
			segs, ntracks := busSegs[k/len(busTracks)], busTracks[k%len(busTracks)]
			c := g.lines[node]
			c.MinSegments, c.MaxSegments = segs, segs
			g.n++
			tracks, err := netgen.BusGroup(g.rng, c, fmt.Sprintf("b%04d", g.n), ntracks)
			if err != nil {
				return nil, err
			}
			bi, err := g.busItem(node, tracks)
			if err != nil {
				return nil, err
			}
			gr := group{weight: segs * ntracks, items: []*item{bi}}
			for _, scheme := range []string{"plain", "staggered"} {
				cp := *tracks[0]
				cp.Name = fmt.Sprintf("%s.w%s", tracks[0].Name, scheme[:1])
				ci, err := g.coupledItem(node, &cp, scheme)
				if err != nil {
					return nil, err
				}
				gr.items = append(gr.items, ci)
			}
			groups = append(groups, gr)
		}
	}
	slices.SortStableFunc(groups, func(a, b group) int { return b.weight - a.weight })
	var buses []*item
	for _, gr := range groups {
		w.seq = append(w.seq, gr.items...)
		buses = append(buses, gr.items[0])
	}
	w.cold = len(w.seq)
	for r := 0; r < sz.busReplays; r++ {
		pass := slices.Clone(buses)
		g.rng.Shuffle(len(pass), func(i, j int) { pass[i], pass[j] = pass[j], pass[i] })
		w.seq = append(w.seq, pass...)
	}
	return w, nil
}
