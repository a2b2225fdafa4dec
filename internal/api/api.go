// Package api defines the JSON wire format shared by every network-facing
// entry point to the batch engine: cmd/ripcli's -batch/-tree JSONL modes
// and cmd/ripd's HTTP endpoints speak exactly these types, so a JSONL
// file prepared for the CLI can be replayed against the service (and vice
// versa) byte for byte. Both net kinds ride the same format: a request
// carries either a two-pin "net" or a routing "tree", and batches may mix
// them line by line. Units follow the paper's conventions — lengths in
// µm, times in ns, widths in multiples of the unit repeater width u —
// rather than the SI values used internally.
package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/engine"
	"github.com/rip-eda/rip/internal/jsonscan"
	"github.com/rip-eda/rip/internal/tree"
	"github.com/rip-eda/rip/internal/units"
	"github.com/rip-eda/rip/internal/wire"
)

// Request is one optimization request: a net — two-pin line or routing
// tree, exactly one — plus its timing budget. Exactly one of TargetMult
// (budget = TargetMult·τmin) or TargetNS (absolute nanoseconds) must be
// positive, unless the transport supplies a default budget (ripcli's
// -target/-target-ns flags, ripd's -target flag) — or, for trees, every
// sink carries its own rat_ns deadline, in which case the tree may omit
// the budget and is solved against those embedded deadlines.
type Request struct {
	// V is the wire-format version the request speaks. Zero (absent)
	// means 1, today's only version; any other value is rejected with
	// code "unsupported_version" so a client speaking a future format
	// fails loudly instead of being half-understood.
	V int `json:"v,omitempty"`
	// Net is the routed two-pin interconnect, in the schema of
	// internal/wire (µm / Ω·µm⁻¹ / fF·µm⁻¹ units).
	Net *wire.Net `json:"net,omitempty"`
	// Tree is the routing tree, in the schema of internal/tree's Net
	// (flat parent-linked node list; Ω / fF / ns units).
	Tree *tree.Net `json:"tree,omitempty"`
	// Tech names the process node to solve under — a canonical registry
	// name or alias ("90nm", "t90", a loaded custom node's name). Empty
	// means the transport's default node. Lines of one batch may mix
	// nodes freely; the engine routes each to its own per-technology
	// solver and cache.
	Tech string `json:"tech,omitempty"`
	// TargetMult expresses the budget as a multiple of the net's τmin —
	// for trees, of the minimum achievable worst-sink arrival.
	TargetMult float64 `json:"target_mult,omitempty"`
	// TargetNS is the absolute budget in nanoseconds; trees apply it to
	// every sink.
	TargetNS float64 `json:"target_ns,omitempty"`
	// TargetsNS is the multi-budget batch form: a list of absolute budgets
	// in nanoseconds, all answered from the net's single retained Pareto
	// front (one solve, one response with a per-budget "sweep" array).
	// Mutually exclusive with TargetMult and TargetNS; every entry must be
	// positive. Trees apply each budget to every sink.
	TargetsNS []float64 `json:"targets_ns,omitempty"`
	// Aggressor opts the request into crosstalk-aware solving (line nets
	// only): "worst", "best" or "quiet" prices coupling capacitance under
	// that neighbor-switching assumption; "none" forces the classic
	// ground-only model even when the transport carries a default
	// aggressor; absent inherits that default. Requires a node with a
	// coupling model.
	Aggressor string `json:"aggressor,omitempty"`
	// Scheme selects the countermeasures a coupled solve may deploy per
	// grid interval: "plain" (none), "staggered", "shielded" or "auto"
	// (both). Only meaningful with an aggressor; absent inherits the
	// transport's default scheme.
	Scheme string `json:"scheme,omitempty"`
	// MF prices the net's coupling under an explicit Miller factor instead
	// of a named scenario, with no countermeasure schemes (line nets only;
	// mutually exclusive with aggressor/scheme). Bus co-optimization
	// forwards member solves this way, pinning the exact factor a track's
	// neighbors produce. Must be finite and within [0, MillerMax] — the
	// upper bound is the engine's call, since it owns the technology.
	MF *float64 `json:"mf,omitempty"`
}

// WireVersion is the wire-format version this package speaks; requests
// carrying any other non-zero "v" are rejected.
const WireVersion = 1

// checkVersion rejects wire versions this server does not speak.
func (r *Request) checkVersion() error {
	if r.V != 0 && r.V != WireVersion {
		return Codef(CodeUnsupportedVersion,
			"api: unsupported wire version %d (this server speaks v%d)", r.V, WireVersion)
	}
	return nil
}

// Validate checks the request shape without solving anything. Every
// failure carries an envelope code — bad_request unless the failing
// check assigned something more specific (unsupported_version).
func (r *Request) Validate() error { return asBadRequest(r.validate()) }

func (r *Request) validate() error {
	if err := r.checkVersion(); err != nil {
		return err
	}
	switch {
	case r.Net == nil && r.Tree == nil:
		return errors.New("api: request has no net")
	case r.Net != nil && r.Tree != nil:
		return fmt.Errorf("api: net %q: give net or tree, not both", r.name())
	case r.TargetMult > 0 && r.TargetNS > 0:
		return fmt.Errorf("api: net %q: give target_mult or target_ns, not both", r.name())
	case len(r.TargetsNS) > 0 && (r.TargetMult > 0 || r.TargetNS > 0):
		return fmt.Errorf("api: net %q: give targets_ns or a single target_mult/target_ns, not both", r.name())
	}
	for _, t := range r.TargetsNS {
		if !(t > 0) {
			return fmt.Errorf("api: net %q: targets_ns entry %g is not a positive time", r.name(), t)
		}
	}
	if err := r.checkCoupling(); err != nil {
		return err
	}
	if r.Tree != nil {
		if r.TargetMult <= 0 && r.TargetNS <= 0 && len(r.TargetsNS) == 0 && !r.Tree.HasDeadlines() {
			return fmt.Errorf("api: tree %q: a positive target_mult or target_ns is required unless every sink carries rat_ns", r.Tree.Name)
		}
		return r.Tree.Validate()
	}
	if r.TargetMult <= 0 && r.TargetNS <= 0 && len(r.TargetsNS) == 0 {
		return fmt.Errorf("api: net %q: a positive target_mult or target_ns is required", r.Net.Name)
	}
	return r.Net.Validate()
}

// checkCoupling rejects malformed crosstalk fields: unknown tokens, a
// scheme without an aggressor, an explicit factor mixed with a named
// scenario, and either on tree requests (the coupling model is a
// line-net mode). Whether the node actually carries a coupling model is
// the engine's call — it owns the technology.
func (r *Request) checkCoupling() error {
	if r.MF != nil {
		if r.Aggressor != "" || r.Scheme != "" {
			return fmt.Errorf("api: net %q: give mf or an aggressor/scheme scenario, not both", r.name())
		}
		if r.Tree != nil {
			return fmt.Errorf("api: tree %q: mf is only supported for line nets", r.Tree.Name)
		}
		if mf := *r.MF; math.IsNaN(mf) || math.IsInf(mf, 0) || mf < 0 {
			return fmt.Errorf("api: net %q: mf %g is not a finite non-negative factor", r.name(), mf)
		}
		return nil
	}
	agg, err := delay.ParseAggressor(r.Aggressor)
	if err != nil {
		return fmt.Errorf("api: net %q: %v", r.name(), err)
	}
	if _, err := delay.ParseSchemeMode(r.Scheme); err != nil {
		return fmt.Errorf("api: net %q: %v", r.name(), err)
	}
	if agg == delay.AggressorNone {
		if r.Scheme != "" {
			return fmt.Errorf("api: net %q: scheme %q needs an aggressor (set aggressor to worst, best or quiet)", r.name(), r.Scheme)
		}
		return nil
	}
	if r.Tree != nil {
		return fmt.Errorf("api: tree %q: aggressor is only supported for line nets", r.Tree.Name)
	}
	return nil
}

func (r *Request) name() string {
	if r.Net != nil {
		return r.Net.Name
	}
	if r.Tree != nil {
		return r.Tree.Name
	}
	return ""
}

// Job converts the request to an engine job (ns → seconds).
func (r *Request) Job() engine.Job {
	j := engine.Job{
		Net:        r.Net,
		TreeNet:    r.Tree,
		Tech:       r.Tech,
		TargetMult: r.TargetMult,
		Target:     r.TargetNS * units.NanoSecond,
		Aggressor:  r.Aggressor,
		Scheme:     r.Scheme,
		MF:         r.MF,
	}
	for _, t := range r.TargetsNS {
		j.Budgets = append(j.Budgets, t*units.NanoSecond)
	}
	return j
}

// Name returns the request's net name regardless of kind, for error
// responses.
func (r *Request) Name() string { return r.name() }

// ApplyDefault fills in the transport-level default budget when the
// request carries none of its own. A tree whose sinks all carry embedded
// deadlines keeps them: the default would silently override per-sink
// timing the client spelled out.
func (r *Request) ApplyDefault(targetMult, targetNS float64) {
	if r.TargetMult > 0 || r.TargetNS > 0 || len(r.TargetsNS) > 0 {
		return
	}
	if r.Tree != nil && r.Tree.HasDeadlines() {
		return
	}
	r.TargetMult = targetMult
	r.TargetNS = targetNS
}

// ApplyDefaultEps does nothing: there is no default ε to apply.
//
// Deprecated: ε relaxation was removed and every solve is exact. Kept
// only while the benchmark harness still calls it.
func (r *Request) ApplyDefaultEps(float64) {}

// ApplyDefaultCoupling fills in the transport-level default crosstalk
// scenario (ripcli/ripd -aggressor/-scheme) on line requests that carry
// no "aggressor" of their own. An explicit "none" stays uncoupled —
// absent and none mean different things here — and a request-level
// scheme always wins over the default scheme.
func (r *Request) ApplyDefaultCoupling(aggressor, scheme string) {
	if r.Tree != nil || aggressor == "" || r.MF != nil {
		return
	}
	if r.Aggressor == "" {
		r.Aggressor = aggressor
	}
	if r.Scheme == "" && scheme != "" {
		if agg, err := delay.ParseAggressor(r.Aggressor); err == nil && agg != delay.AggressorNone {
			r.Scheme = scheme
		}
	}
}

// ParseRequest decodes one request line. Three forms are accepted: the
// wrapper {"net": {...}, "target_mult": 1.2}, the tree wrapper
// {"tree": {...}, "target_ns": 0.9}, and a bare net object (the same
// schema as the elements of a nets.json array), which inherits the
// transport's default budget. Bare objects decode as two-pin nets; use
// ParseRequestKind to flip the bare default to trees (ripcli -tree).
func ParseRequest(raw []byte) (Request, error) {
	return ParseRequestKind(raw, KindLine)
}

// Kind selects how a bare (unwrapped) JSON object is interpreted.
type Kind int

const (
	// KindLine parses bare objects as two-pin wire.Net payloads.
	KindLine Kind = iota
	// KindTree parses bare objects as tree.Net payloads.
	KindTree
)

// request is the form ParseRequestKind decodes a wrapper into: a Request
// whose net and tree are the plain on-disk forms. Its "net" and "tree"
// fields shadow Request's own, so one json.Unmarshal fills every field in
// one pass over the body, and the nets are built afterwards.
type request struct {
	Request
	Net  *wire.NetJSON `json:"net"`
	Tree *tree.NetJSON `json:"tree"`
}

// ParseRequestKind is ParseRequest with an explicit bare-object kind.
//
// The body is read once, as a wrapper; the nets are then built from
// their on-disk forms (wire.NetJSON.Net, tree.NetJSON.Net). A body in
// the canonical form json.Marshal writes is read by package jsonscan
// without reflection; any other body is decoded by encoding/json, and
// only one with neither a "net" nor a "tree" is decoded a second time,
// as a bare object of the given kind. Errors name the shape that
// failed: "decoding request:" for a wrapper, "not a net object:" or
// "not a tree object:" for a bare object.
func ParseRequestKind(raw []byte, bare Kind) (Request, error) {
	return parseRequest(raw, bare, true)
}

// parseRequest is ParseRequestKind; with fast false it skips the
// scanner and decodes with encoding/json alone, the path the scanner's
// answers are held to.
func parseRequest(raw []byte, bare Kind, fast bool) (Request, error) {
	var (
		w    request
		line wire.NetJSON
		tr   tree.NetJSON
		err  error
	)
	scanned := fast && w.scan(raw, bare, &line, &tr)
	if !scanned {
		// The shape is decided by the presence of a non-null "net"/"tree"
		// key, not by whether the wrapper decode succeeds: falling back on
		// any wrapper error would silently misread a wrapper with one bad
		// field as a bare net (the decoder ignores unknown keys) and bury
		// the real error behind a baffling empty-net complaint.
		// encoding/json allocates the pointer for any non-null value, even
		// one of the wrong type, and keeps decoding the other keys after a
		// type error, so a set pointer is exactly a present key.
		w, line, tr = request{}, wire.NetJSON{}, tree.NetJSON{}
		err = json.Unmarshal(raw, &w)
	}
	if w.Net != nil || w.Tree != nil {
		r := w.Request
		if err == nil && w.Net != nil {
			r.Net, err = w.Net.Net()
		}
		if err == nil && w.Tree != nil {
			r.Tree, err = w.Tree.Net()
		}
		if err != nil {
			return Request{}, fmt.Errorf("decoding request: %v", err)
		}
		return r, nil
	}
	if bare == KindTree {
		if !scanned {
			if err := json.Unmarshal(raw, &tr); err != nil {
				return Request{}, fmt.Errorf("not a tree object: %v", err)
			}
		}
		n, err := tr.Net()
		if err != nil {
			return Request{}, fmt.Errorf("not a tree object: %v", err)
		}
		return Request{Tree: n}, nil
	}
	if !scanned {
		if err := json.Unmarshal(raw, &line); err != nil {
			return Request{}, fmt.Errorf("not a net object: %v", err)
		}
	}
	n, err := line.Net()
	if err != nil {
		return Request{}, fmt.Errorf("not a net object: %v", err)
	}
	return Request{Net: n}, nil
}

// scan is the fast path: one pass over raw by package jsonscan, filling
// w from a wrapper, or line or tr, by the bare kind, from a bare body.
// It reports false, its fills to be discarded, on any body outside the
// scanner's subset, on a key neither form has, and on a body that mixes
// a wrapper's keys with a bare net's, which encoding/json reads by
// ignoring one or the other.
func (w *request) scan(raw []byte, bare Kind, line *wire.NetJSON, tr *tree.NetJSON) bool {
	wrapper, plain := false, false
	s := jsonscan.New(raw)
	ok := s.Object(func(s *jsonscan.Scanner, key []byte) bool {
		var ok bool
		switch string(key) {
		case "v":
			w.V, ok = s.Int()
		case "net":
			w.Net = new(wire.NetJSON)
			ok = s.Object(w.Net.ScanField)
		case "tree":
			w.Tree = new(tree.NetJSON)
			ok = s.Object(w.Tree.ScanField)
		case "tech":
			w.Tech, ok = s.Str()
		case "target_mult":
			w.TargetMult, ok = s.Float()
		case "target_ns":
			w.TargetNS, ok = s.Float()
		case "targets_ns":
			w.TargetsNS = []float64{}
			ok = s.Array(func(s *jsonscan.Scanner) bool {
				t, ok := s.Float()
				w.TargetsNS = append(w.TargetsNS, t)
				return ok
			})
		case "aggressor":
			w.Aggressor, ok = s.Str()
		case "scheme":
			w.Scheme, ok = s.Str()
		case "mf":
			w.MF = new(float64)
			*w.MF, ok = s.Float()
		default:
			plain = true
			if bare == KindTree {
				return tr.ScanField(s, key)
			}
			return line.ScanField(s, key)
		}
		wrapper = true
		return ok
	})
	if !ok || !s.End() {
		return false
	}
	if w.Net != nil || w.Tree != nil {
		return !plain
	}
	return !wrapper
}

// FeedOptions parameterizes the shared JSONL ingest loop.
type FeedOptions struct {
	// DefaultMult / DefaultNS are the transport's default budget, applied
	// to requests that carry none of their own (see Request.ApplyDefault).
	DefaultMult, DefaultNS float64
	// DefaultAggressor / DefaultScheme are the transport's default
	// crosstalk scenario, applied to line requests that carry no
	// "aggressor" of their own (see ApplyDefaultCoupling).
	DefaultAggressor, DefaultScheme string
	// Bare selects how unwrapped JSON objects decode (line nets by
	// default; KindTree for ripcli -tree streams).
	Bare Kind
	// ForceDefault applies the default budget even to trees whose sinks
	// carry embedded deadlines. ripcli sets it when -target/-target-ns
	// was given explicitly, so the flag means the same thing it means in
	// single-net mode; ripd leaves it false — its -target is a server
	// config fallback that must not trump per-sink timing a client
	// spelled out. A wrapper's own budget always wins over both.
	ForceDefault bool
}

// FeedJSONL is the shared JSONL ingest loop: it reads one request per
// line from in, applies the transport's default budget, and sends each
// line's job on jobs — a zero Job for lines that fail to parse, so the
// failure occupies its input-order slot in the result stream instead of
// vanishing. noteErr receives each parse failure as (job index,
// message); messages name the 1-based input line. Feeding stops early
// when ctx is done. The caller owns the jobs channel (and closes it).
// FeedJSONL returns the number of jobs sent and the reader error, if
// any — a non-nil error means the input was truncated after that many
// jobs.
//
// Blank lines are skipped. Lines may be long: the scanner accepts up to
// 16 MiB per line (nets with many segments).
func FeedJSONL(ctx context.Context, in io.Reader, opts FeedOptions, jobs chan<- engine.Job, noteErr func(idx int, msg string)) (int, error) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	idx, lineNo := 0, 0
	for sc.Scan() {
		lineNo++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		job := engine.Job{}
		req, err := ParseRequestKind(raw, opts.Bare)
		if err != nil {
			noteErr(idx, fmt.Sprintf("line %d: %v", lineNo, err))
		} else {
			if opts.ForceDefault && req.TargetMult <= 0 && req.TargetNS <= 0 && len(req.TargetsNS) == 0 {
				req.TargetMult, req.TargetNS = opts.DefaultMult, opts.DefaultNS
			} else {
				req.ApplyDefault(opts.DefaultMult, opts.DefaultNS)
			}
			req.ApplyDefaultCoupling(opts.DefaultAggressor, opts.DefaultScheme)
			job = req.Job()
		}
		select {
		case jobs <- job:
		case <-ctx.Done():
			return idx, ctx.Err()
		}
		idx++
	}
	return idx, sc.Err()
}

// Response is one net's outcome. Errors are per-net: a failed request
// is reported in its own response — the structured Err envelope — and
// never aborts a batch. Line and tree responses share the envelope;
// Kind distinguishes them, and the placement fields differ —
// positions/widths along the line versus per-node buffers on the tree.
type Response struct {
	// V is the wire-format version of this response (1).
	V int `json:"v,omitempty"`
	// Net echoes the request's net name.
	Net string `json:"net"`
	// Kind is "tree" for tree results and empty (line) otherwise, so
	// mixed-batch outputs are self-describing.
	Kind string `json:"kind,omitempty"`
	// Tech is the canonical name of the node the net was solved under,
	// so mixed-technology batch outputs carry per-line attribution.
	Tech string `json:"tech,omitempty"`
	// Feasible reports whether any assignment met the budget.
	Feasible bool `json:"feasible"`
	// TargetNS is the resolved absolute budget in nanoseconds (0 for
	// trees solved against embedded per-sink deadlines).
	TargetNS float64 `json:"target_ns"`
	// DelayNS is the solution's Elmore delay in nanoseconds — for trees,
	// the worst sink arrival implied by the resolved budget.
	DelayNS float64 `json:"delay_ns"`
	// SlackNS is the tree solution's worst slack in nanoseconds.
	SlackNS float64 `json:"slack_ns,omitempty"`
	// TotalWidthU is the summed repeater/buffer width in units of u.
	TotalWidthU float64 `json:"total_width_u"`
	// PositionsUM and WidthsU are a line solution's repeater placement.
	PositionsUM []float64 `json:"positions_um,omitempty"`
	WidthsU     []float64 `json:"widths_u,omitempty"`
	// Buffers is a tree solution's placement: one entry per inserted
	// buffer, ordered by node ID.
	Buffers []TreeBuffer `json:"buffers,omitempty"`
	// Sweep holds a multi-budget (targets_ns) request's per-budget
	// answers, in request order. For such responses the top-level Feasible
	// aggregates the sweep (true iff every budget was met) and the other
	// single-solution fields are left zero.
	Sweep []SweepPoint `json:"sweep,omitempty"`
	// Aggressor and Scheme echo a coupled request's crosstalk scenario in
	// normalized form ("worst"/"best"/"quiet" and "plain"/"staggered"/
	// "shielded"/"auto"); both absent for uncoupled requests.
	Aggressor string `json:"aggressor,omitempty"`
	Scheme    string `json:"scheme,omitempty"`
	// MF echoes an explicit-factor request's Miller factor; such answers
	// leave Aggressor and Scheme absent (a pointer so a factor of 0
	// survives serialization).
	MF *float64 `json:"mf,omitempty"`
	// StaggeredUM and ShieldedUM are the summed lengths, in µm, of the
	// solution's staggered and shielded wire intervals. Present only on
	// coupled answers.
	StaggeredUM float64 `json:"staggered_um,omitempty"`
	ShieldedUM  float64 `json:"shielded_um,omitempty"`
	// CacheHit reports whether the solution came from the engine's
	// solution cache.
	CacheHit bool `json:"cache_hit"`
	// Err is the structured error envelope for a per-net failure
	// (parse, validation, routing or solver); nil on success. Its Code
	// is the stable field to branch on.
	Err *ErrorInfo `json:"error,omitempty"`
}

// SweepPoint is one budget's answer within a multi-budget response. An
// infeasible budget yields Feasible=false with the placement fields
// empty — a verdict, not an error.
type SweepPoint struct {
	// TargetNS echoes the requested budget in nanoseconds.
	TargetNS float64 `json:"target_ns"`
	// Feasible reports whether any placement met this budget.
	Feasible bool `json:"feasible"`
	// DelayNS is the chosen point's Elmore delay (lines) or implied worst
	// sink arrival (trees under a uniform budget) in nanoseconds.
	DelayNS float64 `json:"delay_ns,omitempty"`
	// SlackNS is a tree answer's worst slack in nanoseconds.
	SlackNS float64 `json:"slack_ns,omitempty"`
	// TotalWidthU is the summed repeater/buffer width in units of u —
	// zero is a real answer (the bare wire already meets the budget), so
	// the field is always emitted.
	TotalWidthU float64 `json:"total_width_u"`
	// PositionsUM and WidthsU are a line answer's repeater placement.
	PositionsUM []float64 `json:"positions_um,omitempty"`
	WidthsU     []float64 `json:"widths_u,omitempty"`
	// Buffers is a tree answer's placement, ordered by node ID.
	Buffers []TreeBuffer `json:"buffers,omitempty"`
	// StaggeredUM and ShieldedUM are this answer's staggered / shielded
	// interval lengths in µm (coupled requests only).
	StaggeredUM float64 `json:"staggered_um,omitempty"`
	ShieldedUM  float64 `json:"shielded_um,omitempty"`
}

// TreeBuffer is one inserted buffer of a tree solution.
type TreeBuffer struct {
	NodeID int     `json:"node"`
	WidthU float64 `json:"width_u"`
}

// FromResult converts an engine result to its wire form.
func FromResult(r engine.Result) Response {
	out := Response{V: WireVersion, Tech: r.Tech, CacheHit: r.CacheHit}
	if r.TreeNet != nil {
		return fromTreeResult(r)
	}
	if r.Net != nil {
		out.Net = r.Net.Name
	}
	if r.Err != nil {
		out.Err = errorInfo(r.Err, out.Net, out.Tech)
		return out
	}
	out.Aggressor = r.Aggressor
	out.Scheme = r.Scheme
	out.MF = r.MF
	if len(r.Sweep) > 0 {
		out.Feasible = true // all budgets met until one misses
		for _, ba := range r.Sweep {
			sol := ba.Res.Solution
			p := SweepPoint{
				TargetNS:    ba.Budget / units.NanoSecond,
				Feasible:    sol.Feasible,
				DelayNS:     sol.Delay / units.NanoSecond,
				TotalWidthU: sol.TotalWidth,
				StaggeredUM: units.ToMicrons(sol.StaggerLen),
				ShieldedUM:  units.ToMicrons(sol.ShieldLen),
			}
			for _, x := range sol.Assignment.Positions {
				p.PositionsUM = append(p.PositionsUM, units.ToMicrons(x))
			}
			p.WidthsU = append(p.WidthsU, sol.Assignment.Widths...)
			out.Sweep = append(out.Sweep, p)
			out.Feasible = out.Feasible && sol.Feasible
		}
		return out
	}
	sol := r.Res.Solution
	out.Feasible = sol.Feasible
	out.TargetNS = r.Target / units.NanoSecond
	out.DelayNS = sol.Delay / units.NanoSecond
	out.TotalWidthU = sol.TotalWidth
	out.StaggeredUM = units.ToMicrons(sol.StaggerLen)
	out.ShieldedUM = units.ToMicrons(sol.ShieldLen)
	for _, x := range sol.Assignment.Positions {
		out.PositionsUM = append(out.PositionsUM, units.ToMicrons(x))
	}
	out.WidthsU = append(out.WidthsU, sol.Assignment.Widths...)
	return out
}

// fromTreeResult renders a tree job's outcome.
func fromTreeResult(r engine.Result) Response {
	out := Response{V: WireVersion, Net: r.TreeNet.Name, Kind: "tree", Tech: r.Tech, CacheHit: r.CacheHit}
	if r.Err != nil {
		out.Err = errorInfo(r.Err, out.Net, out.Tech)
		return out
	}
	if len(r.Sweep) > 0 {
		out.Feasible = true // all budgets met until one misses
		for _, ba := range r.Sweep {
			sol := ba.TreeRes.Solution
			p := SweepPoint{
				TargetNS: ba.Budget / units.NanoSecond,
				Feasible: sol.Feasible,
			}
			if sol.Feasible {
				p.SlackNS = sol.Slack / units.NanoSecond
				p.DelayNS = (ba.Budget - sol.Slack) / units.NanoSecond
				p.TotalWidthU = sol.TotalWidth
				p.Buffers = treeBuffers(sol.Buffers)
			}
			out.Sweep = append(out.Sweep, p)
			out.Feasible = out.Feasible && sol.Feasible
		}
		return out
	}
	sol := r.TreeRes.Solution
	out.Feasible = sol.Feasible
	out.TargetNS = r.Target / units.NanoSecond
	out.SlackNS = sol.Slack / units.NanoSecond
	if r.Target > 0 {
		// Uniform deadline: worst arrival = target − worst slack.
		out.DelayNS = (r.Target - sol.Slack) / units.NanoSecond
	}
	out.TotalWidthU = sol.TotalWidth
	out.Buffers = treeBuffers(sol.Buffers)
	return out
}

// treeBuffers renders a tree placement map ordered by node ID.
func treeBuffers(buffers map[int]float64) []TreeBuffer {
	ids := make([]int, 0, len(buffers))
	for id := range buffers {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	out := make([]TreeBuffer, 0, len(ids))
	for _, id := range ids {
		out = append(out, TreeBuffer{NodeID: id, WidthU: buffers[id]})
	}
	return out
}

// CodedErrorResponse builds a response carrying only a per-net failure
// under an explicit envelope code.
func CodedErrorResponse(code, netName, techName, msg string) Response {
	return Response{
		V:   WireVersion,
		Net: netName,
		Err: &ErrorInfo{Code: code, Message: msg, Net: netName, Tech: techName},
	}
}

// ValidateFront checks a request's shape for a /v1/front curve query,
// which needs a net but no budget: any budget fields present only select
// the tree mode (a budget of any form forces the uniform zero-RAT curve
// on trees; line fronts ignore them entirely).
func (r *Request) ValidateFront() error { return asBadRequest(r.validateFront()) }

func (r *Request) validateFront() error {
	if err := r.checkVersion(); err != nil {
		return err
	}
	switch {
	case r.Net == nil && r.Tree == nil:
		return errors.New("api: request has no net")
	case r.Net != nil && r.Tree != nil:
		return fmt.Errorf("api: net %q: give net or tree, not both", r.name())
	}
	if r.Tree != nil {
		return r.Tree.Validate()
	}
	return r.Net.Validate()
}

// FrontPoint is one point of a served power–delay curve, fastest first.
// Exactly the timing field matching the net kind is populated.
type FrontPoint struct {
	// DelayNS is the point's Elmore delay (lines) or worst-sink arrival
	// (trees under a uniform budget) in nanoseconds.
	DelayNS float64 `json:"delay_ns,omitempty"`
	// SlackNS is the point's worst slack against a tree's embedded
	// per-sink deadlines, in nanoseconds.
	SlackNS float64 `json:"slack_ns,omitempty"`
	// TotalWidthU is the summed repeater/buffer width in units of u — the
	// power objective.
	TotalWidthU float64 `json:"total_width_u"`
	// Repeaters counts the inserted repeaters (buffers) at this point.
	Repeaters int `json:"repeaters"`
	// StaggeredUM and ShieldedUM are the point's staggered / shielded
	// interval lengths in µm (coupled line fronts only).
	StaggeredUM float64 `json:"staggered_um,omitempty"`
	ShieldedUM  float64 `json:"shielded_um,omitempty"`
}

// FrontResponse is one net's whole Pareto front — POST /v1/front's
// response body. Adjacent points strictly trade delay for width.
type FrontResponse struct {
	// V is the wire-format version of this response (1).
	V int `json:"v,omitempty"`
	// Net echoes the request's net name.
	Net string `json:"net"`
	// Kind is "tree" for tree fronts and empty (line) otherwise.
	Kind string `json:"kind,omitempty"`
	// Tech is the canonical node the front was solved under.
	Tech string `json:"tech,omitempty"`
	// TMinNS is the net's minimum achievable delay in nanoseconds (zero
	// for embedded-deadline tree fronts).
	TMinNS float64 `json:"tmin_ns,omitempty"`
	// Points is the curve, fastest (most power) first.
	Points []FrontPoint `json:"points"`
	// Aggressor and Scheme echo a coupled query's crosstalk scenario in
	// normalized form; both absent for uncoupled queries.
	Aggressor string `json:"aggressor,omitempty"`
	Scheme    string `json:"scheme,omitempty"`
	// MF echoes an explicit-factor query's Miller factor; such fronts
	// leave Aggressor and Scheme absent.
	MF *float64 `json:"mf,omitempty"`
	// CacheHit reports whether the curve came from the solution cache.
	CacheHit bool `json:"cache_hit"`
	// Err is the structured error envelope for a failure (validation,
	// routing or solver); nil on success.
	Err *ErrorInfo `json:"error,omitempty"`
}

// FromFrontResult converts an engine front result to its wire form.
func FromFrontResult(fr engine.FrontResult) FrontResponse {
	out := FrontResponse{V: WireVersion, Tech: fr.Tech, CacheHit: fr.CacheHit}
	if fr.Net != nil {
		out.Net = fr.Net.Name
	}
	if fr.TreeNet != nil {
		out.Net = fr.TreeNet.Name
		out.Kind = "tree"
	}
	if fr.Err != nil {
		out.Err = errorInfo(fr.Err, out.Net, out.Tech)
		return out
	}
	out.TMinNS = fr.TMin / units.NanoSecond
	out.Aggressor = fr.Aggressor
	out.Scheme = fr.Scheme
	out.MF = fr.MF
	out.Points = make([]FrontPoint, len(fr.Points))
	for i, p := range fr.Points {
		out.Points[i] = FrontPoint{
			DelayNS:     p.Delay / units.NanoSecond,
			SlackNS:     p.Slack / units.NanoSecond,
			TotalWidthU: p.TotalWidth,
			Repeaters:   p.Repeaters,
			StaggeredUM: units.ToMicrons(p.StaggerLen),
			ShieldedUM:  units.ToMicrons(p.ShieldLen),
		}
	}
	return out
}

// CodedFrontErrorResponse builds a front response carrying only a
// failure under an explicit envelope code.
func CodedFrontErrorResponse(code, netName, techName, msg string) FrontResponse {
	return FrontResponse{
		V:   WireVersion,
		Net: netName,
		Err: &ErrorInfo{Code: code, Message: msg, Net: netName, Tech: techName},
	}
}
