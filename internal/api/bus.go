package api

import (
	"encoding/json"
	"errors"
	"fmt"

	"github.com/rip-eda/rip/internal/engine"
	"github.com/rip-eda/rip/internal/jsonscan"
	"github.com/rip-eda/rip/internal/units"
	"github.com/rip-eda/rip/internal/wire"
)

// This file is the wire form of joint bus co-optimization — POST
// /v1/bus and ripcli -bus speak these types. A bus request carries a
// group of parallel tracks in adjacency order and one budget; the
// response attributes the co-decided per-track schemes and the group's
// savings against the independent worst-case solves.

// BusRequest is one joint bus-optimization request.
type BusRequest struct {
	// V is the wire-format version the request speaks (see Request.V).
	V int `json:"v,omitempty"`
	// Tracks are the member line nets in physical adjacency order (track
	// i couples to tracks i-1 and i+1), in the schema of internal/wire.
	// At least two are required.
	Tracks []*wire.Net `json:"tracks"`
	// Tech names the process node (registry name or alias; empty means
	// the transport's default node).
	Tech string `json:"tech,omitempty"`
	// TargetMult / TargetNS give every track's budget, exactly one
	// positive: TargetMult relative to each track's own pessimistic τmin,
	// TargetNS one absolute budget in nanoseconds shared by all tracks.
	// Absent both, the transport's default budget applies.
	TargetMult float64 `json:"target_mult,omitempty"`
	TargetNS   float64 `json:"target_ns,omitempty"`
	// Method selects the co-decision algorithm: "" (joint chain DP for
	// groups of at most 4 tracks, iterated best-response otherwise),
	// "exact" or "iterate".
	Method string `json:"method,omitempty"`
}

// busRequest is the form ParseBusRequest decodes into: a BusRequest whose
// tracks are the plain on-disk form, so the body is read in one pass and
// the nets are built afterwards. Its "tracks" field shadows BusRequest's.
type busRequest struct {
	BusRequest
	Tracks []*wire.NetJSON `json:"tracks"`
	// renamed marks the tracks the scanner read as renamed copies of the
	// first (wire.NetJSON.ScanRenamed), which share its built line.
	renamed []bool
}

// ParseBusRequest decodes one bus request body in one pass: the tracks
// decode as wire.NetJSON and are then built by its Net method. A body in
// the canonical form json.Marshal writes is read by package jsonscan
// without reflection, any other by encoding/json. A null track stays
// nil, for Validate to report. Errors start "decoding bus request:".
func ParseBusRequest(raw []byte) (BusRequest, error) {
	return parseBusRequest(raw, true)
}

// parseBusRequest is ParseBusRequest; with fast false it skips the
// scanner and decodes with encoding/json alone, the path the scanner's
// answers are held to.
func parseBusRequest(raw []byte, fast bool) (BusRequest, error) {
	var w busRequest
	var err error
	if !fast || !w.scan(raw) {
		w = busRequest{}
		err = json.Unmarshal(raw, &w)
	}
	r := w.BusRequest
	if err == nil && w.Tracks != nil {
		r.Tracks = make([]*wire.Net, len(w.Tracks))
		for i, t := range w.Tracks {
			if t == nil {
				continue
			}
			if w.renamed != nil && w.renamed[i] {
				n := *r.Tracks[0] // a Line is immutable, so copies may share one
				n.Name = t.Name
				r.Tracks[i] = &n
				continue
			}
			if r.Tracks[i], err = t.Net(); err != nil {
				break
			}
		}
	}
	if err != nil {
		return BusRequest{}, fmt.Errorf("decoding bus request: %v", err)
	}
	return r, nil
}

// scan is the fast path: one pass over raw by package jsonscan. It
// reports false, its fills to be discarded, on any body outside the
// scanner's subset and on a key the form does not have.
func (w *busRequest) scan(raw []byte) bool {
	s := jsonscan.New(raw)
	return s.Object(func(s *jsonscan.Scanner, key []byte) bool {
		var ok bool
		switch string(key) {
		case "v":
			w.V, ok = s.Int()
		case "tracks":
			var buf [8]*wire.NetJSON
			tracks := buf[:0]
			var first []byte // the first track's object
			ok = s.Array(func(s *jsonscan.Scanner) bool {
				t := new(wire.NetJSON)
				tracks = append(tracks, t)
				// A bus's tracks are usually renamed copies of one net.
				renamed := len(tracks) > 1 && t.ScanRenamed(s, tracks[0], first)
				w.renamed = append(w.renamed, renamed)
				if renamed {
					return true
				}
				mark := s.Mark()
				ok := s.Object(t.ScanField)
				if len(tracks) == 1 {
					first = s.Since(mark)
				}
				return ok
			})
			w.Tracks = append(make([]*wire.NetJSON, 0, len(tracks)), tracks...)
		case "tech":
			w.Tech, ok = s.Str()
		case "target_mult":
			w.TargetMult, ok = s.Float()
		case "target_ns":
			w.TargetNS, ok = s.Float()
		case "method":
			w.Method, ok = s.Str()
		}
		return ok
	}) && s.End()
}

// Validate checks the request shape without solving anything. Every
// failure carries an envelope code.
func (r *BusRequest) Validate() error { return asBadRequest(r.validate()) }

func (r *BusRequest) validate() error {
	if r.V != 0 && r.V != WireVersion {
		return Codef(CodeUnsupportedVersion,
			"api: unsupported wire version %d (this server speaks v%d)", r.V, WireVersion)
	}
	if len(r.Tracks) < 2 {
		return fmt.Errorf("api: bus: at least 2 tracks are required, got %d", len(r.Tracks))
	}
	switch {
	case r.TargetMult > 0 && r.TargetNS > 0:
		return errors.New("api: bus: give target_mult or target_ns, not both")
	case r.TargetMult <= 0 && r.TargetNS <= 0:
		return errors.New("api: bus: a positive target_mult or target_ns is required")
	}
	switch r.Method {
	case "", "exact", "iterate":
	default:
		return fmt.Errorf(`api: bus: unknown method %q (want "exact", "iterate" or "")`, r.Method)
	}
	for i, t := range r.Tracks {
		if t == nil {
			return fmt.Errorf("api: bus: track %d is null", i)
		}
		if err := t.Validate(); err != nil {
			return fmt.Errorf("api: bus track %d: %w", i, err)
		}
	}
	return nil
}

// ApplyDefault fills in the transport-level default budget when the
// request carries none of its own.
func (r *BusRequest) ApplyDefault(targetMult, targetNS float64) {
	if r.TargetMult > 0 || r.TargetNS > 0 {
		return
	}
	r.TargetMult = targetMult
	r.TargetNS = targetNS
}

// Job converts the request to an engine bus job (ns → seconds).
func (r *BusRequest) Job() engine.BusJob {
	return engine.BusJob{
		Tracks:     r.Tracks,
		Tech:       r.Tech,
		TargetMult: r.TargetMult,
		Target:     r.TargetNS * units.NanoSecond,
		Method:     r.Method,
	}
}

// BusTrackResponse is one track's share of a bus response.
type BusTrackResponse struct {
	// Net echoes the track's net name.
	Net string `json:"net"`
	// Scheme is the co-decided whole-track countermeasure ("plain",
	// "staggered" or "shielded"); MF the effective Miller factor the
	// track was finally priced under (0 for shielded tracks).
	Scheme string  `json:"scheme"`
	MF     float64 `json:"mf"`
	// TargetNS is the track's resolved absolute budget and TMinNS its
	// pessimistic minimum achievable delay, in nanoseconds.
	TargetNS float64 `json:"target_ns"`
	TMinNS   float64 `json:"tmin_ns"`
	// BaselineFeasible / BaselineWidthU describe the independent
	// pessimistic answer (MillerMax, no countermeasures): whether it met
	// the budget and its total repeater width in units of u.
	BaselineFeasible bool    `json:"baseline_feasible"`
	BaselineWidthU   float64 `json:"baseline_width_u,omitempty"`
	// Feasible / WidthU / DelayNS describe the coordinated answer; WidthU
	// includes the shield area for shielded tracks.
	Feasible bool    `json:"feasible"`
	WidthU   float64 `json:"width_u,omitempty"`
	DelayNS  float64 `json:"delay_ns,omitempty"`
	// PositionsUM and WidthsU are the coordinated answer's repeater
	// placement.
	PositionsUM []float64 `json:"positions_um,omitempty"`
	WidthsU     []float64 `json:"widths_u,omitempty"`
	// AreaSavedUM / PowerSavedUW are the track's coordination savings:
	// repeater+shield area in width units of u, repeater switching power
	// in microwatts (0 when either answer is infeasible).
	AreaSavedUM  float64 `json:"area_saved_um"`
	PowerSavedUW float64 `json:"power_saved_uw"`
	// CacheHit reports whether the coordinated answer came from the
	// engine's solution cache.
	CacheHit bool `json:"cache_hit"`
}

// BusResponse is one bus job's outcome — POST /v1/bus's response body.
type BusResponse struct {
	// V is the wire-format version of this response (1).
	V int `json:"v,omitempty"`
	// Tech is the canonical name of the node the group was solved under.
	Tech string `json:"tech,omitempty"`
	// Method is the algorithm that produced the assignment ("exact" or
	// "iterate"); Iterations the best-response sweep count (0 for exact)
	// and Converged whether it reached a fixed point (always true for
	// exact).
	Method     string `json:"method,omitempty"`
	Iterations int    `json:"iterations,omitempty"`
	Converged  bool   `json:"converged"`
	// Tracks carries the per-track attribution, in input order. The
	// per-track savings sum exactly to the group fields below.
	Tracks []BusTrackResponse `json:"tracks,omitempty"`
	// GroupBaselineWidthU / GroupWidthU sum the width objectives of the
	// independent pessimistic and coordinated assignments over feasible
	// tracks; BaselineInfeasible / Infeasible count tracks each
	// assignment cannot close.
	GroupBaselineWidthU float64 `json:"group_baseline_width_u"`
	GroupWidthU         float64 `json:"group_width_u"`
	BaselineInfeasible  int     `json:"baseline_infeasible,omitempty"`
	Infeasible          int     `json:"infeasible,omitempty"`
	// GroupAreaSaved / GroupPowerSaved total what coordination saved the
	// group versus independent worst-case solves: repeater+shield area in
	// width units of u, repeater switching power in microwatts.
	GroupAreaSaved  float64 `json:"group_area_saved_um"`
	GroupPowerSaved float64 `json:"group_power_saved_uw"`
	// Err is the structured error envelope for a failure; nil on
	// success. Its Code is the stable field to branch on.
	Err *ErrorInfo `json:"error,omitempty"`
}

// FromBusResult converts an engine bus result to its wire form.
func FromBusResult(br engine.BusResult) BusResponse {
	out := BusResponse{V: WireVersion, Tech: br.Tech}
	if br.Err != nil {
		out.Err = errorInfo(br.Err, "", out.Tech)
		return out
	}
	out.Method = br.Method
	out.Iterations = br.Iterations
	out.Converged = br.Converged
	out.GroupBaselineWidthU = br.GroupBaselineCost
	out.GroupWidthU = br.GroupCost
	out.BaselineInfeasible = br.BaselineInfeasible
	out.Infeasible = br.Infeasible
	out.GroupAreaSaved = br.GroupAreaSaved
	out.GroupPowerSaved = br.GroupPowerSavedW / units.MicroWatt
	out.Tracks = make([]BusTrackResponse, len(br.Tracks))
	for i, bt := range br.Tracks {
		t := BusTrackResponse{
			Scheme:           bt.Scheme,
			MF:               bt.MF,
			TargetNS:         bt.Target / units.NanoSecond,
			TMinNS:           bt.TMin / units.NanoSecond,
			BaselineFeasible: bt.Baseline.Solution.Feasible,
			Feasible:         bt.Res.Solution.Feasible,
			AreaSavedUM:      bt.AreaSaved,
			PowerSavedUW:     bt.PowerSavedW / units.MicroWatt,
			CacheHit:         bt.CacheHit,
		}
		if bt.Net != nil {
			t.Net = bt.Net.Name
		}
		if t.BaselineFeasible {
			t.BaselineWidthU = bt.BaselineCost
		}
		if t.Feasible {
			t.WidthU = bt.Cost
			t.DelayNS = bt.Res.Solution.Delay / units.NanoSecond
			for _, x := range bt.Res.Solution.Assignment.Positions {
				t.PositionsUM = append(t.PositionsUM, units.ToMicrons(x))
			}
			t.WidthsU = append(t.WidthsU, bt.Res.Solution.Assignment.Widths...)
		}
		out.Tracks[i] = t
	}
	return out
}

// CodedBusErrorResponse builds a bus response carrying only a failure
// under an explicit envelope code.
func CodedBusErrorResponse(code, techName, msg string) BusResponse {
	return BusResponse{
		V:   WireVersion,
		Err: &ErrorInfo{Code: code, Message: msg, Tech: techName},
	}
}
