package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"github.com/rip-eda/rip/internal/jsonscan"
	"github.com/rip-eda/rip/internal/units"
)

// Net is one instance of the paper's Problem LPRI input: a routed two-pin
// line plus the widths of its fixed driver and receiver (in multiples of the
// minimal repeater width u).
type Net struct {
	// Name identifies the net in reports.
	Name string
	// Line is the routed interconnect.
	Line *Line
	// DriverWidth is w_d, the driver size in units of u.
	DriverWidth float64
	// ReceiverWidth is w_r, the receiver size in units of u.
	ReceiverWidth float64
}

// Validate checks the net for structural sanity.
func (n *Net) Validate() error {
	if n == nil {
		return errors.New("wire: nil net")
	}
	if n.Line == nil {
		return fmt.Errorf("wire: net %q has no line", n.Name)
	}
	if !(n.DriverWidth > 0) {
		return fmt.Errorf("wire: net %q needs a positive driver width, got %g", n.Name, n.DriverWidth)
	}
	if !(n.ReceiverWidth > 0) {
		return fmt.Errorf("wire: net %q needs a positive receiver width, got %g", n.Name, n.ReceiverWidth)
	}
	return nil
}

// NetJSON is the on-disk form of a Net. For human editability it uses the
// paper's unit conventions rather than SI: lengths and positions in µm,
// resistance density in Ω/µm, capacitance density in fF/µm. It is a plain
// struct, so a decoder that holds a net inside a larger document (the api
// package's request wrapper) fills it in the same pass as the rest and
// then calls Net, the one conversion to a validated Net.
type NetJSON struct {
	Name          string     `json:"name"`
	DriverWidth   float64    `json:"driver_width_u"`
	ReceiverWidth float64    `json:"receiver_width_u"`
	Segments      []segJSON  `json:"segments"`
	Zones         []zoneJSON `json:"forbidden_zones,omitempty"`
}

type segJSON struct {
	LengthUM  float64 `json:"length_um"`
	ROhmPerUM float64 `json:"r_ohm_per_um"`
	CFFPerUM  float64 `json:"c_ff_per_um"`
	CcFFPerUM float64 `json:"cc_ff_per_um,omitempty"`
	Layer     string  `json:"layer,omitempty"`
}

type zoneJSON struct {
	StartUM float64 `json:"start_um"`
	EndUM   float64 `json:"end_um"`
}

// ScanField fills the member of a net object named key from s, for a
// decoder that reads this form in one pass without reflection (see
// package jsonscan). It reports false, declining the body to
// encoding/json, on a key this form does not have or a value outside
// the scanner's subset.
func (j *NetJSON) ScanField(s *jsonscan.Scanner, key []byte) bool {
	var ok bool
	switch string(key) {
	case "name":
		j.Name, ok = s.Str()
	case "driver_width_u":
		j.DriverWidth, ok = s.Float()
	case "receiver_width_u":
		j.ReceiverWidth, ok = s.Float()
	case "segments":
		// Elements fill a stack buffer and are copied out once, sized.
		var buf [16]segJSON
		segs := buf[:0]
		ok = s.Array(func(s *jsonscan.Scanner) bool {
			segs = append(segs, segJSON{})
			return s.Object(segs[len(segs)-1].scanField)
		})
		j.Segments = append(make([]segJSON, 0, len(segs)), segs...)
	case "forbidden_zones":
		var buf [8]zoneJSON
		zones := buf[:0]
		ok = s.Array(func(s *jsonscan.Scanner) bool {
			zones = append(zones, zoneJSON{})
			return s.Object(zones[len(zones)-1].scanField)
		})
		j.Zones = append(make([]zoneJSON, 0, len(zones)), zones...)
	}
	return ok
}

// namedOpen opens a net object as json.Marshal writes it: the name's
// key, then the opening quote of its value.
const namedOpen = `{"name":"`

// ScanRenamed reads a net object whose bytes are prevRaw, the bytes of
// the object prev was read from, but for the string value of its
// leading "name" member: the form json.Marshal writes for the renamed
// copies of one routed net that make up a bus. j becomes prev under its
// own name, sharing prev's segments and zones. On any other object it
// reports false and leaves s where it was.
func (j *NetJSON) ScanRenamed(s *jsonscan.Scanner, prev *NetJSON, prevRaw []byte) bool {
	// prev.Name was read without escapes, so its bytes follow namedOpen.
	rest := len(namedOpen) + len(prev.Name) + 1
	if len(prevRaw) < rest || string(prevRaw[:len(namedOpen)]) != namedOpen {
		return false
	}
	mark := s.Mark()
	if s.Repeat(prevRaw[:len(namedOpen)-1]) {
		if name, ok := s.Str(); ok && s.Repeat(prevRaw[rest:]) {
			*j = *prev
			j.Name = name
			return true
		}
	}
	s.Seek(mark)
	return false
}

func (g *segJSON) scanField(s *jsonscan.Scanner, key []byte) bool {
	var ok bool
	switch string(key) {
	case "length_um":
		g.LengthUM, ok = s.Float()
	case "r_ohm_per_um":
		g.ROhmPerUM, ok = s.Float()
	case "c_ff_per_um":
		g.CFFPerUM, ok = s.Float()
	case "cc_ff_per_um":
		g.CcFFPerUM, ok = s.Float()
	case "layer":
		g.Layer, ok = s.Str()
	}
	return ok
}

func (z *zoneJSON) scanField(s *jsonscan.Scanner, key []byte) bool {
	var ok bool
	switch string(key) {
	case "start_um":
		z.StartUM, ok = s.Float()
	case "end_um":
		z.EndUM, ok = s.Float()
	}
	return ok
}

// MarshalJSON implements json.Marshaler using µm / Ω·µm⁻¹ / fF·µm⁻¹ units.
func (n *Net) MarshalJSON() ([]byte, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	j := NetJSON{
		Name:          n.Name,
		DriverWidth:   n.DriverWidth,
		ReceiverWidth: n.ReceiverWidth,
	}
	for _, s := range n.Line.Segments() {
		j.Segments = append(j.Segments, segJSON{
			LengthUM:  units.ToMicrons(s.Length),
			ROhmPerUM: s.ROhmPerM * units.Micron,
			CFFPerUM:  s.CFPerM * units.Micron / units.FemtoFarad,
			CcFFPerUM: s.CcFPerM * units.Micron / units.FemtoFarad,
			Layer:     s.Layer,
		})
	}
	for _, z := range n.Line.Zones() {
		j.Zones = append(j.Zones, zoneJSON{StartUM: units.ToMicrons(z.Start), EndUM: units.ToMicrons(z.End)})
	}
	return json.Marshal(j)
}

// UnmarshalJSON implements json.Unmarshaler; see MarshalJSON for units.
func (n *Net) UnmarshalJSON(data []byte) error {
	var j NetJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return fmt.Errorf("wire: decoding net: %w", err)
	}
	net, err := j.Net()
	if err != nil {
		return err
	}
	*n = *net
	return nil
}

// Net converts the on-disk form to SI units and builds the validated Net:
// the line through New, then Validate.
func (j *NetJSON) Net() (*Net, error) {
	segs := make([]Segment, len(j.Segments))
	for i, s := range j.Segments {
		segs[i] = Segment{
			Length:   units.Microns(s.LengthUM),
			ROhmPerM: units.OhmPerMicron(s.ROhmPerUM),
			CFPerM:   units.FFPerMicron(s.CFFPerUM),
			CcFPerM:  units.FFPerMicron(s.CcFFPerUM),
			Layer:    s.Layer,
		}
	}
	zones := make([]Zone, len(j.Zones))
	for i, z := range j.Zones {
		zones[i] = Zone{Start: units.Microns(z.StartUM), End: units.Microns(z.EndUM)}
	}
	line, err := New(segs, zones)
	if err != nil {
		return nil, fmt.Errorf("wire: net %q: %w", j.Name, err)
	}
	n := &Net{Name: j.Name, Line: line, DriverWidth: j.DriverWidth, ReceiverWidth: j.ReceiverWidth}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}

// WriteNets serializes a slice of nets as an indented JSON array.
func WriteNets(w io.Writer, nets []*Net) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(nets)
}

// ReadNets parses a JSON array of nets.
func ReadNets(r io.Reader) ([]*Net, error) {
	var nets []*Net
	if err := json.NewDecoder(r).Decode(&nets); err != nil {
		return nil, fmt.Errorf("wire: decoding nets: %w", err)
	}
	for _, n := range nets {
		if err := n.Validate(); err != nil {
			return nil, err
		}
	}
	return nets, nil
}
