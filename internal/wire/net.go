package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

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
