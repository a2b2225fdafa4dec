package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/rip-eda/rip/internal/jsonscan"
	"github.com/rip-eda/rip/internal/units"
)

func testNet(t *testing.T) *Net {
	t.Helper()
	return &Net{
		Name:          "n1",
		Line:          testLine(t),
		DriverWidth:   100,
		ReceiverWidth: 50,
	}
}

func TestNetValidate(t *testing.T) {
	n := testNet(t)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	var nilNet *Net
	if err := nilNet.Validate(); err == nil {
		t.Error("nil net should not validate")
	}
	bad := *n
	bad.Line = nil
	if err := bad.Validate(); err == nil {
		t.Error("net without line should not validate")
	}
	bad = *n
	bad.DriverWidth = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero driver width should not validate")
	}
	bad = *n
	bad.ReceiverWidth = -2
	if err := bad.Validate(); err == nil {
		t.Error("negative receiver width should not validate")
	}
}

func TestNetJSONRoundTrip(t *testing.T) {
	orig := testNet(t)
	var buf bytes.Buffer
	if err := WriteNets(&buf, []*Net{orig}); err != nil {
		t.Fatal(err)
	}
	// The on-disk form uses µm units.
	if !strings.Contains(buf.String(), "length_um") {
		t.Errorf("serialized net should use µm units: %s", buf.String())
	}
	nets, err := ReadNets(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(nets) != 1 {
		t.Fatalf("got %d nets, want 1", len(nets))
	}
	back := nets[0]
	if back.Name != orig.Name || back.DriverWidth != orig.DriverWidth {
		t.Errorf("metadata mismatch: %+v", back)
	}
	if math.Abs(back.Line.Length()-orig.Line.Length()) > 1e-12 {
		t.Errorf("length mismatch: %g vs %g", back.Line.Length(), orig.Line.Length())
	}
	if math.Abs(back.Line.TotalR()-orig.Line.TotalR())/orig.Line.TotalR() > 1e-9 {
		t.Errorf("resistance mismatch")
	}
	if math.Abs(back.Line.TotalC()-orig.Line.TotalC())/orig.Line.TotalC() > 1e-9 {
		t.Errorf("capacitance mismatch")
	}
	zb, zo := back.Line.Zones(), orig.Line.Zones()
	if len(zb) != len(zo) {
		t.Fatalf("zone count mismatch")
	}
	if math.Abs(zb[0].Start-zo[0].Start) > units.Micron/1e3 {
		t.Errorf("zone start mismatch: %g vs %g", zb[0].Start, zo[0].Start)
	}
}

func TestReadNetsRejectsBadInput(t *testing.T) {
	if _, err := ReadNets(strings.NewReader("[{")); err == nil {
		t.Error("expected decode error")
	}
	// Structurally valid JSON, invalid net (no segments).
	bad := `[{"name":"x","driver_width_u":10,"receiver_width_u":10,"segments":[]}]`
	if _, err := ReadNets(strings.NewReader(bad)); err == nil {
		t.Error("expected validation error for empty segments")
	}
	// Negative density.
	bad = `[{"name":"x","driver_width_u":10,"receiver_width_u":10,
	         "segments":[{"length_um":1000,"r_ohm_per_um":-0.1,"c_ff_per_um":0.2}]}]`
	if _, err := ReadNets(strings.NewReader(bad)); err == nil {
		t.Error("expected validation error for negative density")
	}
}

func TestMarshalInvalidNetFails(t *testing.T) {
	n := testNet(t)
	n.DriverWidth = 0
	if _, err := n.MarshalJSON(); err == nil {
		t.Error("marshaling an invalid net should fail")
	}
}

// TestScanRenamed: a net object that repeats an earlier one's bytes but
// for its name reads as that net under its own name; any other object
// leaves the scanner where it was.
func TestScanRenamed(t *testing.T) {
	first, err := json.Marshal(testNet(t))
	if err != nil {
		t.Fatal(err)
	}
	var prev NetJSON
	if s := jsonscan.New(first); !s.Object(prev.ScanField) || !s.End() {
		t.Fatalf("the scanner declined %s", first)
	}
	_, rest, _ := strings.Cut(string(first), `","`)
	rest = `,"` + rest
	for _, tc := range []struct {
		body string
		want bool
	}{
		{`{"name":"copy"` + rest, true},
		{`{"name": "copy"` + rest, true},
		{`{"name":"copy"` + strings.Replace(rest, "metal5", "metal6", 1), false},
		{`{"name":"c\u006fpy"` + rest, false},
		{`{"name":"copy","name":"x"` + rest, false},
		{`{"driver_width_u":100,"name":"copy"` + rest[len(`,"driver_width_u":100`):], false},
	} {
		var j NetJSON
		s := jsonscan.New([]byte(tc.body))
		if got := j.ScanRenamed(s, &prev, first); got != tc.want {
			t.Errorf("%s: ScanRenamed = %v, want %v", tc.body, got, tc.want)
			continue
		}
		if !tc.want {
			if s.Mark() != 0 {
				t.Errorf("%s: a declined copy moved the scanner to %d", tc.body, s.Mark())
			}
			continue
		}
		var want NetJSON
		if err := json.Unmarshal([]byte(tc.body), &want); err != nil || !s.End() || !reflect.DeepEqual(j, want) {
			t.Errorf("%s: read %+v, encoding/json %+v (%v)", tc.body, j, want, err)
		}
	}
	// An earlier object that does not open with its name is no template.
	spaced := strings.Replace(string(first), `"name":"`, `"name": "`, 1)
	var j NetJSON
	if j.ScanRenamed(jsonscan.New([]byte(`{"name":"copy"`+rest)), &prev, []byte(spaced)) {
		t.Error("ScanRenamed used a template whose name is not at its start")
	}
}
