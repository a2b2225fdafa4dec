package jsonscan

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// numberSeeds are tokens at the edges of Float's exact path: mantissas
// around 2^53 and 19 digits, powers of ten around 10^±22, signed zeros,
// exponents, and tokens JSON's grammar or range rejects.
var numberSeeds = []string{
	"0", "-0", "0.0", "-0.0", "1", "-1", "0.1", "0.12", "1.5", "240", "1e0",
	"83.44606908784182", "51.137872946580984", "1927.7690632457757",
	"9007199254740992", "9007199254740993", "-9007199254740993", "900719925474099.3",
	"1234567890123456789", "12345678901234567890", "0.0000000000000000001",
	"1e22", "1e23", "1e-22", "1e-23", "4.5e15", "123e-20", "1.5E+3", "1e-07", "2E-2",
	"1e400", "-1e400", "1e-400", "1e-4000000000000000000000",
	"01", "+1", ".5", "5.", "1e", "1e+", "-", "--1", "0x10", "1_0", "Inf", "NaN", " 7 ", "7x",
}

// FuzzNumber: Float and Int read a number exactly as encoding/json reads
// one into a float64 or an int. When either accepts a body, encoding/json
// accepts it too, with the same bits; when encoding/json decodes a number
// token, both scanners accept it unless it is out of their type's range.
func FuzzNumber(f *testing.F) {
	for _, s := range numberSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var jf float64
		jfErr := json.Unmarshal(raw, &jf)
		s := New(raw)
		got, ok := s.Float()
		ok = ok && s.End()
		if ok && (jfErr != nil || math.Float64bits(got) != math.Float64bits(jf)) {
			t.Fatalf("Float(%q) = %v (bits %#x); encoding/json: %v (bits %#x), %v",
				raw, got, math.Float64bits(got), jf, math.Float64bits(jf), jfErr)
		}
		if token := isNumberToken(raw); token && jfErr == nil && !ok {
			t.Fatalf("Float declined %q, which encoding/json reads as %v", raw, jf)
		}

		var ji int
		jiErr := json.Unmarshal(raw, &ji)
		s = New(raw)
		n, ok := s.Int()
		ok = ok && s.End()
		if ok && (jiErr != nil || n != ji) {
			t.Fatalf("Int(%q) = %d; encoding/json: %d, %v", raw, n, ji, jiErr)
		}
		if isNumberToken(raw) && jiErr == nil && !ok {
			t.Fatalf("Int declined %q, which encoding/json reads as %d", raw, ji)
		}
	})
}

// isNumberToken reports whether raw, trimmed of whitespace, starts like
// a JSON number, so that encoding/json's acceptance is a number's.
func isNumberToken(raw []byte) bool {
	raw = bytes.TrimLeft(raw, " \t\r\n")
	return len(raw) > 0 && (raw[0] == '-' || '0' <= raw[0] && raw[0] <= '9')
}

// TestScannerDeclines: the values outside the canonical subset decline,
// and the accepted ones read as encoding/json reads them.
func TestScannerDeclines(t *testing.T) {
	type obj struct {
		A string  `json:"a"`
		B float64 `json:"b"`
		C bool    `json:"c"`
		D []int   `json:"d"`
	}
	read := func(raw string) (obj, bool) {
		var o obj
		s := New([]byte(raw))
		ok := s.Object(func(s *Scanner, key []byte) bool {
			var ok bool
			switch string(key) {
			case "a":
				o.A, ok = s.Str()
			case "b":
				o.B, ok = s.Float()
			case "c":
				o.C, ok = s.Bool()
			case "d":
				o.D = []int{}
				ok = s.Array(func(s *Scanner) bool {
					n, ok := s.Int()
					o.D = append(o.D, n)
					return ok
				})
			}
			return ok
		})
		return o, ok && s.End()
	}
	for _, raw := range []string{
		`{}`, `{"a":"x ~!","b":-2.5e-3,"c":true,"d":[1,-2,0]}`, ` { "a" : "" , "d" : [ ] , "c" : false } `,
		"{\"b\":1,\n\t\"c\":false}\r\n",
	} {
		got, ok := read(raw)
		var want obj
		if err := json.Unmarshal([]byte(raw), &want); err != nil || !ok {
			t.Errorf("%s: scanner ok=%v, encoding/json err=%v", raw, ok, err)
			continue
		}
		if got.A != want.A || got.B != want.B || got.C != want.C || len(got.D) != len(want.D) {
			t.Errorf("%s: scanner %+v, encoding/json %+v", raw, got, want)
		}
	}
	for _, raw := range []string{
		`{"a":"x\"y"}`, `{"a":"\u0041"}`, `{"a":"é"}`, "{\"a\":\"\t\"}", "{\"a\":\"x\x7f\"}", `{"A":"x"}`,
		`{"ab":1}`, `{"a":"x","a":"y"}`, `{"z":1}`, `{"a":null}`, `{"b":null}`, `{"d":null}`,
		`{"d":[null]}`, `{"c":1}`, `{"c":tru}`, `{"c":truex}`, `{"b":"1"}`, `{"d":[1.5]}`, `{"d":[1e2]}`,
		`{"b":1}x`, `{"b":1}{}`, `{"b":1`, `{"b":1,}`, `{,}`, `{"d":[1,]}`, `{"d":[,1]}`, `null`, `[]`, ``,
		`{"b":1 2}`, `{"a" "x"}`,
	} {
		if got, ok := read(raw); ok {
			t.Errorf("%s: scanner read %+v, want it declined", raw, got)
		}
	}
}
