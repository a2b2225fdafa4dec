// Package jsonscan reads the canonical JSON that json.Marshal writes for
// plain structs, in one pass and without reflection, so a decoder can
// fill a wire type's fields directly. It is a fast path, not a decoder:
// a method reports false on anything outside that subset — a string with
// an escape or a byte outside printable ASCII, a null, a repeated object
// key, a number that breaks JSON's grammar or does not parse — and the
// caller then decodes the same bytes with encoding/json, which stays the
// authority on every rule and every error text. Whitespace between
// tokens is allowed, as JSON allows it.
package jsonscan

import (
	"bytes"
	"strconv"
)

// Scanner reads one JSON document from a byte slice.
type Scanner struct {
	data []byte
	pos  int
	// keys holds the keys of the objects being read, outermost first.
	// An object's reading ends at its first repeated or unknown key, so
	// the nesting of the types read bounds it; buf holds the deepest of
	// them, a wrapper's keys over a net's over a segment's.
	keys [][]byte
	buf  [20][]byte
}

// New returns a scanner at the start of data.
func New(data []byte) *Scanner {
	s := &Scanner{data: data}
	s.keys = s.buf[:0]
	return s
}

// Object reads an object. For each member it reads the key and calls
// member with the scanner at the member's value; member reads the value
// and reports whether it accepts the key and the value. Object reports
// false on a key it has already seen, on a member declined, and on
// anything that is not an object.
func (s *Scanner) Object(member func(s *Scanner, key []byte) bool) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	outer := len(s.keys)
	for {
		// A key is not checked for escapes or bytes outside printable
		// ASCII: no field is named with them, so member declines it.
		key, ok := s.quoted()
		if !ok || !s.eat(':') {
			return false
		}
		for _, k := range s.keys[outer:] {
			if bytes.Equal(k, key) {
				return false
			}
		}
		s.keys = append(s.keys, key)
		if !member(s, key) {
			return false
		}
		if s.eat('}') {
			s.keys = s.keys[:outer]
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// Array reads an array, calling elem once per element with the scanner
// at the element; elem reads it and reports whether it accepts it.
func (s *Scanner) Array(elem func(s *Scanner) bool) bool {
	if !s.eat('[') {
		return false
	}
	if s.eat(']') {
		return true
	}
	for {
		if !elem(s) {
			return false
		}
		if s.eat(']') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// Str reads a string of printable ASCII without escapes.
func (s *Scanner) Str() (string, bool) {
	b, ok := s.quoted()
	if !ok {
		return "", false
	}
	for _, c := range b {
		if c < ' ' || c > '~' || c == '\\' {
			return "", false
		}
	}
	return string(b), true
}

// Float reads a number as encoding/json reads one into a float64, with
// the bits strconv.ParseFloat returns; a number out of range declines.
func (s *Scanner) Float() (float64, bool) {
	tok, m, e, short, ok := s.number()
	switch {
	case !ok:
		return 0, false
	case short && m <= 1<<53 && -len(pow10) < e && e < len(pow10):
		// m and 10^|e| are float64s exactly, and IEEE 754 rounds one
		// multiplication or division of exact operands correctly, so this
		// is strconv.ParseFloat's value (Clinger's fast path, which it
		// takes first itself) without a second pass over the digits.
		f := float64(m)
		if e < 0 {
			f /= pow10[-e]
		} else {
			f *= pow10[e]
		}
		if tok[0] == '-' {
			f = -f
		}
		return f, true
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// Int reads a number as encoding/json reads one into an int: a
// fraction, an exponent or a value out of range declines.
func (s *Scanner) Int() (int, bool) {
	tok, _, _, _, ok := s.number()
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(string(tok))
	return n, err == nil
}

// Bool reads true or false.
func (s *Scanner) Bool() (v, ok bool) {
	s.skip()
	rest := s.data[s.pos:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		s.pos += len("true")
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		s.pos += len("false")
		return false, true
	}
	return false, false
}

// Mark returns the scanner's offset after any whitespace, for Since and
// Seek.
func (s *Scanner) Mark() int {
	s.skip()
	return s.pos
}

// Since returns the input from mark, an offset Mark returned, to the
// scanner's offset.
func (s *Scanner) Since(mark int) []byte { return s.data[mark:s.pos] }

// Seek moves the scanner back to mark, an offset Mark returned.
func (s *Scanner) Seek(mark int) { s.pos = mark }

// Repeat moves past b when the input continues with exactly b, and
// reports whether it did.
func (s *Scanner) Repeat(b []byte) bool {
	if !bytes.HasPrefix(s.data[s.pos:], b) {
		return false
	}
	s.pos += len(b)
	return true
}

// End reports whether nothing but whitespace is left.
func (s *Scanner) End() bool {
	s.skip()
	return s.pos == len(s.data)
}

// skip moves past JSON whitespace.
func (s *Scanner) skip() {
	for s.pos < len(s.data) {
		if c := s.data[s.pos]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
		s.pos++
	}
}

// eat moves past whitespace and then c, reporting whether c was there.
func (s *Scanner) eat(c byte) bool {
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	s.skip()
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// quoted reads a string token up to the first quote that ends it and
// returns its bytes, which alias the input and may hold escapes.
func (s *Scanner) quoted() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	for i := s.pos; i < len(s.data); i++ {
		if s.data[i] == '"' {
			b := s.data[s.pos:i]
			s.pos = i + 1
			return b, true
		}
	}
	return nil, false
}

// number reads a number token that follows JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns it. In the
// same pass it sums the digits before any exponent into m and sets e so
// that the token's magnitude is m·10^e; that holds while short, which
// reports at most 19 such digits, so m cannot have wrapped.
func (s *Scanner) number() (tok []byte, m uint64, e int, short, ok bool) {
	s.skip()
	d, i := s.data, s.pos
	if i < len(d) && d[i] == '-' {
		i++
	}
	n := 0 // digits summed into m
	switch {
	case i < len(d) && d[i] == '0':
		i, n = i+1, 1
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		for ; i < len(d) && '0' <= d[i] && d[i] <= '9'; i++ {
			m = m*10 + uint64(d[i]-'0')
			n++
		}
	default:
		return nil, 0, 0, false, false
	}
	if i < len(d) && d[i] == '.' {
		j := i + 1
		for i = j; i < len(d) && '0' <= d[i] && d[i] <= '9'; i++ {
			m = m*10 + uint64(d[i]-'0')
		}
		if i == j {
			return nil, 0, 0, false, false
		}
		n += i - j
		e = j - i
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		sign := 1
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			if d[i] == '-' {
				sign = -1
			}
			i++
		}
		j, x := i, 0
		for ; i < len(d) && '0' <= d[i] && d[i] <= '9'; i++ {
			if x < 1e4 { // any larger exponent is far outside pow10
				x = x*10 + int(d[i]-'0')
			}
		}
		if i == j {
			return nil, 0, 0, false, false
		}
		e += sign * x
	}
	tok = d[s.pos:i]
	s.pos = i
	return tok, m, e, n <= 19, true
}
