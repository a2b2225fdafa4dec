package api

import (
	"math"
	"strconv"
)

// jsonAppender writes the canonical form json.Marshal gives the response
// types, without reflection: their fields in declaration order, omitempty
// honored, floats formatted as encoding/json formats them. It goes bad,
// and the caller declines to encoding/json, on a value outside that
// subset: a NaN or infinite float, which json.Marshal refuses, or a
// string encoding/json would escape (a byte outside printable ASCII, or
// one of `"`, `\`, `<`, `>`, `&`).
type jsonAppender struct {
	b   []byte
	bad bool
}

// key opens the member name: a comma unless it is the object's first.
func (w *jsonAppender) key(name string) {
	if w.b[len(w.b)-1] != '{' {
		w.b = append(w.b, ',')
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	w.b = append(w.b, '"', ':')
}

func (w *jsonAppender) str(name, s string) {
	w.key(name)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			w.bad = true
			return
		}
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, s...)
	w.b = append(w.b, '"')
}

func (w *jsonAppender) strOmit(name, s string) {
	if s != "" {
		w.str(name, s)
	}
}

func (w *jsonAppender) bool(name string, v bool) {
	w.key(name)
	w.b = strconv.AppendBool(w.b, v)
}

func (w *jsonAppender) int(name string, x int) {
	w.key(name)
	w.b = strconv.AppendInt(w.b, int64(x), 10)
}

func (w *jsonAppender) intOmit(name string, x int) {
	if x != 0 {
		w.int(name, x)
	}
}

func (w *jsonAppender) float(name string, x float64) {
	w.key(name)
	w.num(x)
}

// floatOmit omits 0 and −0, as omitempty does.
func (w *jsonAppender) floatOmit(name string, x float64) {
	if x != 0 {
		w.float(name, x)
	}
}

// floatPtr writes a non-nil pointer's value, 0 included.
func (w *jsonAppender) floatPtr(name string, x *float64) {
	if x != nil {
		w.float(name, *x)
	}
}

// floats writes a non-empty list; omitempty drops nil and empty alike.
func (w *jsonAppender) floats(name string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	w.key(name)
	for i, x := range xs {
		w.elem(i)
		w.num(x)
	}
	w.b = append(w.b, ']')
}

// elem opens element i of a list: the bracket before the first, a comma
// before the rest.
func (w *jsonAppender) elem(i int) {
	if i == 0 {
		w.b = append(w.b, '[')
	} else {
		w.b = append(w.b, ',')
	}
}

// buffers writes a non-empty tree placement.
func (w *jsonAppender) buffers(bs []TreeBuffer) {
	if len(bs) == 0 {
		return
	}
	w.key("buffers")
	for i, tb := range bs {
		w.elem(i)
		w.b = append(w.b, '{')
		w.int("node", tb.NodeID)
		w.float("width_u", tb.WidthU)
		w.b = append(w.b, '}')
	}
	w.b = append(w.b, ']')
}

// num formats x as encoding/json's float64 encoder does: the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21 in
// magnitude, with a one-digit negative exponent unpadded (e-7, not e-07).
// Widths are whole numbers of u; below 2⁵³ a whole float's shortest
// decimal is its integer, which is formatted as one.
func (w *jsonAppender) num(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		w.bad = true
		return
	}
	if x == math.Trunc(x) && math.Abs(x) < 1<<53 && (x != 0 || !math.Signbit(x)) {
		w.b = strconv.AppendInt(w.b, int64(x), 10)
		return
	}
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, x, format, -1, 64)
	if n := len(w.b); format == 'e' && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		w.b[n-2] = w.b[n-1]
		w.b = w.b[:n-1]
	}
}

// close ends the object begun at len(dst), or reports false and returns
// dst unchanged if a value went bad.
func (w *jsonAppender) close(dst []byte) ([]byte, bool) {
	if w.bad {
		return dst, false
	}
	return append(w.b, '}'), true
}
