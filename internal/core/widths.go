// Package core implements the RIP paper's contribution: the analytical
// REFINE solver (Fig. 5) and the hybrid RIP pipeline (Fig. 6) that wraps a
// coarse DP pass, REFINE, and a fine DP pass over a synthesized concise
// library and local candidate set.
package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/numeric"
)

// ErrInfeasible reports that no continuous width assignment at the given
// repeater positions can meet the timing target: even the delay-optimal
// (λ→∞) sizing is too slow.
var ErrInfeasible = errors.New("core: timing target infeasible at these positions")

// WidthResult is the outcome of the continuous width solve for fixed
// positions: the KKT point of the paper's Eqs. (5) and (8).
type WidthResult struct {
	// Widths are the continuous optimal widths w_1..w_n (units of u).
	Widths []float64
	// Lambda is the Lagrange multiplier; ∂τ/∂w_i = −1/λ at the optimum.
	Lambda float64
	// Delay is the achieved total delay; equals the target within
	// tolerance because the timing constraint is active (Eq. 5).
	Delay float64
	// TotalWidth is Σw, the power objective.
	TotalWidth float64
	// MinDelay is the delay of the delay-optimal sizing at these
	// positions (the λ→∞ limit), useful for feasibility diagnostics.
	MinDelay float64
}

// WidthOptions tunes SolveWidths. The zero value uses defaults.
type WidthOptions struct {
	// Tol is the relative tolerance on meeting the delay target
	// (default 1e-9).
	Tol float64
	// MaxOuter bounds the λ bisection iterations (default 200).
	MaxOuter int
	// Polish enables a full Newton–Raphson polish of the (w, λ) system
	// after bisection (default on; set SkipPolish to disable).
	SkipPolish bool
}

func (o WidthOptions) withDefaults() WidthOptions {
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	if o.MaxOuter <= 0 {
		o.MaxOuter = 200
	}
	return o
}

// stageModel caches the position-dependent quantities of the staged Elmore
// delay so the width iteration never touches the wire tables.
type stageModel struct {
	n        int       // repeaters
	rs, co   float64   // tech constants
	wd, wr   float64   // terminal widths
	rw, cw   []float64 // per-stage wire R_i, C_i, i = 0..n
	constant float64   // Σ(Rs·Cp + M_i): width-independent delay
}

func newStageModel(ev *delay.Evaluator, positions []float64) *stageModel {
	a := delay.Assignment{Positions: positions, Widths: make([]float64, len(positions))}
	for i := range a.Widths {
		a.Widths[i] = 1 // placeholder; Lumped ignores widths
	}
	rw, cw := ev.Lumped(a)
	m := &stageModel{
		n:  len(positions),
		rs: ev.Tech.Rs,
		co: ev.Tech.Co,
		wd: ev.Wd,
		wr: ev.Wr,
		rw: rw,
		cw: cw,
	}
	// Width-independent part: per-stage Rs·Cp plus the distributed wire
	// self-delay of every stage.
	prev := 0.0
	total := ev.Line.Length()
	constant := 0.0
	for i := 0; i <= m.n; i++ {
		to := total
		if i < m.n {
			to = positions[i]
		}
		constant += ev.Tech.Rs*ev.Tech.Cp + ev.Line.M(prev, to)
		prev = to
	}
	m.constant = constant
	return m
}

// width returns w_i under the convention w_0 = wd, w_{n+1} = wr.
func (m *stageModel) width(w []float64, i int) float64 {
	switch {
	case i == 0:
		return m.wd
	case i == m.n+1:
		return m.wr
	default:
		return w[i-1]
	}
}

// delay evaluates the total Elmore delay for widths w (len n).
func (m *stageModel) delay(w []float64) float64 {
	sum := m.constant
	for i := 0; i <= m.n; i++ {
		wi := m.width(w, i)
		wnext := m.width(w, i+1)
		sum += m.rs/wi*(m.cw[i]+m.co*wnext) + m.rw[i]*m.co*wnext
	}
	return sum
}

// grad returns ∂τ/∂w_i (i = 1..n), Eq. (8)'s bracket.
func (m *stageModel) grad(w []float64, i int) float64 {
	a := m.rw[i-1] + m.rs/m.width(w, i-1)
	b := m.cw[i] + m.co*m.width(w, i+1)
	wi := w[i-1]
	return m.co*a - m.rs*b/(wi*wi)
}

// fixedPoint iterates the Gauss–Seidel update
//
//	w_i = √( λ·Rs·(C_i + Co·w_{i+1}) / (1 + λ·Co·(R_{i-1} + Rs/w_{i-1})) )
//
// to the KKT widths for a fixed λ. For λ = +Inf it converges to the
// delay-optimal sizing. The iteration is a contraction for the physical
// parameter ranges involved; 200 sweeps with 1e-13 tolerance is far more
// than it needs.
func (m *stageModel) fixedPoint(lambda float64, w []float64) {
	if w[0] == 0 {
		for i := range w {
			w[i] = 100 // neutral positive start
		}
	}
	for sweep := 0; sweep < 200; sweep++ {
		maxRel := 0.0
		for i := 1; i <= m.n; i++ {
			b := m.cw[i] + m.co*m.width(w, i+1)
			a := m.rw[i-1] + m.rs/m.width(w, i-1)
			var w2 float64
			if math.IsInf(lambda, 1) {
				w2 = m.rs * b / (m.co * a)
			} else {
				w2 = lambda * m.rs * b / (1 + lambda*m.co*a)
			}
			next := math.Sqrt(w2)
			rel := math.Abs(next-w[i-1]) / math.Max(next, 1e-30)
			if rel > maxRel {
				maxRel = rel
			}
			w[i-1] = next
		}
		if maxRel < 1e-13 {
			return
		}
	}
}

// SolveWidths computes the continuous optimal repeater widths and the
// Lagrange multiplier λ for fixed positions (Fig. 5, lines 1 and 7): the
// solution of Eq. (8) with the delay pinned to the target (Eq. 5).
//
// The solver is a robust nested scheme: the delay of the KKT widths is
// monotone decreasing in λ, so an outer bisection on log λ brackets the
// target and an inner Gauss–Seidel fixed point supplies the widths; a
// damped Newton–Raphson on the full (w, λ) system polishes the result
// (this is the Newton–Raphson step the paper names). It returns
// ErrInfeasible when even the delay-optimal sizing misses the target.
func SolveWidths(ev *delay.Evaluator, positions []float64, target float64, opts WidthOptions) (WidthResult, error) {
	opts = opts.withDefaults()
	if !(target > 0) {
		return WidthResult{}, fmt.Errorf("core: target must be positive, got %g", target)
	}
	n := len(positions)
	if n == 0 {
		d := ev.Total(delay.Assignment{})
		res := WidthResult{Delay: d, MinDelay: d}
		if d > target {
			return res, ErrInfeasible
		}
		return res, nil
	}

	m := newStageModel(ev, positions)

	// Feasibility: the λ→∞ (delay-optimal) sizing.
	wOpt := make([]float64, n)
	m.fixedPoint(math.Inf(1), wOpt)
	minDelay := m.delay(wOpt)
	if minDelay > target {
		return WidthResult{MinDelay: minDelay}, ErrInfeasible
	}
	if minDelay == target {
		return WidthResult{
			Widths: wOpt, Lambda: math.Inf(1), Delay: minDelay,
			TotalWidth: sum(wOpt), MinDelay: minDelay,
		}, nil
	}

	// Outer search: f(λ) = delay(w*(λ)) − target is decreasing in λ.
	w := make([]float64, n)
	f := func(lambda float64) float64 {
		m.fixedPoint(lambda, w)
		return m.delay(w) - target
	}
	// Scale-aware starting point: λ ≈ 1/|∂τ/∂w| at the delay-optimal
	// sizing's half width, a reasonable mid-power sizing.
	seed := make([]float64, n)
	for i := range seed {
		seed[i] = wOpt[i] / 2
	}
	gscale := math.Abs(m.grad(seed, 1))
	start := 1.0
	if gscale > 0 {
		start = 1 / gscale
	}
	// Walk down until f(λ) > 0 (delay above target) to find the low edge.
	lo := start
	for i := 0; i < 200 && f(lo) <= 0; i++ {
		lo /= 4
	}
	if f(lo) <= 0 {
		// Even absurdly small widths meet the target: widths tend to zero;
		// treat the smallest probe as the answer (practically unreachable
		// for positive targets because delay → ∞ as w → 0).
		return WidthResult{}, fmt.Errorf("core: width solve degenerate at λ=%g", lo)
	}
	hi := lo
	for i := 0; i < 400 && f(hi) > 0; i++ {
		hi *= 4
	}
	if f(hi) > 0 {
		return WidthResult{MinDelay: minDelay}, fmt.Errorf("core: failed to bracket λ (target %g, minDelay %g)", target, minDelay)
	}
	lambda, err := numeric.Bisect(f, lo, hi, opts.Tol, opts.MaxOuter)
	if err != nil {
		return WidthResult{MinDelay: minDelay}, fmt.Errorf("core: λ bisection: %w", err)
	}
	m.fixedPoint(lambda, w)

	if !opts.SkipPolish {
		if pw, pl, ok := m.newtonPolish(w, lambda, target); ok {
			copy(w, pw)
			lambda = pl
		}
	}

	res := WidthResult{
		Widths:     append([]float64(nil), w...),
		Lambda:     lambda,
		Delay:      m.delay(w),
		TotalWidth: sum(w),
		MinDelay:   minDelay,
	}
	return res, nil
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// kktSystem is the full Newton system F(w, λ) = 0 of Eqs. (5) and (8):
// F_i = 1 + λ·∂τ/∂w_i for i = 1..n, F_{n+1} = τ(w) − target.
type kktSystem struct {
	m      *stageModel
	target float64
	// scale normalizes λ so the Jacobian is well conditioned: the solver
	// works with λ̂ = λ·scale ≈ O(1).
	scale float64
}

func (s *kktSystem) Dim() int { return s.m.n + 1 }

func (s *kktSystem) Eval(x, f []float64) {
	n := s.m.n
	w := x[:n]
	lambda := x[n] / s.scale
	for i := 1; i <= n; i++ {
		f[i-1] = 1 + lambda*s.m.grad(w, i)
	}
	f[n] = (s.m.delay(w) - s.target) / s.target
}

func (s *kktSystem) Jacobian(x []float64, jac *numeric.Matrix) {
	n := s.m.n
	w := x[:n]
	lambda := x[n] / s.scale
	m := s.m
	for i := 0; i < (n+1)*(n+1); i++ {
		jac.Data[i] = 0
	}
	for i := 1; i <= n; i++ {
		wi := w[i-1]
		b := m.cw[i] + m.co*m.width(w, i+1)
		// ∂F_i/∂w_{i-1}: through A_i = R_{i-1} + Rs/w_{i-1}.
		if i >= 2 {
			wprev := w[i-2]
			jac.Set(i-1, i-2, lambda*m.co*(-m.rs/(wprev*wprev)))
		}
		// ∂F_i/∂w_i.
		jac.Set(i-1, i-1, lambda*2*m.rs*b/(wi*wi*wi))
		// ∂F_i/∂w_{i+1}: through B_i = C_i + Co·w_{i+1}.
		if i <= n-1 {
			jac.Set(i-1, i, lambda*(-m.rs*m.co/(wi*wi)))
		}
		// ∂F_i/∂λ̂.
		jac.Set(i-1, n, m.grad(w, i)/s.scale)
	}
	// Delay row.
	for j := 1; j <= n; j++ {
		jac.Set(n, j-1, m.grad(w, j)/s.target)
	}
	jac.Set(n, n, 0)
}

// newtonPolish refines (w, λ) with the damped Newton iteration; it reports
// ok=false when Newton fails to improve on the bisection result, in which
// case the caller keeps the original values.
func (m *stageModel) newtonPolish(w []float64, lambda, target float64) ([]float64, float64, bool) {
	n := m.n
	sys := &kktSystem{m: m, target: target, scale: 1 / lambda}
	x0 := make([]float64, n+1)
	copy(x0, w)
	x0[n] = lambda * sys.scale // = 1 by construction
	clamp := func(x []float64) {
		for i := 0; i < n; i++ {
			if x[i] < 1e-6 {
				x[i] = 1e-6
			}
		}
		if x[n] < 1e-12 {
			x[n] = 1e-12
		}
	}
	res, err := numeric.NewtonSolve(sys, x0, numeric.NewtonOptions{MaxIter: 60, Tol: 1e-12, Clamp: clamp})
	if err != nil || !res.Converged {
		return nil, 0, false
	}
	return res.X[:n], res.X[n] / sys.scale, true
}
