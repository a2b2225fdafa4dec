package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/rip-eda/rip/internal/core"
)

// AblationRow summarizes one pipeline variant across the corpus sweep.
type AblationRow struct {
	// Name identifies the variant.
	Name string
	// MeanWidth is the mean total repeater width across feasible cases
	// (lower is better).
	MeanWidth float64
	// Infeasible counts cases the variant could not solve.
	Infeasible int
	// MeanTime is the mean per-case wall-clock time.
	MeanTime time.Duration
	// VsDefaultPct is the mean width increase relative to the default
	// configuration (negative means the variant is better).
	VsDefaultPct float64
}

// AblationResult holds all variants; the first row is the default.
type AblationResult struct {
	Rows []AblationRow
}

// variant pairs a name with a configuration mutation.
type variant struct {
	name string
	mut  func(*core.Config)
}

// Ablations evaluates the pipeline's design choices: the coarse library
// size, the local candidate window, multi-pass REFINE, the §7
// zone-crossing extension and the adaptive movement step. Every variant
// runs the identical corpus sweep; differences isolate one knob each.
func Ablations(s *Setup) (*AblationResult, error) {
	cases, err := s.Prepare()
	if err != nil {
		return nil, err
	}
	variants := []variant{
		{"default (paper §6)", func(c *core.Config) {}},
		{"coarse lib 3x120u", func(c *core.Config) { c.CoarseMin, c.CoarseStep, c.CoarseSize = 120, 120, 3 }},
		{"coarse lib 8x50u", func(c *core.Config) { c.CoarseMin, c.CoarseStep, c.CoarseSize = 50, 50, 8 }},
		{"window ±2", func(c *core.Config) { c.LocalWindow = 2 }},
		{"window ±20", func(c *core.Config) { c.LocalWindow = 20 }},
		{"refine ×3 (§7)", func(c *core.Config) { c.RefinePasses = 3 }},
		{"zone crossing (§7)", func(c *core.Config) { c.Refine.ZoneCrossing = true }},
		{"fixed step (paper)", func(c *core.Config) { c.Refine.DisableAdaptiveStep = true }},
	}
	res := &AblationResult{}
	var defaultWidths []float64
	for vi, v := range variants {
		cfg := s.RIP
		v.mut(&cfg)
		row := AblationRow{Name: v.name}
		var sumW float64
		var widths []float64
		var total time.Duration
		var n int
		for _, c := range cases {
			for _, mult := range s.Multipliers {
				target := mult * c.TMin
				t0 := time.Now()
				r, err := core.Insert(c.Eval, target, cfg)
				total += time.Since(t0)
				if err != nil {
					return nil, fmt.Errorf("ablation %q on %s: %w", v.name, c.Net.Name, err)
				}
				if !r.Solution.Feasible {
					row.Infeasible++
					widths = append(widths, -1)
					continue
				}
				sumW += r.Solution.TotalWidth
				widths = append(widths, r.Solution.TotalWidth)
				n++
			}
		}
		if n > 0 {
			row.MeanWidth = sumW / float64(n)
			row.MeanTime = total / time.Duration(len(widths))
		}
		if vi == 0 {
			defaultWidths = widths
		} else {
			// Pairwise comparison on cases both variants solved.
			var sumPct float64
			var cnt int
			for i := range widths {
				if widths[i] > 0 && defaultWidths[i] > 0 {
					sumPct += 100 * (widths[i] - defaultWidths[i]) / defaultWidths[i]
					cnt++
				}
			}
			if cnt > 0 {
				row.VsDefaultPct = sumPct / float64(cnt)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render writes the ablation table.
func (r *AblationResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Ablations over the RIP pipeline (corpus sweep; width in units of u).")
	fmt.Fprintln(w, "variant                mean width   infeas   mean time   Δwidth vs default")
	for i, row := range r.Rows {
		delta := "      —"
		if i > 0 {
			delta = fmt.Sprintf("%+6.2f%%", row.VsDefaultPct)
		}
		fmt.Fprintf(w, "%-22s %10.1fu %8d %11s   %s\n",
			row.Name, row.MeanWidth, row.Infeasible, row.MeanTime.Round(time.Microsecond), delta)
	}
}

// WriteCSV writes the rows as CSV with a header.
func (r *AblationResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "variant,mean_width_u,infeasible,mean_time_ns,delta_vs_default_pct"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%q,%.4f,%d,%d,%.4f\n",
			row.Name, row.MeanWidth, row.Infeasible, row.MeanTime.Nanoseconds(), row.VsDefaultPct); err != nil {
			return err
		}
	}
	return nil
}
