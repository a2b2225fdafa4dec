package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"text/tabwriter"
)

// results is the file -sets writes and compare reads: every run's
// metrics, as measured.
type results struct {
	Nproc   int   `json:"nproc"`
	Seconds int   `json:"seconds"`
	Trace   bool  `json:"trace"`
	Runs    []run `json:"runs"`
}

type run struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Correct  bool                 `json:"correct"`
	Metrics  map[string]runMetric `json:"metrics"`
}

type runMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runSets runs every workload sets times, set s on seed+s, reversing the
// workload order on odd sets so neither end of a set always runs on a
// warmer or busier host. It prints each metric's median and quartiles
// over the sets and, with out, writes every run's metrics there.
func (b *bench) runSets(ctx context.Context, names []string, seed int64, sets int, out string) int {
	res := results{Nproc: runtime.NumCPU(), Seconds: b.seconds, Trace: b.trace}
	code := 0
	for s := 0; s < sets; s++ {
		order := slices.Clone(names)
		if s%2 == 1 {
			slices.Reverse(order)
		}
		for _, name := range order {
			rep, err := b.run(ctx, name, seed+int64(s))
			if err != nil {
				fmt.Fprintf(os.Stderr, "ripbench-e2e: %s: %v\n", name, err)
				return 1
			}
			rep.print(os.Stdout)
			r := run{Workload: name, Seed: rep.seed, Correct: rep.correct(), Metrics: make(map[string]runMetric)}
			for _, m := range rep.metrics {
				if m.ok {
					r.Metrics[m.name] = runMetric{Value: m.value, Unit: m.unit}
				}
			}
			res.Runs = append(res.Runs, r)
			if !rep.correct() {
				code = 1
			}
		}
	}
	summarize(os.Stdout, &res)
	if out != "" {
		raw, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ripbench-e2e:", err)
			return 1
		}
	}
	return code
}

// values collects one metric's values per workload, in run order.
func (r *results) values() map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, run := range r.Runs {
		if out[run.Workload] == nil {
			out[run.Workload] = make(map[string][]float64)
		}
		for name, m := range run.Metrics {
			out[run.Workload][name] = append(out[run.Workload][name], m.Value)
		}
	}
	return out
}

// summarize prints, per workload and metric, the median, the quartiles
// and their distance as a share of the median.
func summarize(w *os.File, r *results) {
	units := make(map[string]string)
	for _, run := range r.Runs {
		for name, m := range run.Metrics {
			units[name] = m.Unit
		}
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tq1\tq3\tspread\tunit\truns")
	vals := r.values()
	for _, wl := range workloadNames {
		names := make([]string, 0, len(vals[wl]))
		for name := range vals[wl] {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			v := vals[wl][name]
			q1, q3 := quartiles(v)
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%.3f\t%s\t%d\n", wl, name, median(v), q1, q3, spread(v), units[name], len(v))
		}
	}
	tw.Flush()
}

// compareMain implements "compare A.json B.json": for every end-to-end
// metric of BENCHMARK.json and every workload, it compares B's
// median with A's under the metric's bound. A metric whose own spread in
// either file is wider than its bound is listed as unresolved; any other
// metric outside its bound, in either direction, makes the exit status 1.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bash benchmark/run.sh compare A.json B.json")
		return 2
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	var files [2]results
	for i, path := range args {
		raw, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(raw, &files[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "compare: %s: %v\n", path, err)
			return 2
		}
	}
	a, b := files[0].values(), files[1].values()
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian A\tmedian B\tchange\tbound\tspread A\tspread B\tverdict")
	code := 0
	for _, wl := range workloadNames {
		for _, m := range sp.EndToEnd {
			va, vb := a[wl][m.Name], b[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(va, vb, m)
			if v == "worse" || v == "better" {
				code = 1
			}
			ma, mb := median(va), median(vb)
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%.3f\t%.3f\t%s\n", wl, m.Name, ma, mb,
				100*(mb/ma-1), 100*m.Bound, spread(va), spread(vb), v)
		}
	}
	tw.Flush()
	return code
}

// verdict judges B against A: "unresolved" when either side's own spread
// exceeds the bound (or cannot be measured), else "worse", "better" or
// "same" by whether B's median moved past the bound.
func verdict(a, b []float64, m specMetric) string {
	sa, sb := spread(a), spread(b)
	if !(sa <= m.Bound) || !(sb <= m.Bound) {
		return "unresolved"
	}
	change := median(b)/median(a) - 1
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case change > m.Bound:
		return "worse"
	case change < -m.Bound:
		return "better"
	}
	return "same"
}
