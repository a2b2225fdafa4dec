// Command ripbench regenerates every table and figure of the RIP paper's
// evaluation section on the seeded synthetic corpus.
//
// Usage:
//
//	ripbench -all                 # everything, ASCII to stdout
//	ripbench -table1 -csv out/    # Table 1, plus CSV files under out/
//	ripbench -table2 -targets 10  # Table 2 with a reduced target sweep
//	ripbench -fig7 -net 4         # Figure 7 on corpus net #5
//	ripbench -fig9                # crosstalk: pessimistic vs staggered power
//	ripbench -fig10               # bus co-optimization vs independent sign-off
//	ripbench -ablate              # pipeline ablations
//
// Absolute numbers depend on the host. Performance is measured by the
// benchmark under benchmark/ (end to end, against a live ripd) and by
// go test -bench (kernels), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/rip-eda/rip/internal/experiments"
)

func main() {
	var (
		seed     = flag.Int64("seed", 2005, "corpus seed")
		table1   = flag.Bool("table1", false, "reproduce Table 1")
		table2   = flag.Bool("table2", false, "reproduce Table 2")
		fig7     = flag.Bool("fig7", false, "reproduce Figure 7")
		fig8     = flag.Bool("fig8", false, "run the Figure-8-style technology scaling study as one mixed multi-node batch")
		fig9     = flag.Bool("fig9", false, "run the crosstalk study: power to close the same budgets under pessimistic coupling vs with staggering allowed")
		fig10    = flag.Bool("fig10", false, "run the bus study: joint neighbor-aware track co-optimization vs independent worst-case sign-off")
		ablate   = flag.Bool("ablate", false, "run pipeline ablations")
		analytic = flag.Bool("analytic", false, "compare against the closed-form analytical baseline")
		zones    = flag.Bool("zones", false, "sweep forbidden-zone coverage")
		trees    = flag.Bool("trees", false, "run the §7 tree-extension study")
		all      = flag.Bool("all", false, "run everything")
		nets     = flag.Int("nets", 20, "number of corpus nets to use (1-20)")
		targets  = flag.Int("targets", 20, "number of timing targets per net (1-20)")
		netIdx   = flag.Int("net", -1, "corpus net index for Figure 7 (-1 = median τmin)")
		csvDir   = flag.String("csv", "", "directory to also write CSV results into")
	)
	flag.Parse()
	if *all {
		*table1, *table2, *fig7, *ablate = true, true, true, true
		*analytic, *zones, *trees, *fig8 = true, true, true, true
		*fig9, *fig10 = true, true
	}
	if !*table1 && !*table2 && !*fig7 && !*fig8 && !*fig9 && !*fig10 && !*ablate && !*analytic && !*zones && !*trees {
		fmt.Fprintln(os.Stderr, "nothing to do: pass -table1, -table2, -fig7, -fig8, -fig9, -fig10, -ablate, -analytic, -zones, -trees or -all")
		flag.Usage()
		os.Exit(2)
	}

	s, err := experiments.NewSetup(*seed)
	if err != nil {
		fatal(err)
	}
	if *nets < 1 || *nets > len(s.Nets) {
		fatal(fmt.Errorf("-nets must be in [1, %d]", len(s.Nets)))
	}
	s.Nets = s.Nets[:*nets]
	if *targets < 1 || *targets > len(s.Multipliers) {
		fatal(fmt.Errorf("-targets must be in [1, %d]", len(s.Multipliers)))
	}
	s.Multipliers = s.Multipliers[:*targets]

	writeCSV := func(name string, f func(*os.File) error) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
		path := filepath.Join(*csvDir, name)
		file, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		defer file.Close()
		if err := f(file); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}

	if *table1 {
		res, err := experiments.Table1(s)
		if err != nil {
			fatal(err)
		}
		res.Render(os.Stdout)
		fmt.Println()
		writeCSV("table1.csv", func(f *os.File) error { return res.WriteCSV(f) })
	}
	if *fig7 {
		res, err := experiments.Figure7(s, *netIdx)
		if err != nil {
			fatal(err)
		}
		res.Render(os.Stdout)
		fmt.Println()
		writeCSV("figure7.csv", func(f *os.File) error { return res.WriteCSV(f) })
	}
	if *fig8 {
		res, err := experiments.Figure8(*seed, *nets, s.Multipliers)
		if err != nil {
			fatal(err)
		}
		res.Render(os.Stdout)
		fmt.Println()
		writeCSV("figure8.csv", func(f *os.File) error { return res.WriteCSV(f) })
	}
	if *fig9 {
		res, err := experiments.Figure9(*seed, *nets)
		if err != nil {
			fatal(err)
		}
		res.Render(os.Stdout)
		fmt.Println()
		writeCSV("figure9.csv", func(f *os.File) error { return res.WriteCSV(f) })
	}
	if *fig10 {
		// -nets doubles as the per-node bus-group count: each group is
		// 2–6 parallel tracks drawn from the same §6 distribution.
		res, err := experiments.Figure10(*seed, *nets)
		if err != nil {
			fatal(err)
		}
		res.Render(os.Stdout)
		fmt.Println()
		writeCSV("figure10.csv", func(f *os.File) error { return res.WriteCSV(f) })
	}
	if *table2 {
		res, err := experiments.Table2(s, nil)
		if err != nil {
			fatal(err)
		}
		res.Render(os.Stdout)
		fmt.Println()
		writeCSV("table2.csv", func(f *os.File) error { return res.WriteCSV(f) })
	}
	if *ablate {
		res, err := experiments.Ablations(s)
		if err != nil {
			fatal(err)
		}
		res.Render(os.Stdout)
		fmt.Println()
		writeCSV("ablations.csv", func(f *os.File) error { return res.WriteCSV(f) })
	}
	if *analytic {
		res, err := experiments.AnalyticCompare(s)
		if err != nil {
			fatal(err)
		}
		res.Render(os.Stdout)
		fmt.Println()
		writeCSV("analytic.csv", func(f *os.File) error { return res.WriteCSV(f) })
	}
	if *zones {
		res, err := experiments.ZoneSweep(s, nil, *seed, 8)
		if err != nil {
			fatal(err)
		}
		res.Render(os.Stdout)
		fmt.Println()
		writeCSV("zones.csv", func(f *os.File) error { return res.WriteCSV(f) })
	}
	if *trees {
		res, err := experiments.TreeStudy(s, *seed, 12)
		if err != nil {
			fatal(err)
		}
		res.Render(os.Stdout)
		fmt.Println()
		writeCSV("trees.csv", func(f *os.File) error { return res.WriteCSV(f) })
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ripbench:", err)
	os.Exit(1)
}
