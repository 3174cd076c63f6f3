// Command pash-bench prints the paper's evaluation artifacts (§6):
// Table 1 (study), Table 2 (one-liner summary), Fig. 7 (speedup vs
// width under five configurations), Fig. 8 (Unix50), the NOAA and
// Wikipedia use cases (§6.3, §6.4), and the §6.5 micro-benchmarks.
//
//	pash-bench -table 1
//	pash-bench -table 2 [-scale N]
//	pash-bench -fig 7 [-scale N] [-widths 2,4,8,16,32,64] [-bench grep]
//	pash-bench -fig 8 [-scale N]
//	pash-bench -exp noaa | wikipedia | sort | gnuparallel
//
// The artifacts are computed by internal/paper. Parallel output must
// equal sequential output on every run, and a failed check exits 1.
// Speedups are projected onto a simulated 64-core machine from per-node
// works measured on this host and are labelled "projected"; measured
// wall times are labelled "measured". Measured performance of the system
// is the business of the repository benchmark in bench/.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/paper"
)

func main() {
	var (
		table  = flag.Int("table", 0, "print a table (1 or 2)")
		fig    = flag.Int("fig", 0, "print a figure (7 or 8)")
		exp    = flag.String("exp", "", "use case or micro-benchmark: noaa|wikipedia|sort|gnuparallel")
		scale  = flag.Int("scale", 4, "workload scale factor")
		widths = flag.String("widths", "2,4,8,16,32,64", "width sweep for -fig 7")
		bench  = flag.String("bench", "", "restrict -fig 7 to one benchmark")
	)
	flag.Parse()
	var err error
	switch {
	case *table == 1:
		table1()
	case *table == 2:
		err = table2(*scale)
	case *fig == 7:
		err = fig7(*scale, parseWidths(*widths), *bench)
	case *fig == 8:
		err = fig8(*scale)
	case *exp == "sort":
		err = sortMicro(*scale)
	case *exp == "gnuparallel":
		err = gnuParallel(*scale)
	case *exp != "":
		err = useCase(*exp, *scale)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pash-bench: %v\n", err)
		os.Exit(1)
	}
}

func parseWidths(s string) []int {
	var out []int
	for _, p := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 2 {
			fmt.Fprintf(os.Stderr, "pash-bench: bad width %q\n", p)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

func table1() {
	fmt.Printf("%-28s %-18s %-16s %s\n", "Class", "Key Examples", "Coreutils", "POSIX")
	for _, r := range paper.Table1() {
		fmt.Printf("%-28s %-18s %3d (%4.1f%%)     %3d (%4.1f%%)\n",
			r.Name+" ("+r.Class.String()+")", r.Examples, r.Coreutils, r.CoreutilsPct, r.POSIX, r.POSIXPct)
	}
}

func table2(scale int) error {
	rows, err := paper.Table2(scale)
	if err != nil {
		return err
	}
	fmt.Printf("%-18s %-10s %9s %14s %7s %7s %12s %12s\n",
		"Script", "Structure", "Input", "Seq (measured)", "N(16)", "N(64)", "Compile(16)", "Compile(64)")
	for _, r := range rows {
		fmt.Printf("%-18s %-10s %9s %14s %7d %7d %12s %12s\n",
			r.Script, r.Structure, size(r.InputBytes), r.SeqWall.Round(time.Millisecond),
			r.Nodes16, r.Nodes64, r.Compile16.Round(10*time.Microsecond), r.Compile64.Round(10*time.Microsecond))
	}
	return nil
}

func size(n int64) string {
	switch {
	case n > 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n > 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

// speedups prints one row of projected speedups.
func speedups(label string, sps []float64) {
	fmt.Print(label)
	for _, sp := range sps {
		fmt.Printf(" %6.2f ", sp)
	}
	fmt.Println()
}

func widthHeader(label string, widths []int) {
	fmt.Print(label)
	for _, w := range widths {
		fmt.Printf(" %6dx", w)
	}
	fmt.Println("  (projected speedup)")
}

func fig7(scale int, widths []int, only string) error {
	rows, err := paper.Fig7(scale, widths, only)
	if err != nil {
		return err
	}
	widthHeader(fmt.Sprintf("%-18s %-15s", "Script", "Config"), widths)
	for _, r := range rows {
		speedups(fmt.Sprintf("%-18s %-15s", r.Script, r.Preset), r.Projected)
	}
	return nil
}

func fig8(scale int) error {
	rows, mean, err := paper.Fig8(scale)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-14s %15s %19s\n", "Pipeline", "Structure", "Seq (projected)", "Speedup (projected)")
	for _, r := range rows {
		fmt.Printf("%-12s %-14s %15s %18.2fx\n", r.Pipeline, r.Structure, r.SeqProjected.Round(time.Millisecond), r.Projected)
	}
	fmt.Printf("average projected speedup: %.2fx  (paper: 5.49x avg, 6.07x median at 16x)\n", mean)
	return nil
}

func useCase(name string, scale int) error {
	res, err := paper.UseCase(name, scale)
	if err != nil {
		return err
	}
	fmt.Printf("%s: sequential %s measured (projected on %d cores: %s)\n",
		res.Name, res.SeqWall.Round(time.Millisecond), paper.SimCores, res.SeqProjected.Round(time.Millisecond))
	for _, r := range res.Rows {
		fmt.Printf("  width %2d: projected %s, projected speedup %.2fx (output identical: yes)\n",
			r.Width, r.Projected.Round(time.Millisecond), r.Speedup)
	}
	return nil
}

func sortMicro(scale int) error {
	rows, matches, err := paper.SortMicro(scale)
	if err != nil {
		return err
	}
	widthHeader(fmt.Sprintf("%-22s", "Config"), paper.SortWidths)
	for _, r := range rows {
		speedups(fmt.Sprintf("%-22s", r.Config), r.Projected)
	}
	fmt.Printf("sort --parallel output identical to sort: %v\n", matches)
	fmt.Println("(paper §6.5: sort --parallel corresponds to the no-eager line;")
	fmt.Println(" PaSh with eager outperforms it by adding buffers between merge phases)")
	if !matches {
		return errors.New("check failed: sort --parallel output differs from sort")
	}
	return nil
}

func gnuParallel(scale int) error {
	res, err := paper.GNUParallel(scale)
	if err != nil {
		return err
	}
	fmt.Printf("pash output identical to sequential:   %v\n", res.PashMatches)
	fmt.Printf("naive-parallel identical to sequential: %v\n", res.NaiveMatches)
	fmt.Printf("naive-parallel output divergence:       %.0f%% of lines (paper: 92%%)\n", 100*res.Divergence)
	if !res.PashMatches || res.NaiveMatches {
		return errors.New("check failed: want pash identical to sequential and naive-parallel not")
	}
	return nil
}
