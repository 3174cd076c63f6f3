// Command pash-bench regenerates the paper's evaluation artifacts
// (§6): Table 1 (study), Table 2 (one-liner summary), Fig. 7 (speedup vs
// width under five configurations), Fig. 8 (Unix50), the NOAA and
// Wikipedia use cases (§6.3, §6.4), and the §6.5 micro-benchmarks.
//
//	pash-bench -table 1
//	pash-bench -table 2 [-scale N]
//	pash-bench -fig 7 [-scale N] [-widths 2,4,8,16,32,64] [-bench grep]
//	pash-bench -fig 8 [-scale N]
//	pash-bench -exp noaa | wikipedia | sort | gnuparallel
//
// Correctness is checked on every run (parallel output must equal
// sequential); speedups are projected onto a simulated 64-core machine
// from per-node works measured on this host (see internal/sim and the
// "Meters and the simulator" section of internal/runtime/README.md).
// Measured wall-clock performance is the business of the repository
// benchmark in bench/ (bench/README.md), not of this command.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/benchscripts"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/workload"
	"repro/pash"
)

// benchRecord is one machine-readable measurement. pash-bench -out
// writes these so successive PRs can track the perf trajectory in
// BENCH_*.json files.
type benchRecord struct {
	Bench   string  `json:"bench"`
	Config  string  `json:"config,omitempty"`
	Width   int     `json:"width,omitempty"`
	Speedup float64 `json:"speedup,omitempty"`
	SeqMs   float64 `json:"seq_ms,omitempty"`
	Nodes   int     `json:"nodes,omitempty"`
}

// benchReport is the JSON envelope.
type benchReport struct {
	Tool      string        `json:"tool"`
	Timestamp string        `json:"timestamp"`
	Scale     int           `json:"scale"`
	Records   []benchRecord `json:"records"`
}

var jsonRecords []benchRecord

func record(r benchRecord) { jsonRecords = append(jsonRecords, r) }

func writeJSON(path string, scale int) {
	if path == "" {
		return
	}
	rep := benchReport{
		Tool:      "pash-bench",
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Scale:     scale,
		Records:   jsonRecords,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		die(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		die(err)
	}
	fmt.Fprintf(os.Stderr, "pash-bench: wrote %d records to %s\n", len(jsonRecords), path)
}

func main() {
	var (
		table   = flag.Int("table", 0, "regenerate a table (1 or 2)")
		fig     = flag.Int("fig", 0, "regenerate a figure (7 or 8)")
		exp     = flag.String("exp", "", "use case: noaa|wikipedia|sort|gnuparallel")
		scale   = flag.Int("scale", 4, "workload scale factor")
		widths  = flag.String("widths", "2,4,8,16,32,64", "width sweep for -fig 7")
		bench   = flag.String("bench", "", "restrict -fig 7 to one benchmark")
		jsonOut = flag.String("out", "", "also write results as JSON to this file (e.g. BENCH_fig7.json)")
	)
	flag.Parse()
	switch {
	case *table == 1:
		pash.WriteTable1(os.Stdout)
	case *table == 2:
		runTable2(*scale)
	case *fig == 7:
		runFig7(*scale, parseWidths(*widths), *bench)
	case *fig == 8:
		runFig8(*scale)
	case *exp != "":
		runExp(*exp, *scale)
	default:
		flag.Usage()
		os.Exit(2)
	}
	writeJSON(*jsonOut, *scale)
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

func die(err error) {
	fmt.Fprintf(os.Stderr, "pash-bench: %v\n", err)
	os.Exit(1)
}

func tmpdir() string {
	dir, err := os.MkdirTemp("", "pash-bench-*")
	if err != nil {
		die(err)
	}
	return dir
}

// runTable2 prints Tab. 2: structure, input size, sequential time,
// #nodes and compile time at widths 16 and 64.
func runTable2(scale int) {
	fmt.Printf("%-18s %-10s %9s %12s %7s %7s %12s %12s\n",
		"Script", "Structure", "Input", "Seq. time", "N(16)", "N(64)", "Compile(16)", "Compile(64)")
	for _, b := range benchscripts.OneLiners() {
		dir := tmpdir()
		defer os.RemoveAll(dir)
		p, err := benchscripts.Prepare(b, dir, scale)
		if err != nil {
			die(err)
		}
		seq, err := p.Execute(core.Options{Width: 1})
		if err != nil {
			die(err)
		}
		n16, c16, err := p.CompileStats(core.DefaultOptions(16))
		if err != nil {
			die(err)
		}
		n64, c64, err := p.CompileStats(core.DefaultOptions(64))
		if err != nil {
			die(err)
		}
		fmt.Printf("%-18s %-10s %9s %12s %7d %7d %12s %12s\n",
			b.Name, b.Structure, inputSize(dir), seq.Duration.Round(1e6),
			n16, n64, c16.Round(1e4), c64.Round(1e4))
		record(benchRecord{Bench: b.Name, Config: "table2",
			SeqMs: float64(seq.Duration) / 1e6, Nodes: n16})
	}
}

func inputSize(dir string) string {
	var total int64
	_ = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	switch {
	case total > 1<<20:
		return fmt.Sprintf("%.1fMB", float64(total)/(1<<20))
	case total > 1<<10:
		return fmt.Sprintf("%.1fKB", float64(total)/(1<<10))
	}
	return fmt.Sprintf("%dB", total)
}

// fig7Configs are the five lines of Fig. 7.
var fig7Configs = []struct {
	name string
	opts func(width int) core.Options
}{
	{"par+split", func(w int) core.Options {
		return core.Options{Width: w, Split: true, Eager: dfg.EagerFull}
	}},
	{"par+bsplit", func(w int) core.Options {
		return core.Options{Width: w, Split: true, Eager: dfg.EagerFull, InputAwareSplit: true}
	}},
	{"parallel", func(w int) core.Options {
		return core.Options{Width: w, Split: false, Eager: dfg.EagerFull}
	}},
	{"blocking-eager", func(w int) core.Options {
		return core.Options{Width: w, Split: false, Eager: dfg.EagerBlocking, BlockingEagerBytes: 1 << 20}
	}},
	{"no-eager", func(w int) core.Options {
		return core.Options{Width: w, Split: false, Eager: dfg.EagerNone}
	}},
}

// runFig7 prints speedups per (script, config, width) — the data behind
// Fig. 7's curves.
func runFig7(scale int, widths []int, only string) {
	fmt.Printf("%-18s %-15s", "Script", "Config")
	for _, w := range widths {
		fmt.Printf(" %6dx", w)
	}
	fmt.Println()
	avg := map[int][]float64{}
	for _, b := range benchscripts.OneLiners() {
		if only != "" && b.Name != only {
			continue
		}
		dir := tmpdir()
		p, err := benchscripts.Prepare(b, dir, scale)
		if err != nil {
			die(err)
		}
		for _, cfg := range fig7Configs {
			fmt.Printf("%-18s %-15s", b.Name, cfg.name)
			for _, w := range widths {
				sp, _, _, err := benchscripts.Speedup(p, cfg.opts(w))
				if err != nil {
					die(err)
				}
				fmt.Printf(" %6.2f ", sp)
				record(benchRecord{Bench: b.Name, Config: cfg.name, Width: w, Speedup: sp})
				if cfg.name == "par+split" {
					avg[w] = append(avg[w], sp)
				}
			}
			fmt.Println()
		}
		os.RemoveAll(dir)
	}
	if only == "" {
		fmt.Printf("%-18s %-15s", "AVERAGE", "par+split")
		for _, w := range widths {
			sum := 0.0
			for _, v := range avg[w] {
				sum += v
			}
			fmt.Printf(" %6.2f ", sum/float64(len(avg[w])))
		}
		fmt.Println()
	}
}

// runFig8 prints the Unix50 speedups at width 16 (Fig. 8).
func runFig8(scale int) {
	fmt.Printf("%-12s %-14s %10s %9s\n", "Pipeline", "Structure", "Seq", "Speedup")
	var speedups []float64
	for _, b := range benchscripts.Unix50() {
		dir := tmpdir()
		p, err := benchscripts.Prepare(b, dir, scale)
		if err != nil {
			die(err)
		}
		sp, seq, _, err := benchscripts.Speedup(p, core.DefaultOptions(16))
		if err != nil {
			die(err)
		}
		fmt.Printf("%-12s %-14s %10s %8.2fx\n", b.Name, b.Structure,
			seq.SimTime(benchscripts.SimCores).Round(1e6), sp)
		record(benchRecord{Bench: b.Name, Config: "unix50", Width: 16, Speedup: sp,
			SeqMs: float64(seq.SimTime(benchscripts.SimCores)) / 1e6})
		speedups = append(speedups, sp)
		os.RemoveAll(dir)
	}
	sum := 0.0
	for _, s := range speedups {
		sum += s
	}
	fmt.Printf("average speedup: %.2fx  (paper: 5.49x avg, 6.07x median at 16x)\n",
		sum/float64(len(speedups)))
}

// runExp runs the use cases and micro-benchmarks.
func runExp(name string, scale int) {
	switch name {
	case "noaa":
		runUseCase(benchscripts.NOAA(), scale, []int{2, 10, 16})
	case "wikipedia":
		runUseCase(benchscripts.WebIndex(), scale, []int{2, 16})
	case "sort":
		runSortMicro(scale)
	case "gnuparallel":
		runGNUParallelMicro(scale)
	default:
		fmt.Fprintf(os.Stderr, "pash-bench: unknown experiment %q\n", name)
		os.Exit(2)
	}
}

func runUseCase(b benchscripts.Bench, scale int, widths []int) {
	dir := tmpdir()
	defer os.RemoveAll(dir)
	p, err := benchscripts.Prepare(b, dir, scale)
	if err != nil {
		die(err)
	}
	seq, err := p.Execute(core.Options{Width: 1, MeasureMode: true})
	if err != nil {
		die(err)
	}
	fmt.Printf("%s: sequential %s (projected on %d cores: %s)\n",
		b.Name, seq.Duration.Round(1e6), benchscripts.SimCores,
		seq.SimTime(benchscripts.SimCores).Round(1e6))
	for _, w := range widths {
		sp, _, par, err := benchscripts.Speedup(p, core.DefaultOptions(w))
		if err != nil {
			die(err)
		}
		fmt.Printf("  width %2d: projected %s, speedup %.2fx (output identical: yes)\n",
			w, par.SimTime(benchscripts.SimCores).Round(1e6), sp)
		record(benchRecord{Bench: b.Name, Config: "use-case", Width: w, Speedup: sp})
	}
}

// runSortMicro compares PaSh-parallelized sort (with and without eager)
// against the command-internal threading of sort --parallel (§6.5).
func runSortMicro(scale int) {
	dir := tmpdir()
	defer os.RemoveAll(dir)
	if err := workload.TextFile(dir+"/in.txt", 30000*scale, 7); err != nil {
		die(err)
	}
	script := "cat in.txt | sort"
	p := &benchscripts.Prepared{
		Bench:  benchscripts.Bench{Name: "sort-micro"},
		Dir:    dir,
		Script: script,
	}
	fmt.Printf("%-22s", "Config")
	widths := []int{4, 8, 16, 32, 64}
	for _, w := range widths {
		fmt.Printf(" %6dx", w)
	}
	fmt.Println()
	for _, cfg := range []struct {
		name string
		opts func(w int) core.Options
	}{
		{"pash (eager)", func(w int) core.Options {
			return core.Options{Width: w, Split: true, Eager: dfg.EagerFull}
		}},
		{"pash (no eager)", func(w int) core.Options {
			return core.Options{Width: w, Split: true, Eager: dfg.EagerNone}
		}},
	} {
		fmt.Printf("%-22s", cfg.name)
		for _, w := range widths {
			sp, _, _, err := benchscripts.Speedup(p, cfg.opts(w))
			if err != nil {
				die(err)
			}
			fmt.Printf(" %6.2f ", sp)
		}
		fmt.Println()
	}
	// The command-internal baseline: sort --parallel (real correctness
	// check plus the same projection applied to its phases).
	input, err := os.ReadFile(dir + "/in.txt")
	if err != nil {
		die(err)
	}
	seqOut, err := baseline.ParallelSort(string(input), 1)
	if err != nil {
		die(err)
	}
	parOut, err := baseline.ParallelSort(string(input), 8)
	if err != nil {
		die(err)
	}
	fmt.Printf("sort --parallel output identical to sort: %v\n", seqOut == parOut)
	fmt.Println("(paper §6.5: sort --parallel corresponds to the no-eager line;")
	fmt.Println(" PaSh with eager outperforms it by adding buffers between merge phases)")
}

// runGNUParallelMicro reproduces the §6.5 GNU parallel comparison: PaSh
// is correct; blind block-parallelism is fast but wrong.
func runGNUParallelMicro(scale int) {
	dir := tmpdir()
	defer os.RemoveAll(dir)
	input := workload.Text(20000*scale, 99)
	// A bio-like pipeline where one command dominates (harsh for PaSh).
	script := `tr A-Z a-z | grep -E '(the|of|and).*(water|people)' | sort | uniq -c | sort -rn`

	seqSession := pash.NewSession(pash.SequentialOptions())
	var seqOut strings.Builder
	if _, err := seqSession.Run(context.Background(), script,
		strings.NewReader(input), &seqOut, os.Stderr); err != nil {
		die(err)
	}

	parSession := pash.NewSession(pash.DefaultOptions(8))
	var parOut strings.Builder
	if _, err := parSession.Run(context.Background(), script,
		strings.NewReader(input), &parOut, os.Stderr); err != nil {
		die(err)
	}

	naiveOut, err := baseline.NaiveParallel(context.Background(), script, input, dir, nil, 8)
	if err != nil {
		die(err)
	}

	fmt.Printf("pash output identical to sequential:   %v\n", parOut.String() == seqOut.String())
	fmt.Printf("naive-parallel identical to sequential: %v\n", naiveOut == seqOut.String())
	fmt.Printf("naive-parallel output divergence:       %.0f%% of lines (paper: 92%%)\n",
		100*baseline.Divergence(seqOut.String(), naiveOut))
}
