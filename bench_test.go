package repro

// This file holds one testing.B benchmark per table and figure of the
// paper's evaluation (§6). Each benchmark exercises the full pipeline —
// workload generation aside — and reports the paper's metric as a custom
// benchmark unit:
//
//	BenchmarkTable1Study        — Tab. 1 (study recomputation)
//	BenchmarkTable2Compile      — Tab. 2 (compile time + node counts)
//	BenchmarkFig7OneLiners      — Fig. 7 (speedup/width, all configs)
//	BenchmarkFig8Unix50         — Fig. 8 (Unix50 at 16x)
//	BenchmarkNOAA               — §6.3 (weather use case)
//	BenchmarkWebIndex           — §6.4 (web indexing use case)
//	BenchmarkMicroSort          — §6.5 (parallel sort)
//	BenchmarkMicroGNUParallel   — §6.5 (GNU parallel comparison)
//
// Run with: go test -bench=. -benchmem
// Larger inputs: go test -bench=. -pash.scale=8

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/annot"
	"repro/internal/baseline"
	"repro/internal/benchscripts"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/workload"
)

func stdioFor(in io.Reader, out io.Writer) runtime.StdIO {
	return runtime.StdIO{Stdin: in, Stdout: out}
}

var benchScale = flag.Int("pash.scale", 2, "workload scale for paper benchmarks")

func prepare(b *testing.B, bench benchscripts.Bench, scale int) *benchscripts.Prepared {
	b.Helper()
	dir, err := os.MkdirTemp("", "pashbench-*")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	p, err := benchscripts.Prepare(bench, dir, scale)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkTable1Study recomputes the parallelizability study.
func BenchmarkTable1Study(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := annot.Table1()
		if len(rows) != 4 {
			b.Fatal("study malformed")
		}
	}
	cu := annot.CoreutilsStudy()
	b.ReportMetric(float64(cu.Count(annot.Stateless)), "coreutils-S")
	b.ReportMetric(float64(cu.Count(annot.Pure)), "coreutils-P")
}

// BenchmarkTable2Compile measures region compilation across the Tab. 2
// corpus at width 16 (the paper reports 0.03-0.33s; in-process
// compilation is far cheaper).
func BenchmarkTable2Compile(b *testing.B) {
	var preps []*benchscripts.Prepared
	for _, bench := range benchscripts.OneLiners() {
		preps = append(preps, prepare(b, bench, 1))
	}
	b.ResetTimer()
	totalNodes := 0
	for i := 0; i < b.N; i++ {
		totalNodes = 0
		for _, p := range preps {
			n, _, err := p.CompileStats(core.DefaultOptions(16))
			if err != nil {
				b.Fatal(err)
			}
			totalNodes += n
		}
	}
	b.ReportMetric(float64(totalNodes), "nodes@16x")
}

// fig7Bench runs one benchmark/config pair across the width sweep and
// reports the peak projected speedup.
func fig7Bench(b *testing.B, name string, opts func(int) core.Options) {
	bench, ok := benchscripts.FindOneLiner(name)
	if !ok {
		b.Fatalf("unknown benchmark %s", name)
	}
	p := prepare(b, bench, *benchScale)
	b.ResetTimer()
	best := 0.0
	for i := 0; i < b.N; i++ {
		for _, w := range []int{2, 8, 16} {
			sp, _, _, err := benchscripts.Speedup(p, opts(w))
			if err != nil {
				b.Fatal(err)
			}
			if sp > best {
				best = sp
			}
		}
	}
	b.ReportMetric(best, "peak-speedup")
}

// BenchmarkFig7OneLiners covers the Fig. 7 grid: every Tab. 2 script
// under the "Par + Split" preset (sub-benchmarks), plus the ablation
// presets on the sort script. (The split strategies themselves are
// compared by internal/runtime's BenchmarkSplitStrategies.)
func BenchmarkFig7OneLiners(b *testing.B) {
	for _, bench := range benchscripts.OneLiners() {
		b.Run(bench.Name, func(b *testing.B) {
			fig7Bench(b, bench.Name, core.DefaultOptions)
		})
	}
	for _, p := range []core.Preset{core.NoEager, core.BlockingEager, core.Parallel} {
		b.Run("sort-"+p.String(), func(b *testing.B) {
			fig7Bench(b, "sort", func(w int) core.Options { return core.Options{Width: w, Preset: p} })
		})
	}
}

// BenchmarkFig8Unix50 runs the Unix50 corpus at width 16 and reports the
// average projected speedup (paper: 5.49x average).
func BenchmarkFig8Unix50(b *testing.B) {
	var preps []*benchscripts.Prepared
	for _, bench := range benchscripts.Unix50() {
		preps = append(preps, prepare(b, bench, *benchScale))
	}
	b.ResetTimer()
	avg := 0.0
	for i := 0; i < b.N; i++ {
		sum := 0.0
		for _, p := range preps {
			sp, _, _, err := benchscripts.Speedup(p, core.DefaultOptions(16))
			if err != nil {
				b.Fatal(err)
			}
			sum += sp
		}
		avg = sum / float64(len(preps))
	}
	b.ReportMetric(avg, "avg-speedup@16x")
}

// BenchmarkNOAA runs the §6.3 weather pipeline at widths 2 and 10
// (paper: 1.86x / 2.44x end-to-end).
func BenchmarkNOAA(b *testing.B) {
	p := prepare(b, benchscripts.NOAA(), *benchScale)
	b.ResetTimer()
	var sp2, sp10 float64
	for i := 0; i < b.N; i++ {
		var err error
		sp2, _, _, err = benchscripts.Speedup(p, core.DefaultOptions(2))
		if err != nil {
			b.Fatal(err)
		}
		sp10, _, _, err = benchscripts.Speedup(p, core.DefaultOptions(10))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sp2, "speedup@2x")
	b.ReportMetric(sp10, "speedup@10x")
}

// BenchmarkWebIndex runs the §6.4 indexing pipeline at widths 2 and 16
// (paper: 1.97x / 12.7x).
func BenchmarkWebIndex(b *testing.B) {
	p := prepare(b, benchscripts.WebIndex(), *benchScale)
	b.ResetTimer()
	var sp2, sp16 float64
	for i := 0; i < b.N; i++ {
		var err error
		sp2, _, _, err = benchscripts.Speedup(p, core.DefaultOptions(2))
		if err != nil {
			b.Fatal(err)
		}
		sp16, _, _, err = benchscripts.Speedup(p, core.DefaultOptions(16))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sp2, "speedup@2x")
	b.ReportMetric(sp16, "speedup@16x")
}

// BenchmarkMicroSort is the §6.5 parallel-sort micro-benchmark: PaSh
// with eager buffers vs without (the sort --parallel analog).
func BenchmarkMicroSort(b *testing.B) {
	dir, err := os.MkdirTemp("", "pashsort-*")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	if err := workload.TextFile(dir+"/in.txt", 30000**benchScale, 7); err != nil {
		b.Fatal(err)
	}
	p := &benchscripts.Prepared{
		Bench:  benchscripts.Bench{Name: "sort-micro"},
		Dir:    dir,
		Script: "cat in.txt | sort",
	}
	b.ResetTimer()
	var eager, noEager float64
	for i := 0; i < b.N; i++ {
		var err error
		eager, _, _, err = benchscripts.Speedup(p, core.DefaultOptions(16))
		if err != nil {
			b.Fatal(err)
		}
		noEager, _, _, err = benchscripts.Speedup(p, core.Options{Width: 16, Preset: core.SplitNoEager})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(eager, "speedup-eager@16x")
	b.ReportMetric(noEager, "speedup-noeager@16x")
}

// BenchmarkAggTree sweeps width for a sort comparing the flat n-ary
// aggregate (AggFanIn: -1) against fan-in-4 aggregation trees (the
// automatic default at width >= 8), reporting projected speedups on the
// simulated 64-core machine. The flat merge is a single sequential node
// whose work grows with width; the tree's leaves merge in parallel, so
// tree > flat from width 16 on. No preset forces the flat aggregate at
// these widths, so the graphs are planned with dfg.Apply directly.
func BenchmarkAggTree(b *testing.B) {
	dir, err := os.MkdirTemp("", "pashaggtree-*")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	if err := workload.TextFile(dir+"/in.txt", 60000**benchScale, 7); err != nil {
		b.Fatal(err)
	}
	c := core.NewCompiler(core.DefaultOptions(1))
	project := func(width, fanIn int) time.Duration {
		g, err := c.CompilePipeline([]core.Stage{{Name: "cat", Args: []string{"in.txt"}}, {Name: "sort"}}, core.RegionIO{})
		if err != nil {
			b.Fatal(err)
		}
		dfg.Apply(g, dfg.Options{Width: width, Split: true, Eager: true, AggFanIn: fanIn})
		res, err := runtime.Profile(context.Background(), g, c.Cmds, runtime.StdIO{}, runtime.Config{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		return sim.Makespan(g, res.NodeTimes, sim.Config{Cores: benchscripts.SimCores, PerNodeOverhead: 200 * time.Microsecond})
	}
	widths := []int{8, 16, 32}
	speedups := map[string]float64{}
	for i := 0; i < b.N; i++ {
		seq := float64(project(1, 0))
		for _, w := range widths {
			speedups[fmt.Sprintf("flat@%dx", w)] = seq / float64(project(w, -1))
			speedups[fmt.Sprintf("tree@%dx", w)] = seq / float64(project(w, 0))
		}
	}
	for _, w := range widths {
		b.ReportMetric(speedups[fmt.Sprintf("flat@%dx", w)], fmt.Sprintf("flat@%dx", w))
		b.ReportMetric(speedups[fmt.Sprintf("tree@%dx", w)], fmt.Sprintf("tree@%dx", w))
	}
}

// BenchmarkMicroGNUParallel is the §6.5 GNU parallel comparison: the
// naive block-parallelizer's output divergence (paper: 92%).
func BenchmarkMicroGNUParallel(b *testing.B) {
	input := workload.Text(10000**benchScale, 99)
	script := `tr A-Z a-z | grep -E '(the|of|and).*(water|people)' | sort | uniq -c | sort -rn`
	seqSession := core.NewCompiler(core.Options{Width: 1})
	var seqOut strings.Builder
	if _, err := core.Run(context.Background(), seqSession, script, "", nil,
		stdioFor(strings.NewReader(input), &seqOut)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var div float64
	for i := 0; i < b.N; i++ {
		naive, err := baseline.NaiveParallel(context.Background(), script, input, "", nil, 8)
		if err != nil {
			b.Fatal(err)
		}
		div = baseline.Divergence(seqOut.String(), naive)
	}
	b.ReportMetric(100*div, "naive-divergence-%")
	if div == 0 {
		b.Fatal("naive parallelization unexpectedly produced correct output")
	}
}
