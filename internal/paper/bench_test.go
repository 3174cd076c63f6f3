package paper

// One testing.B benchmark per table and figure of the paper's evaluation
// (§6). Each calls the artifact function pash-bench prints and reports
// the paper's metric as a custom unit; every speedup is projected.
//
//	BenchmarkTable1Study        — Tab. 1 (study recomputation)
//	BenchmarkTable2Compile      — Tab. 2 (node counts, compile time)
//	BenchmarkFig7OneLiners      — Fig. 7 (speedup per preset and width)
//	BenchmarkFig8Unix50         — Fig. 8 (Unix50 at 16x)
//	BenchmarkNOAA               — §6.3 (weather use case)
//	BenchmarkWebIndex           — §6.4 (web indexing use case)
//	BenchmarkMicroSort          — §6.5 (parallel sort)
//	BenchmarkMicroGNUParallel   — §6.5 (GNU parallel comparison)
//
// Run with: go test -run xxx -bench . -benchtime 1x ./internal/paper/
// Larger inputs: add -pash.scale=8

import (
	"context"
	"flag"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/annot"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/runtime"
)

var benchScale = flag.Int("pash.scale", 2, "workload scale for paper benchmarks")

// BenchmarkTable1Study recomputes the parallelizability study.
func BenchmarkTable1Study(b *testing.B) {
	var rows []Table1Row
	for i := 0; i < b.N; i++ {
		rows = Table1()
	}
	for _, r := range rows {
		if r.Class == annot.Stateless || r.Class == annot.Pure {
			b.ReportMetric(float64(r.Coreutils), "coreutils-"+r.Class.String())
		}
	}
}

// BenchmarkTable2Compile recomputes Tab. 2 over the one-liners at
// scale 1 (the paper reports 0.03-0.33s of compile time; in-process
// planning is far cheaper).
func BenchmarkTable2Compile(b *testing.B) {
	var nodes int
	var compile time.Duration
	for i := 0; i < b.N; i++ {
		rows, err := Table2(1)
		if err != nil {
			b.Fatal(err)
		}
		nodes, compile = 0, 0
		for _, r := range rows {
			nodes += r.Nodes16
			compile += r.Compile16
		}
	}
	b.ReportMetric(float64(nodes), "nodes@16x")
	b.ReportMetric(float64(compile.Microseconds()), "compile-µs@16x")
}

// BenchmarkFig7OneLiners covers the Fig. 7 grid: one sub-benchmark per
// one-liner, reporting each preset's peak projected speedup over widths
// 2, 8 and 16. (The split strategies themselves are compared by
// internal/runtime's BenchmarkSplitStrategies.)
func BenchmarkFig7OneLiners(b *testing.B) {
	for _, bench := range OneLiners() {
		b.Run(bench.Name, func(b *testing.B) {
			var rows []Fig7Row
			for i := 0; i < b.N; i++ {
				var err error
				if rows, err = Fig7(*benchScale, []int{2, 8, 16}, bench.Name); err != nil {
					b.Fatal(err)
				}
			}
			for _, r := range rows {
				b.ReportMetric(max(r.Projected[0], r.Projected[1], r.Projected[2]), "projected-peak-"+r.Preset.String())
			}
		})
	}
}

// BenchmarkFig8Unix50 runs the Unix50 corpus at width 16 (paper: 5.49x
// average).
func BenchmarkFig8Unix50(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		var err error
		if _, mean, err = Fig8(*benchScale); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mean, "projected-avg@16x")
}

func benchUseCase(b *testing.B, name string) {
	var res *UseCaseResult
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = UseCase(name, *benchScale); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res.Rows {
		b.ReportMetric(r.Speedup, fmt.Sprintf("projected@%dx", r.Width))
	}
}

// BenchmarkNOAA runs the §6.3 weather pipeline (paper: 1.86x / 2.44x
// end-to-end at widths 2 and 10).
func BenchmarkNOAA(b *testing.B) { benchUseCase(b, "noaa") }

// BenchmarkWebIndex runs the §6.4 indexing pipeline (paper: 1.97x /
// 12.7x at widths 2 and 16).
func BenchmarkWebIndex(b *testing.B) { benchUseCase(b, "wikipedia") }

// BenchmarkMicroSort is the §6.5 parallel-sort micro-benchmark: PaSh
// with eager relays against without (the sort --parallel analog).
func BenchmarkMicroSort(b *testing.B) {
	var rows []SortRow
	for i := 0; i < b.N; i++ {
		var matches bool
		var err error
		if rows, matches, err = SortMicro(*benchScale); err != nil {
			b.Fatal(err)
		}
		if !matches {
			b.Fatal("sort --parallel output differs from sort")
		}
	}
	// SortWidths[2] is 16; the rows are eager, then no eager.
	b.ReportMetric(rows[0].Projected[2], "projected-eager@16x")
	b.ReportMetric(rows[1].Projected[2], "projected-noeager@16x")
}

// BenchmarkMicroGNUParallel is the §6.5 GNU parallel comparison: the
// naive block parallelizer's output divergence (paper: 92%).
func BenchmarkMicroGNUParallel(b *testing.B) {
	var res GNUParallelResult
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = GNUParallel(*benchScale); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.Divergence, "naive-divergence-%")
	if !res.PashMatches || res.NaiveMatches {
		b.Fatalf("pash matches sequential: %v, naive matches sequential: %v; want true, false", res.PashMatches, res.NaiveMatches)
	}
}

// BenchmarkAggTree sweeps width for a sort comparing the flat n-ary
// aggregate (AggFanIn: -1) against fan-in-4 aggregation trees (the
// automatic default at width >= 8), reporting projected speedups on the
// simulated machine. The flat merge is a single sequential node whose
// work grows with width; the tree's leaves merge in parallel, so tree >
// flat from width 16 on. No preset forces the flat aggregate at these
// widths, so the graphs are planned with dfg.Apply directly.
func BenchmarkAggTree(b *testing.B) {
	dir := b.TempDir()
	if err := textFile(filepath.Join(dir, "in.txt"), 60000**benchScale, 7); err != nil {
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
		return makespan(g, res.NodeTimes, SimCores, nodeOverhead)
	}
	widths := []int{8, 16, 32}
	speedups := map[string]float64{}
	for i := 0; i < b.N; i++ {
		seq := float64(project(1, 0))
		for _, w := range widths {
			speedups[fmt.Sprintf("projected-flat@%dx", w)] = seq / float64(project(w, -1))
			speedups[fmt.Sprintf("projected-tree@%dx", w)] = seq / float64(project(w, 0))
		}
	}
	for name, sp := range speedups {
		b.ReportMetric(sp, name)
	}
}
