package paper

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
)

// This file holds one function per artifact of §6. Each returns rows;
// cmd/pash-bench prints them and bench_test.go reports them.

// Table2Row is one one-liner's row of Tab. 2.
type Table2Row struct {
	Script, Structure string
	// InputBytes is what the script's directory holds after a run.
	InputBytes int64
	// SeqWall is the measured wall time of a sequential run.
	SeqWall time.Duration
	// Nodes16/64 count the planned nodes at widths 16 and 64, and
	// Compile16/64 are the measured planning times.
	Nodes16, Nodes64     int
	Compile16, Compile64 time.Duration
}

// Table2 recomputes Tab. 2 over the one-liners.
func Table2(scale int) ([]Table2Row, error) {
	var rows []Table2Row
	for _, b := range OneLiners() {
		err := withPrepared(b, scale, func(p *prepared) error {
			seq, err := p.execute(core.Options{Width: 1, Preset: core.NoEager}, false)
			if err != nil {
				return err
			}
			r := Table2Row{Script: b.Name, Structure: b.Structure, InputBytes: dirSize(p.dir), SeqWall: seq.wall}
			if r.Nodes16, r.Compile16, err = p.compileStats(core.DefaultOptions(16)); err != nil {
				return err
			}
			r.Nodes64, r.Compile64, err = p.compileStats(core.DefaultOptions(64))
			rows = append(rows, r)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

func dirSize(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

// Fig7Row is one line of Fig. 7: a one-liner under one preset.
type Fig7Row struct {
	Script string
	Preset core.Preset
	// Projected is the projected speedup at each width of the sweep.
	Projected []float64
}

// fig7Presets are the five lines of Fig. 7.
var fig7Presets = []core.Preset{core.ParSplit, core.ParBSplit, core.Parallel, core.BlockingEager, core.NoEager}

// Fig7 sweeps widths over the one-liners (only the one named only, if
// set) under every Fig. 7 preset. Over the whole corpus a last AVERAGE
// row averages the Par + Split rows.
func Fig7(scale int, widths []int, only string) ([]Fig7Row, error) {
	var rows []Fig7Row
	for _, b := range OneLiners() {
		if only != "" && b.Name != only {
			continue
		}
		err := withPrepared(b, scale, func(p *prepared) error {
			for _, preset := range fig7Presets {
				r := Fig7Row{Script: b.Name, Preset: preset}
				for _, w := range widths {
					sp, _, err := p.speedup(core.Options{Width: w, Preset: preset})
					if err != nil {
						return err
					}
					r.Projected = append(r.Projected, sp)
				}
				rows = append(rows, r)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("paper: no one-liner named %q", only)
	}
	if only == "" {
		avg := Fig7Row{Script: "AVERAGE", Preset: core.ParSplit, Projected: make([]float64, len(widths))}
		scripts := float64(len(rows) / len(fig7Presets))
		for _, r := range rows {
			if r.Preset != core.ParSplit {
				continue
			}
			for i, sp := range r.Projected {
				avg.Projected[i] += sp / scripts
			}
		}
		rows = append(rows, avg)
	}
	return rows, nil
}

// Fig8Row is one Unix50 pipeline of Fig. 8.
type Fig8Row struct {
	Pipeline, Structure string
	// SeqProjected is the projected time of the sequential run, and
	// Projected the projected speedup at width 16.
	SeqProjected time.Duration
	Projected    float64
}

// Fig8 runs the Unix50 pipelines at width 16 and returns them with their
// mean projected speedup.
func Fig8(scale int) ([]Fig8Row, float64, error) {
	var rows []Fig8Row
	mean := 0.0
	benches := Unix50()
	for _, b := range benches {
		err := withPrepared(b, scale, func(p *prepared) error {
			sp, _, err := p.speedup(core.DefaultOptions(16))
			if err != nil {
				return err
			}
			rows = append(rows, Fig8Row{Pipeline: b.Name, Structure: b.Structure, SeqProjected: p.seq.projected, Projected: sp})
			mean += sp / float64(len(benches))
			return nil
		})
		if err != nil {
			return nil, 0, err
		}
	}
	return rows, mean, nil
}

// UseCaseRow is one width of a use case.
type UseCaseRow struct {
	Width int
	// Projected is the run's projected time and Speedup its projected
	// speedup.
	Projected time.Duration
	Speedup   float64
}

// UseCaseResult is a §6.3/§6.4 use case: its sequential run, measured
// and projected, and one row per width.
type UseCaseResult struct {
	Name                  string
	SeqWall, SeqProjected time.Duration
	Rows                  []UseCaseRow
}

// useCases names the use cases and the widths the paper reports.
var useCases = map[string]struct {
	Bench  func() Bench
	Widths []int
}{
	"noaa":      {NOAA, []int{2, 10, 16}},
	"wikipedia": {WebIndex, []int{2, 16}},
}

// UseCase runs the named use case ("noaa" for §6.3, "wikipedia" for §6.4).
func UseCase(name string, scale int) (*UseCaseResult, error) {
	uc, ok := useCases[name]
	if !ok {
		return nil, fmt.Errorf("paper: unknown use case %q", name)
	}
	b := uc.Bench()
	res := &UseCaseResult{Name: b.Name}
	err := withPrepared(b, scale, func(p *prepared) error {
		for _, w := range uc.Widths {
			sp, par, err := p.speedup(core.DefaultOptions(w))
			if err != nil {
				return err
			}
			res.Rows = append(res.Rows, UseCaseRow{Width: w, Projected: par.projected, Speedup: sp})
		}
		res.SeqWall, res.SeqProjected = p.seq.wall, p.seq.projected
		return nil
	})
	return res, err
}

// SortRow is one line of the §6.5 sort micro-benchmark.
type SortRow struct {
	Config string
	// Projected is the projected speedup at each of SortWidths.
	Projected []float64
}

// SortWidths is the width sweep of the sort micro-benchmark.
var SortWidths = []int{4, 8, 16, 32, 64}

// SortMicro compares PaSh's parallel sort with and without eager
// relays (§6.5), and checks the command-internal baseline: the second
// result reports whether `sort --parallel=8` printed what sort printed.
func SortMicro(scale int) ([]SortRow, bool, error) {
	var rows []SortRow
	matches := false
	b := Bench{Name: "sort-micro", Setup: func(dir string, scale int) (string, error) {
		return "cat in.txt | sort", textFile(filepath.Join(dir, "in.txt"), 30000*scale, 7)
	}}
	err := withPrepared(b, scale, func(p *prepared) error {
		for _, cfg := range []struct {
			name   string
			preset core.Preset
		}{{"pash (eager)", core.ParSplit}, {"pash (no eager)", core.SplitNoEager}} {
			r := SortRow{Config: cfg.name}
			for _, w := range SortWidths {
				sp, _, err := p.speedup(core.Options{Width: w, Preset: cfg.preset})
				if err != nil {
					return err
				}
				r.Projected = append(r.Projected, sp)
			}
			rows = append(rows, r)
		}
		input, err := os.ReadFile(filepath.Join(p.dir, "in.txt"))
		if err != nil {
			return err
		}
		seq, err := parallelSort(string(input), 1)
		if err != nil {
			return err
		}
		par, err := parallelSort(string(input), 8)
		matches = par == seq
		return err
	})
	return rows, matches, err
}

// GNUParallelResult is the §6.5 GNU parallel comparison: PaSh is
// correct, blind block parallelism is fast but wrong.
type GNUParallelResult struct {
	PashMatches, NaiveMatches bool
	// Divergence is the fraction of the naive output's lines that differ
	// from the sequential output (paper: 0.92).
	Divergence float64
}

// GNUParallel runs a bio-like pipeline where one command dominates
// (harsh for PaSh) sequentially, through PaSh at width 8, and through
// the naive block parallelizer at width 8.
func GNUParallel(scale int) (GNUParallelResult, error) {
	ctx := context.Background()
	input := Text(20000*max(scale, 1), 99)
	script := `tr A-Z a-z | grep -E '(the|of|and).*(water|people)' | sort | uniq -c | sort -rn`
	seq, err := runScript(ctx, core.Options{Width: 1, Preset: core.NoEager}, script, input, "")
	if err != nil {
		return GNUParallelResult{}, err
	}
	par, err := runScript(ctx, core.DefaultOptions(8), script, input, "")
	if err != nil {
		return GNUParallelResult{}, err
	}
	naive, err := naiveParallel(ctx, script, input, "", 8)
	return GNUParallelResult{PashMatches: par == seq, NaiveMatches: naive == seq, Divergence: divergence(seq, naive)}, err
}
