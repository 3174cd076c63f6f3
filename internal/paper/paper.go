// Package paper reproduces the evaluation of the PaSh paper (§6): its
// benchmark corpus, the seeded inputs standing in for the paper's data,
// the two §6.5 baselines, the multicore scheduling simulator and the
// §3.1 parallelizability study. Each artifact is one function that
// returns rows — Table1, Table2, Fig7, Fig8, UseCase, SortMicro and
// GNUParallel — which cmd/pash-bench prints and this package's
// benchmarks report.
//
// Speedups are projections: per-node works measured by a profiling run
// on this host (core.Interp.Measure), replayed on a simulated SimCores
// machine. Every row says which of its numbers are projected and which
// are measured wall time. Measured performance of the system as a whole
// is the business of the repository benchmark in bench/.
package paper

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/runtime"
)

// prepared is a benchmark with its input materialized in dir.
type prepared struct {
	name   string
	dir    string
	script string
	vars   map[string]string

	seq *result // the measuring sequential run speedup compares against
}

// prepare generates the benchmark's input under dir.
func prepare(b Bench, dir string, scale int) (*prepared, error) {
	script, err := b.Setup(dir, max(scale, 1))
	if err != nil {
		return nil, fmt.Errorf("paper: setup %s: %w", b.Name, err)
	}
	p := &prepared{name: b.Name, dir: dir, script: script}
	if b.Vars != nil {
		p.vars = b.Vars(dir)
	}
	return p, nil
}

// withPrepared prepares b in a fresh temporary directory, hands it to
// fn, and removes the directory.
func withPrepared(b Bench, scale int, fn func(p *prepared) error) error {
	dir, err := os.MkdirTemp("", "pash-paper-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	p, err := prepare(b, dir, scale)
	if err != nil {
		return err
	}
	return fn(p)
}

// result is one execution of a prepared benchmark.
type result struct {
	output []byte
	code   int
	// wall is the measured wall time of the script (input generation
	// excluded).
	wall time.Duration
	// projected is the wall time the simulator projects for a measuring
	// run on SimCores cores; zero otherwise.
	projected time.Duration
}

// execute runs the prepared script under opts. measure makes it a
// measuring run: nodes go through the profiling executor and the run is
// projected onto the simulated machine.
func (p *prepared) execute(opts core.Options, measure bool) (*result, error) {
	var out bytes.Buffer
	in := core.NewInterp(core.NewCompiler(opts), p.dir, p.vars, runtime.StdIO{
		Stdin:  strings.NewReader(""),
		Stdout: &out,
	})
	if measure {
		in.Measure()
	}
	start := time.Now()
	code, err := in.RunScript(context.Background(), p.script)
	wall := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("paper: %s (width %d): %w", p.name, opts.Width, err)
	}
	return &result{output: out.Bytes(), code: code, wall: wall, projected: Project(in.Profiles, SimCores)}, nil
}

// speedup is the paper's headline metric for one configuration: the
// projected time of a measured sequential run over that of a measured
// run under opts, on the same simulated machine. The sequential run is
// measured once per prepared benchmark; the two outputs must be equal.
func (p *prepared) speedup(opts core.Options) (float64, *result, error) {
	if p.seq == nil {
		seq, err := p.execute(core.Options{Width: 1, Preset: core.NoEager}, true)
		if err != nil {
			return 0, nil, err
		}
		p.seq = seq
	}
	par, err := p.execute(opts, true)
	if err != nil {
		return 0, nil, err
	}
	if !bytes.Equal(par.output, p.seq.output) {
		return 0, nil, fmt.Errorf("paper: %s width %d: parallel output diverged from sequential", p.name, opts.Width)
	}
	if par.projected <= 0 {
		return 1, par, nil
	}
	return float64(p.seq.projected) / float64(par.projected), par, nil
}

// compileStats plans (but does not run) every region of the script
// under opts and returns the total node count and the planning time —
// Tab. 2's "#Nodes" and "Compile Time" columns.
func (p *prepared) compileStats(opts core.Options) (nodes int, elapsed time.Duration, err error) {
	c := core.NewCompiler(opts)
	start := time.Now()
	plan, err := c.Plan(p.script)
	if err != nil {
		return 0, 0, err
	}
	elapsed = time.Since(start)
	for _, item := range plan.Items {
		if item.Graph != nil {
			nodes += len(item.Graph.Nodes)
		}
	}
	return nodes, elapsed, nil
}
