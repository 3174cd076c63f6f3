package benchscripts

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// Prepared is a benchmark with its workload materialized on disk.
type Prepared struct {
	Bench  Bench
	Dir    string
	Script string
	Vars   map[string]string

	seq *RunResult // cached profiled sequential run
}

// Prepare generates the benchmark's input data under dir.
func Prepare(b Bench, dir string, scale int) (*Prepared, error) {
	if scale < 1 {
		scale = 1
	}
	script, err := b.Setup(dir, scale)
	if err != nil {
		return nil, fmt.Errorf("benchscripts: setup %s: %w", b.Name, err)
	}
	p := &Prepared{Bench: b, Dir: dir, Script: script}
	if b.Vars != nil {
		p.Vars = b.Vars(dir)
	}
	return p, nil
}

// RunResult is one timed execution.
type RunResult struct {
	Duration time.Duration
	Output   []byte
	// Hash fingerprints the output for cheap equality checks.
	Hash [32]byte
	// Stats carries the region/node statistics (Tab. 2's columns).
	Stats core.InterpStats
	Code  int
	// Profiles carries per-region graphs and measured node times for
	// the multicore projection.
	Profiles []core.RegionProfile
}

// Execute runs the prepared benchmark under the given options, timing
// the script execution (excluding data generation).
func (p *Prepared) Execute(opts core.Options) (*RunResult, error) {
	c := core.NewCompiler(opts)
	var out bytes.Buffer
	interp := core.NewInterp(c, p.Dir, p.Vars, runtime.StdIO{
		Stdin:  strings.NewReader(""),
		Stdout: &out,
		Stderr: io.Discard,
	})
	start := time.Now()
	code, err := interp.RunScript(context.Background(), p.Script)
	dur := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("benchscripts: %s (width %d): %w", p.Bench.Name, opts.Width, err)
	}
	return &RunResult{
		Duration: dur,
		Output:   out.Bytes(),
		Hash:     sha256.Sum256(out.Bytes()),
		Stats:    interp.Stats,
		Code:     code,
		Profiles: interp.Profiles,
	}, nil
}

// SimCores is the simulated machine width: the paper's testbed had 64
// physical cores.
const SimCores = 64

// SimTime projects the run's regions onto a multicore machine with the
// scheduling simulator and returns the total projected wall time. On
// multi-core hosts the real Duration can be used directly; on the
// single-core hosts this reproduction targets, SimTime supplies the
// multicore clock (see internal/sim).
func (r *RunResult) SimTime(cores int) time.Duration {
	var total time.Duration
	for _, p := range r.Profiles {
		total += sim.Makespan(p.Graph, p.Times, sim.Config{
			Cores:           cores,
			PerNodeOverhead: 200 * time.Microsecond,
		})
	}
	return total
}

// Speedup computes the paper's headline metric for a prepared benchmark
// at one width/configuration: projected sequential time over projected
// parallel time (both on the same simulated machine, driven by per-node
// works measured in profiling mode), alongside a correctness check. It
// returns the speedup and the two RunResults.
func Speedup(p *Prepared, opts core.Options) (float64, *RunResult, *RunResult, error) {
	seq, err := p.Sequential()
	if err != nil {
		return 0, nil, nil, err
	}
	sp, par, err := SpeedupFrom(p, seq, opts)
	return sp, seq, par, err
}

// Sequential returns the benchmark's profiled sequential run, cached so
// sweeps over widths and configurations measure it once.
func (p *Prepared) Sequential() (*RunResult, error) {
	if p.seq != nil {
		return p.seq, nil
	}
	seq, err := p.Execute(core.Options{Width: 1, Preset: core.NoEager, MeasureMode: true})
	if err != nil {
		return nil, err
	}
	p.seq = seq
	return seq, nil
}

// SpeedupFrom computes the projected speedup of one configuration
// against an already-measured sequential run.
func SpeedupFrom(p *Prepared, seq *RunResult, opts core.Options) (float64, *RunResult, error) {
	opts.MeasureMode = true
	par, err := p.Execute(opts)
	if err != nil {
		return 0, nil, err
	}
	if par.Hash != seq.Hash {
		return 0, nil, fmt.Errorf("benchscripts: %s width %d: parallel output diverged from sequential", p.Bench.Name, opts.Width)
	}
	st := seq.SimTime(SimCores)
	pt := par.SimTime(SimCores)
	if pt <= 0 {
		return 1, par, nil
	}
	return float64(st) / float64(pt), par, nil
}

// CompileStats compiles (but does not execute) every region of the
// benchmark at the given width, returning total node count and compile
// time — Tab. 2's "#Nodes" and "Compile Time" columns. Compilation is
// measured through the plan path on the concrete script.
func (p *Prepared) CompileStats(opts core.Options) (nodes int, elapsed time.Duration, err error) {
	c := core.NewCompiler(opts)
	start := time.Now()
	plan, err := c.Plan(p.Script)
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
