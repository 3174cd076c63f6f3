// Package core is PaSh's compiler: it finds parallelizable regions in a
// POSIX shell script (§5.1), lifts them to the dataflow-graph model,
// applies the parallelization transformations (§4.2), and either executes
// the result on the in-process runtime or emits an explicit parallel
// POSIX script (§5.2, Fig. 3).
package core

import (
	"repro/internal/agg"
	"repro/internal/commands"
	"repro/internal/dfg"
	"repro/internal/runtime"
)

// Options selects the degree of parallelism and the planner configuration.
type Options struct {
	// Width is the parallelism factor (1 disables parallelization). Under
	// the Planned preset it is a ceiling.
	Width int
	// Preset names the planner configuration; the zero value is Par + Split.
	Preset Preset
	// DisableFusion turns off the stage-fusion pass that collapses
	// chains of kernel-capable stateless commands into single fused
	// nodes (dfg.KindFused). Fusion is on by default for in-process
	// execution; emission always disables it (fused nodes have no shell
	// rendering).
	DisableFusion bool
}

// Preset is one whole planner configuration: a line of Fig. 7, the split
// without eager of the §6.5 sort micro-benchmark, or Planned, which the
// pash and pash-serve binaries run.
type Preset uint8

// The presets. Every one but Planned plans each region at exactly Width,
// which the tests and the artifact tool (Fig. 7-8) need.
const (
	// ParSplit is Par + Split: t2 splits and unbounded eager relays.
	ParSplit Preset = iota
	// ParBSplit is Par + B.Split: a seekable input file splits by range.
	ParBSplit
	// Parallel inserts no splits.
	Parallel
	// BlockingEager inserts no splits and bounds each eager relay at 1 MiB.
	BlockingEager
	// NoEager inserts no splits and no eager relays.
	NoEager
	// SplitNoEager inserts splits but no eager relays.
	SplitNoEager
	// Planned is Par + Split with Width a ceiling: each region's width is
	// planned at run time from what is known about its input — the bytes
	// the planner can state, else the region's measured history, else the
	// ceiling (Compiler.regionWidth).
	Planned
)

// presets is what each preset sets: the transformation options it hands
// dfg.Apply and whether Width is a ceiling.
var presets = [...]struct {
	name      string
	dfg       dfg.Options
	planWidth bool
}{
	ParSplit:      {"par+split", dfg.Options{Split: true, Eager: true}, false},
	ParBSplit:     {"par+bsplit", dfg.Options{Split: true, InputAwareSplit: true, Eager: true}, false},
	Parallel:      {"parallel", dfg.Options{Eager: true}, false},
	BlockingEager: {"blocking-eager", dfg.Options{Eager: true, EagerBytes: 1 << 20}, false},
	NoEager:       {"no-eager", dfg.Options{}, false},
	SplitNoEager:  {"split-no-eager", dfg.Options{Split: true}, false},
	Planned:       {"planned", dfg.Options{Split: true, Eager: true}, true},
}

func (p Preset) String() string { return presets[p].name }

// DefaultOptions is the configuration the paper calls "Par + Split".
func DefaultOptions(width int) Options { return Options{Width: width} }

// Compiler holds the command registry the compilation pipeline consults
// (implementations, kernels, aggregator pairs and annotation records,
// one entry per name) plus the shared control-plane state: the plan
// cache and, optionally, the machine-wide scheduler. A Compiler value is
// treated as an immutable snapshot during a run — mutators (the pash
// session layer) replace the registry copy-on-write and swap in a fresh
// struct rather than mutating one a concurrent run may be reading.
type Compiler struct {
	Cmds *commands.Registry
	Opts Options

	// Plans caches planned+optimized region templates keyed by the
	// canonical region fingerprint and planning options; nil disables
	// caching (every region compiles cold).
	Plans *PlanCache

	// Sched, when set, chooses each region's effective width from the
	// shared worker-token pool at instantiation time instead of
	// unconditionally claiming Opts.Width replicas.
	Sched *runtime.Scheduler

	// Workers, when set, stretches the data plane across machines:
	// planned regions are partitioned (dfg.Distribute) so stateless
	// chains execute on pool workers, and the plan cache key embeds the
	// pool fingerprint so membership changes re-plan by construction.
	Workers WorkerPool
}

// WorkerPool is the distributed data plane's attachment point: the
// compiler consults membership while planning, the plan cache keys on
// the fingerprint, and the runtime ships KindRemote nodes through the
// embedded executor. internal/dist.Pool is the implementation.
type WorkerPool interface {
	runtime.RemoteExecutor
	// WorkerNames lists the healthy workers in dispatch order.
	WorkerNames() []string
	// SharedFS reports whether workers can open the coordinator's files
	// by the same paths (enables file-range shards).
	SharedFS() bool
	// Fingerprint canonically identifies the current membership epoch.
	Fingerprint() string
}

// NewCompiler builds a compiler over the standard command registry with
// the given options and a default-sized plan cache.
func NewCompiler(opts Options) *Compiler {
	reg := commands.NewStd()
	agg.Install(reg)
	return &Compiler{
		Cmds:  reg,
		Opts:  opts,
		Plans: NewPlanCache(0),
	}
}

func (c *Compiler) dfgOptions() dfg.Options {
	o := presets[c.Opts.Preset].dfg
	o.Width = c.Opts.Width
	if !c.Opts.DisableFusion {
		o.KernelCapable = c.Cmds.KernelCapable
	}
	return o
}

// planWidth reports whether Width is a ceiling the planner sizes each
// region under.
func (c *Compiler) planWidth() bool { return presets[c.Opts.Preset].planWidth }
