// Package core is PaSh's compiler: it finds parallelizable regions in a
// POSIX shell script (§5.1), lifts them to the dataflow-graph model,
// applies the parallelization transformations (§4.2), and either executes
// the result on the in-process runtime or emits an explicit parallel
// POSIX script (§5.2, Fig. 3).
package core

import (
	"repro/internal/agg"
	"repro/internal/annot"
	"repro/internal/commands"
	"repro/internal/dfg"
	"repro/internal/runtime"
)

// Options selects the degree of parallelism and which runtime primitives
// are in play — the knobs behind the configurations of Fig. 7.
type Options struct {
	// Width is the parallelism factor (1 disables parallelization).
	Width int
	// PlanWidth makes Width a ceiling: each region's width is planned at
	// run time from what is known about its input — the bytes the planner
	// can state, else the region's measured history, else the ceiling
	// (Compiler.regionWidth). The zero value is the paper's exact
	// configurations, where every region is planned at Width: the tests
	// and the artifact tool (Fig. 7-8) need the width they ask for. The
	// pash and pash-serve binaries always set it; it has no flag.
	PlanWidth bool
	// Split enables split insertion (t2).
	Split bool
	// InputAwareSplit plans the file-range split for seekable graph-input
	// files (Par + B.Split in Fig. 7).
	InputAwareSplit bool
	// SplitMode selects among the three split strategies (barrier,
	// input-aware, streaming round-robin); the zero value (SplitAuto)
	// streams wherever that is sound. See dfg.SplitMode.
	SplitMode dfg.SplitMode
	// Eager selects edge eagerness (§5.2 Overcoming Laziness).
	Eager dfg.EagerMode
	// BlockingEagerBytes bounds eager buffers (Blocking Eager config);
	// 0 = unbounded eager buffers.
	BlockingEagerBytes int
	// DisableFusion turns off the stage-fusion pass that collapses
	// chains of kernel-capable stateless commands into single fused
	// nodes (dfg.KindFused). Fusion is on by default for in-process
	// execution; emission always disables it (fused nodes have no shell
	// rendering).
	DisableFusion bool
	// AggFanIn shapes the aggregation stage of parallelized pure
	// commands: 0 = automatic (fan-in-4 trees for associative
	// aggregators once width >= 8), negative = always flat, k >= 2 =
	// fan-in-k trees. See dfg.Options.AggFanIn.
	AggFanIn int
	// MeasureMode runs regions through the profiling executor (nodes
	// sequential, unbounded buffers) to collect clean per-node works
	// for the multicore scheduling simulator. Output is identical.
	MeasureMode bool
}

// DefaultOptions is the configuration the paper calls "Par + Split".
func DefaultOptions(width int) Options {
	return Options{
		Width: width,
		Split: true,
		Eager: dfg.EagerFull,
	}
}

// Compiler holds the registries the compilation pipeline consults plus
// the shared control-plane state: the plan cache and, optionally, the
// machine-wide scheduler. A Compiler value is treated as an immutable
// snapshot during a run — mutators (the pash session layer) replace
// registries copy-on-write and swap in a fresh struct rather than
// mutating one a concurrent run may be reading.
type Compiler struct {
	Annot *annot.Registry
	Cmds  *commands.Registry
	Opts  Options

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

// NewCompiler builds a compiler over the standard annotation and command
// registries with the given options and a default-sized plan cache.
func NewCompiler(opts Options) *Compiler {
	reg := commands.NewStd()
	agg.Install(reg)
	return &Compiler{
		Annot: annot.StdRegistry(),
		Cmds:  reg,
		Opts:  opts,
		Plans: NewPlanCache(0),
	}
}

func (c *Compiler) dfgOptions() dfg.Options {
	return dfg.Options{
		Width:              c.Opts.Width,
		Split:              c.Opts.Split,
		InputAwareSplit:    c.Opts.InputAwareSplit,
		SplitMode:          c.Opts.SplitMode,
		Eager:              c.Opts.Eager,
		BlockingEagerBytes: c.Opts.BlockingEagerBytes,
		KernelCapable:      c.Cmds.KernelCapable,
		DisableFusion:      c.Opts.DisableFusion,
		AggFanIn:           c.Opts.AggFanIn,
	}
}
