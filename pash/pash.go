// Package pash is the public API of the PaSh reproduction: a shell that
// parallelizes POSIX shell scripts through dataflow-graph transformations
// and UNIX-aware runtime primitives (EuroSys 2021).
//
// Typical use:
//
//	s := pash.NewSession(pash.DefaultOptions(8))
//	code, err := s.Run(ctx, "cat big.txt | grep needle | sort | uniq -c",
//	        os.Stdin, os.Stdout, os.Stderr)
//
// Options are a width and a preset, not a set of knobs. The zero preset
// is the paper's Par + Split at exactly that width (DefaultOptions);
// pash.Planned, what the pash and pash-serve binaries run, makes the
// width a ceiling and plans each region as wide as its input pays for.
// The other lines of Fig. 7 are presets the artifact tool picks.
//
// Long-running callers use the Job API instead of blocking Run: Start
// returns a handle with streaming stdio, cancellation, and live stats:
//
//	job, err := s.Start(ctx, script, pash.JobIO{Stdin: in, Stdout: out})
//	code, err := job.Wait()
//
// Command developers extend the system through the extension API
// (§3.2): a CommandSpec carries the implementation, an annotation
// record in the Appendix A language (class and I/O shape per option
// predicate), and the optional kernel and aggregator hooks that make a
// user command parallelize exactly like a builtin — round-robin splits,
// fused chains, fan-in aggregation trees:
//
//	s.Register(pash.CommandSpec{
//	        Name:       "mycmd",
//	        Run:        myImpl,
//	        Annotation: "mycmd { | _ => (S, [stdin], [stdout]) }",
//	        Kernel:     myKernelFactory,
//	})
package pash

import (
	"context"
	"io"
	"sync"

	"repro/internal/commands"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/runtime"
)

// Options selects the parallelism width and a planner preset: the zero
// Preset is the paper's Par + Split (Fig. 7), at exactly Width.
type Options = core.Options

// Plan is an ahead-of-time compiled script; Emit renders it as an
// explicit parallel POSIX script (Fig. 3).
type Plan = core.Plan

// Planned is the preset the pash and pash-serve binaries run: Par + Split
// with Width a ceiling, each region as wide as its input pays for.
const Planned = core.Planned

// DefaultOptions returns the paper's best configuration ("Par + Split")
// at the given width.
func DefaultOptions(width int) Options { return core.DefaultOptions(width) }

// SequentialOptions disables parallelization entirely.
func SequentialOptions() Options { return Options{Width: 1, Preset: core.NoEager} }

// Scheduler is the shared machine scheduler: script admission slots
// plus a width-token pool that concurrent executions draw from. Build
// one with NewScheduler and attach it to any number of sessions.
type Scheduler = runtime.Scheduler

// SchedulerStats re-exports the scheduler metrics snapshot.
type SchedulerStats = runtime.SchedulerStats

// PlanCacheStats re-exports the plan-cache metrics snapshot.
type PlanCacheStats = core.PlanCacheStats

// NewScheduler builds a shared scheduler; tokens <= 0 sizes the worker
// pool to the machine.
func NewScheduler(tokens int) *Scheduler { return runtime.NewScheduler(tokens) }

// Session holds a compiler configuration plus the execution environment.
// Sessions are safe for concurrent Run calls: each run takes an
// immutable snapshot of the compiler, and extension methods
// (Register, SetOptions, UseScheduler) replace the compiler copy-on-write
// instead of mutating state a running script may be reading. Dir and
// Vars are plain fields — set them before sharing the session.
type Session struct {
	mu       sync.RWMutex
	compiler *core.Compiler

	// Dir is the working directory for file access ("" = process cwd).
	Dir string
	// Vars seeds the shell variable environment (e.g. PASH_CURL_ROOT).
	Vars map[string]string

	// jobsMu/jobs track the session's running jobs (see job.go).
	jobsMu sync.Mutex
	jobs   map[int64]*Job
}

// NewSession builds a session with the standard command and annotation
// libraries.
func NewSession(opts Options) *Session {
	return &Session{compiler: core.NewCompiler(opts)}
}

// snapshot returns an immutable per-run view of the compiler: the
// struct is copied, so concurrent mutators swap a fresh one in rather
// than changing what this run sees. The plan cache and scheduler
// pointers are shared deliberately — they are the cross-run state.
func (s *Session) snapshot() *core.Compiler {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cc := *s.compiler
	return &cc
}

// mutate clones the compiler struct, applies fn, and swaps the result
// in. In-flight runs keep their snapshot; new runs see the update.
func (s *Session) mutate(fn func(c *core.Compiler)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cc := *s.compiler
	fn(&cc)
	s.compiler = &cc
}

// Options returns the session's compiler options.
func (s *Session) Options() Options { return s.snapshot().Opts }

// SetOptions replaces the compiler options (e.g. to sweep widths).
func (s *Session) SetOptions(opts Options) {
	s.mutate(func(c *core.Compiler) { c.Opts = opts })
}

// UseScheduler attaches a shared scheduler: Run calls pass admission
// control before starting, and each region's effective width is granted
// from the scheduler's token pool. Pass nil to detach.
func (s *Session) UseScheduler(sched *Scheduler) {
	s.mutate(func(c *core.Compiler) { c.Sched = sched })
}

// WorkerPool is the distributed data plane: a set of `pash-serve
// -worker` processes the session's plans shard across. Build one with
// NewWorkerPool and attach it with UseWorkers (or per-job with
// WithWorkers).
type WorkerPool = dist.Pool

// WorkerStats re-exports a worker's coordinator-side meter row.
type WorkerStats = dist.WorkerStats

// NewWorkerPool builds a pool over the given worker addresses
// ("host:port", "http://host:port", or "unix:/path/to.sock").
func NewWorkerPool(workers ...string) *WorkerPool { return dist.NewPool(workers...) }

// UseWorkers attaches a worker pool: the shippable branches of every
// subsequent run's parallel regions go to pool workers as whole streams
// (or file-range shards when the pool shares the session's filesystem),
// with failover to a surviving worker or the coordinator when a worker
// dies mid-stream. Pass nil to detach. The plan cache keys on the pool's
// membership fingerprint, so attaching, detaching, or losing workers
// re-plans affected regions instead of serving stale shard maps.
func (s *Session) UseWorkers(pool *WorkerPool) {
	s.mutate(func(c *core.Compiler) {
		if pool == nil {
			c.Workers = nil
			return
		}
		c.Workers = pool
	})
}

// WorkerStats snapshots the attached pool's per-worker meter rows (nil
// without a pool).
func (s *Session) WorkerStats() []WorkerStats {
	c := s.snapshot()
	if c.Workers == nil {
		return nil
	}
	if p, ok := c.Workers.(*dist.Pool); ok {
		return p.Stats()
	}
	return nil
}

// PlanCacheStats snapshots the session's plan-cache counters.
func (s *Session) PlanCacheStats() PlanCacheStats {
	c := s.snapshot()
	if c.Plans == nil {
		return PlanCacheStats{}
	}
	return c.Plans.Stats()
}

// CommandFunc is a user-supplied command implementation: it reads stdin,
// writes stdout, and returns an error (nil = exit 0).
type CommandFunc func(args []string, stdin io.Reader, stdout io.Writer) error

// Run parses and executes a script with PaSh's parallelizing
// interpreter, returning the script's exit status. It is Start + Wait:
// when a scheduler is attached, the call blocks in admission until the
// machine has a free script slot.
func (s *Session) Run(ctx context.Context, src string, stdin io.Reader, stdout, stderr io.Writer) (int, error) {
	j, err := s.Start(ctx, src, JobIO{Stdin: stdin, Stdout: stdout, Stderr: stderr})
	if err != nil {
		return 127, err
	}
	return j.Wait()
}

// RunStats executes like Run but also returns region compilation
// statistics (regions found, node counts, plan-cache hits/misses —
// Tab. 2's metrics).
func (s *Session) RunStats(ctx context.Context, src string, stdin io.Reader, stdout, stderr io.Writer) (int, core.InterpStats, error) {
	j, err := s.Start(ctx, src, JobIO{Stdin: stdin, Stdout: stdout, Stderr: stderr})
	if err != nil {
		return 127, core.InterpStats{}, err
	}
	code, rerr := j.Wait()
	return code, j.Stats().Interp, rerr
}

// Compile builds an ahead-of-time plan for emission; static regions are
// parallelized under emission constraints (barrier splits, no fusion),
// dynamic ones preserved verbatim.
func (s *Session) Compile(src string) (*Plan, error) {
	return s.snapshot().Plan(src)
}

// CompileExec builds the in-process execution view of a script: regions
// are optimized exactly as the interpreter would run them (stage
// fusion, streaming splits, aggregation trees). The result cannot be
// emitted as a shell script; inspect it with Plan.Dot. Under the Planned
// preset each region's width is decided as a run in the session's Dir
// would decide it (a run's stdin is not known here).
func (s *Session) CompileExec(src string) (*Plan, error) {
	return s.snapshot().PlanExecIn(src, commands.OSFS{Dir: s.Dir})
}
