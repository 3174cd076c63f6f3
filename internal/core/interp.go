package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/commands"
	"repro/internal/dfg"
	"repro/internal/runtime"
	"repro/internal/shell"
)

// Interp walks a shell AST, executing barriers sequentially and handing
// each parallelizable region (pipeline) to the compiler + runtime. It is
// the in-process analog of PaSh handing the transformed script to the
// user's shell (§2.3).
type Interp struct {
	c     *Compiler
	env   *shell.Env
	dir   string
	stdio runtime.StdIO

	// budget, when set, is the owning job's live resource accounting:
	// regions cap their width by it and runtime pipes charge queued
	// payload against it. Nested interpreters (subshells, command
	// substitution, compound pipeline stages) share the job's budget.
	budget *runtime.Budget
	// sandbox confines all file access to dir (untrusted scripts).
	sandbox bool
	// traffic accumulates live data-plane movement across every region
	// this interpreter (and its nested interpreters) executes, so a
	// running job's stats show bytes moved so far instead of zeros.
	traffic *runtime.Traffic
	// profile runs every region through the profiling executor and
	// records its RegionProfile (Measure).
	profile bool

	jobMu sync.Mutex
	jobs  []chan jobResult

	// status is $?, the exit status of the most recent pipeline. It is
	// kept here, not in env: a variable write would bump env's
	// generation and make every region re-copy the environment.
	// Background jobs update it too, hence atomic.
	status atomic.Int32
	// subStatus is the exit status of the last command substitution,
	// which a command of assignments alone exits with.
	subStatus atomic.Int32

	// envSnap is env as of generation envGen (envSnapshot).
	envMu   sync.Mutex
	envSnap map[string]string
	envGen  uint64

	statsMu sync.Mutex
	// Stats accumulates per-region compilation metrics for Tab. 2.
	// Read it only after RunScript returns (background jobs update it
	// concurrently while a script runs).
	Stats InterpStats

	profMu sync.Mutex
	// Profiles records each executed region's graph and measured node
	// times, feeding the multicore scheduling simulator. Filled only
	// after Measure.
	Profiles []RegionProfile
}

// jobResult is one background job's outcome.
type jobResult struct {
	code int
	err  error
}

// InterpStats aggregates region-level metrics.
type InterpStats struct {
	Regions    int
	TotalNodes int
	MaxNodes   int
	// PlanHits / PlanMisses count regions served from the compiler's
	// plan cache vs. compiled cold (a hit costs one graph clone; a miss
	// costs the full compile+optimize pass).
	PlanHits   int
	PlanMisses int
	// Widths counts the regions by what decided their width.
	Widths dfg.WidthTally
	// BytesMoved / ChunksMoved total the live data-plane traffic across
	// the interpreter's regions. They are filled by StatsSnapshot (from
	// the live meter), so they are meaningful mid-run, not only at exit.
	BytesMoved  int64
	ChunksMoved int64
}

// noteRegion counts one planned region: its nodes, its plan-cache
// verdict and its width decision.
func (st *InterpStats) noteRegion(g *dfg.Graph, hit bool) {
	st.Regions++
	st.TotalNodes += len(g.Nodes)
	st.MaxNodes = max(st.MaxNodes, len(g.Nodes))
	if hit {
		st.PlanHits++
	} else {
		st.PlanMisses++
	}
	st.Widths.Note(g.Width)
}

// RegionProfile is one executed region's graph plus measured node times.
type RegionProfile struct {
	Graph *dfg.Graph
	Times []runtime.NodeTime
	Wall  time.Duration
}

// NewInterp builds an interpreter. vars seeds the variable environment
// (e.g. PASH_CURL_ROOT); dir is the working directory for file access.
func NewInterp(c *Compiler, dir string, vars map[string]string, stdio runtime.StdIO) *Interp {
	env := shell.NewEnv()
	for k, v := range vars {
		env.Set(k, v)
	}
	if stdio.Stdout == nil {
		stdio.Stdout = io.Discard
	}
	if stdio.Stderr == nil {
		stdio.Stderr = io.Discard
	}
	return &Interp{c: c, env: env, dir: dir, stdio: stdio, traffic: &runtime.Traffic{}}
}

// nested builds an interpreter for a scope of the same script — a
// subshell, a compound pipeline stage, a command substitution — sharing
// the job's compiler, budget, sandbox and traffic meter.
func (in *Interp) nested(env *shell.Env, stdio runtime.StdIO) *Interp {
	sub := &Interp{c: in.c, env: env, dir: in.dir, stdio: stdio, budget: in.budget, sandbox: in.sandbox, traffic: in.traffic, profile: in.profile}
	sub.status.Store(in.status.Load())
	return sub
}

// fold adds a finished nested interpreter's region metrics and profiles
// to this one, so a region counts the same wherever in the script it
// ran. Compound pipeline stages finish concurrently, hence the locks.
// Command substitutions are deliberately not folded: Stats and Profiles
// count the regions at the script's command positions, not those run
// while expanding a word, and the committed benchmark pins the counts
// that definition gives (loop-control iterates over `$(seq N)`).
func (in *Interp) fold(sub *Interp) {
	in.statsMu.Lock()
	in.Stats.Regions += sub.Stats.Regions
	in.Stats.TotalNodes += sub.Stats.TotalNodes
	in.Stats.MaxNodes = max(in.Stats.MaxNodes, sub.Stats.MaxNodes)
	in.Stats.PlanHits += sub.Stats.PlanHits
	in.Stats.PlanMisses += sub.Stats.PlanMisses
	in.Stats.Widths.Add(sub.Stats.Widths)
	in.statsMu.Unlock()
	in.profMu.Lock()
	in.Profiles = append(in.Profiles, sub.Profiles...)
	in.profMu.Unlock()
}

// StatsSnapshot returns a consistent copy of the interpreter's region
// metrics plus the live traffic totals. Unlike reading Stats directly,
// it is safe while the script is still running — the Job API uses it to
// answer Stats() on in-flight (and never-finishing streaming) jobs.
func (in *Interp) StatsSnapshot() InterpStats {
	in.statsMu.Lock()
	st := in.Stats
	in.statsMu.Unlock()
	st.BytesMoved, st.ChunksMoved = in.traffic.Moved()
	return st
}

// UseBudget attaches a job's resource accounting (and sandbox flag) to
// the interpreter. Call before RunScript/RunParsed; nested interpreters
// inherit it automatically.
func (in *Interp) UseBudget(b *runtime.Budget, sandbox bool) {
	in.budget = b
	in.sandbox = sandbox
}

// Measure makes this a measuring run: every region goes through the
// profiling executor (runtime.Profile: nodes one at a time, unbounded
// buffers, output identical) and leaves its graph and per-node works in
// Profiles for the multicore scheduling simulator. Call before
// RunScript/RunParsed; nested interpreters inherit it.
func (in *Interp) Measure() { in.profile = true }

// RunScript parses and executes src, returning the final exit status.
func (in *Interp) RunScript(ctx context.Context, src string) (int, error) {
	list, err := shell.Parse(src)
	if err != nil {
		return 127, err
	}
	return in.RunParsed(ctx, list)
}

// RunParsed executes an already-parsed script, so callers that parse
// for validation (the Job API) do not pay the parse twice.
func (in *Interp) RunParsed(ctx context.Context, list *shell.List) (int, error) {
	code, err := exited(in.runList(ctx, list))
	_, werr := in.waitJobs()
	if err == nil {
		err = werr
	}
	return code, err
}

// waitJobs drains the pending background jobs, returning the exit code
// of the last job (POSIX `wait` semantics) and the first error any job
// reported.
func (in *Interp) waitJobs() (int, error) {
	in.jobMu.Lock()
	jobs := in.jobs
	in.jobs = nil
	in.jobMu.Unlock()
	code := 0
	var firstErr error
	for _, j := range jobs {
		r := <-j
		code = r.code
		if firstErr == nil {
			firstErr = r.err
		}
	}
	return code, firstErr
}

func (in *Interp) runList(ctx context.Context, list *shell.List) (int, error) {
	code := 0
	for _, item := range list.Items {
		// Cancellation point: a cancelled job (Job.Cancel, a dropped
		// serve request) stops at the next statement boundary with the
		// shell's interrupted status.
		if err := ctx.Err(); err != nil {
			return 130, err
		}
		if item.Background {
			ch := make(chan jobResult, 1)
			in.jobMu.Lock()
			in.jobs = append(in.jobs, ch)
			in.jobMu.Unlock()
			cmd := item.Cmd
			go func() {
				var c int
				err := func() (err error) {
					defer runtime.Contain("background job", &err)
					c, err = exited(in.runCommand(ctx, cmd))
					return err
				}()
				ch <- jobResult{code: c, err: err}
			}()
			code = 0
			in.status.Store(0)
			continue
		}
		var err error
		code, err = in.runCommand(ctx, item.Cmd)
		in.status.Store(int32(code))
		if err != nil {
			return code, err
		}
	}
	return code, nil
}

func (in *Interp) runCommand(ctx context.Context, cmd shell.Command) (int, error) {
	switch cmd := cmd.(type) {
	case *shell.Simple, *shell.Pipeline:
		simples, negated, ok := simplePipeline(cmd)
		if !ok {
			// Compound stages stream through bounded pipes.
			return in.runCompoundPipeline(ctx, cmd.(*shell.Pipeline))
		}
		code, err := in.runPipeline(ctx, simples)
		if negated {
			code = negate(code)
		}
		return code, err
	case *shell.AndOr:
		code, err := in.runCommand(ctx, cmd.First)
		if err != nil {
			return code, err
		}
		for _, part := range cmd.Rest {
			if part.Op == shell.AndOp && code != 0 {
				continue
			}
			if part.Op == shell.OrOp && code == 0 {
				continue
			}
			in.status.Store(int32(code))
			code, err = in.runCommand(ctx, part.Cmd)
			if err != nil {
				return code, err
			}
		}
		return code, nil
	case *shell.List:
		return in.runList(ctx, cmd)
	case *shell.For:
		x := in.expander()
		var items []string
		for _, w := range cmd.Items {
			fs, err := x.ExpandWord(w)
			if err != nil {
				return 1, err
			}
			items = append(items, fs...)
		}
		code := 0
		for _, it := range items {
			in.env.Set(cmd.Var, it)
			var err error
			code, err = in.runList(ctx, cmd.Body)
			if err != nil {
				return code, err
			}
		}
		return code, nil
	case *shell.If:
		condCode, err := in.runList(ctx, cmd.Cond)
		if err != nil {
			return condCode, err
		}
		if condCode == 0 {
			return in.runList(ctx, cmd.Then)
		}
		if cmd.Else != nil {
			return in.runList(ctx, cmd.Else)
		}
		return 0, nil
	case *shell.While:
		code := 0
		for iter := 0; ; iter++ {
			if iter > 1_000_000 {
				return 1, fmt.Errorf("core: while loop exceeded iteration limit")
			}
			condCode, err := in.runList(ctx, cmd.Cond)
			if err != nil {
				return condCode, err
			}
			stop := condCode != 0
			if cmd.Until {
				stop = condCode == 0
			}
			if stop {
				return code, nil
			}
			code, err = in.runList(ctx, cmd.Body)
			if err != nil {
				return code, err
			}
		}
	case *shell.Subshell:
		sub := in.nested(in.env.Child(), in.stdio)
		code, err := exited(sub.runList(ctx, cmd.Body))
		if _, werr := sub.waitJobs(); err == nil {
			err = werr
		}
		in.fold(sub)
		return code, err
	case *shell.Brace:
		return in.runList(ctx, cmd.Body)
	}
	return 1, fmt.Errorf("core: unsupported command node %T", cmd)
}

func negate(code int) int {
	if code == 0 {
		return 1
	}
	return 0
}

// runCompoundPipeline executes a pipeline containing compound stages.
// Stages run concurrently, connected by bounded synchronous pipes (no
// unbounded intermediate buffers), each in a subshell scope. A stage
// that finishes without draining its input closes it, so upstream
// stages terminate with the SIGPIPE analog instead of blocking forever.
func (in *Interp) runCompoundPipeline(ctx context.Context, p *shell.Pipeline) (int, error) {
	n := len(p.Cmds)
	if n == 1 {
		// Not really a pipeline — a lone negated compound (`! { ...; }`).
		// POSIX runs it in the current environment, so assignments
		// persist; only real multi-stage pipelines get subshell scopes.
		sub := in.nested(in.env, in.stdio)
		code, err := sub.runCommand(ctx, p.Cmds[0])
		if _, werr := sub.waitJobs(); err == nil {
			err = werr
		}
		in.fold(sub)
		if p.Negated {
			code = negate(code)
		}
		return code, err
	}
	type stageResult struct {
		code int
		err  error
	}
	results := make([]stageResult, n)
	var wg sync.WaitGroup
	var prevReader *io.PipeReader // pipe feeding stage i; nil for the first
	for i, c := range p.Cmds {
		stdio := runtime.StdIO{Stderr: in.stdio.Stderr}
		if prevReader != nil {
			stdio.Stdin = prevReader
		} else {
			stdio.Stdin = in.stdio.Stdin
		}
		var pw *io.PipeWriter
		var nextReader *io.PipeReader
		if i == n-1 {
			stdio.Stdout = in.stdio.Stdout
		} else {
			nextReader, pw = io.Pipe()
			stdio.Stdout = pw
		}
		sub := in.nested(in.env.Child(), stdio)
		wg.Add(1)
		go func(i int, c shell.Command, sub *Interp, pw *io.PipeWriter, myInput *io.PipeReader) {
			defer wg.Done()
			var code int
			err := func() (err error) {
				defer runtime.Contain("pipeline stage", &err)
				code, err = exited(sub.runCommand(ctx, c))
				return err
			}()
			if _, werr := sub.waitJobs(); err == nil {
				err = werr
			}
			in.fold(sub)
			if pw != nil {
				pw.CloseWithError(err)
			}
			if myInput != nil {
				// Unread input: closing delivers write errors upstream.
				myInput.Close()
			}
			if err != nil && errors.Is(err, io.ErrClosedPipe) {
				// Downstream exited early; normal pipeline behaviour.
				err = nil
			}
			results[i] = stageResult{code: code, err: err}
		}(i, c, sub, pw, prevReader)
		prevReader = nextReader
	}
	wg.Wait()
	code := results[n-1].code
	var firstErr error
	for _, r := range results {
		if r.err != nil {
			firstErr = r.err
			break
		}
	}
	if p.Negated {
		code = negate(code)
	}
	return code, firstErr
}

// expander builds the word expander with command substitution wired to a
// nested sequential interpreter.
func (in *Interp) expander() *shell.Expander {
	return &shell.Expander{
		Env:    in.env,
		Glob:   true,
		Dir:    in.dir,
		Status: func() int { return int(in.status.Load()) },
		Pwd: func() string {
			if abs, err := filepath.Abs(in.dir); err == nil {
				return abs
			}
			return in.dir
		},
		CmdSub: func(src string) (string, error) {
			var out bytes.Buffer
			// A subshell scope, as *shell.Subshell runs in: assignments
			// and a cd inside $( ) do not reach the caller.
			sub := in.nested(in.env.Child(), runtime.StdIO{Stdin: strings.NewReader(""), Stdout: &out, Stderr: in.stdio.Stderr})
			list, err := shell.Parse(src)
			if err != nil {
				return "", err
			}
			code, err := exited(sub.runList(context.Background(), list))
			if err != nil {
				return "", err
			}
			in.subStatus.Store(int32(code))
			if _, werr := sub.waitJobs(); werr != nil {
				return "", werr
			}
			return out.String(), nil
		},
	}
}

// bareRedirs performs a command-less redirection list: POSIX `> out.txt`
// creates/truncates the target, `>> out.txt` creates it for append, and
// `< in.txt` verifies it is openable. Failures report to stderr with
// exit status 1, like a real shell.
func (in *Interp) bareRedirs(x *shell.Expander, redirs []*shell.Redir) (int, error) {
	osfs := commands.OSFS{Dir: in.dir, Jail: in.sandbox}
	for _, r := range redirs {
		tgt, err := x.ExpandString(r.Target)
		if err != nil {
			return 1, err
		}
		switch r.Op {
		case shell.RedirOut:
			w, err := osfs.Create(tgt)
			if err != nil {
				fmt.Fprintf(in.stdio.Stderr, "pash: %s: %v\n", tgt, err)
				return 1, nil
			}
			w.Close()
		case shell.RedirAppend:
			w, err := osfs.Append(tgt)
			if err != nil {
				fmt.Fprintf(in.stdio.Stderr, "pash: %s: %v\n", tgt, err)
				return 1, nil
			}
			w.Close()
		case shell.RedirIn:
			f, err := osfs.Open(tgt)
			if err != nil {
				fmt.Fprintf(in.stdio.Stderr, "pash: %s: %v\n", tgt, err)
				return 1, nil
			}
			f.Close()
		default:
			return 1, fmt.Errorf("core: unsupported bare redirection %s", r.Op)
		}
	}
	return 0, nil
}

// envOverride is one pending per-command assignment prefix.
type envOverride struct {
	name  string
	value string
}

// applyOverrides installs assignment-prefix values for the duration of a
// region's execution and returns the restore function. The prior values
// (or absence) come back afterward — the prefix scopes to the command
// instead of leaking into the script's environment.
func (in *Interp) applyOverrides(ovs []envOverride) func() {
	if len(ovs) == 0 {
		return func() {}
	}
	type saved struct {
		name    string
		value   string
		present bool
	}
	prior := make([]saved, 0, len(ovs))
	for _, ov := range ovs {
		v, ok := in.env.Lookup(ov.name)
		prior = append(prior, saved{name: ov.name, value: v, present: ok})
		in.env.Set(ov.name, ov.value)
	}
	return func() {
		// Restore in reverse so repeated names unwind correctly.
		for i := len(prior) - 1; i >= 0; i-- {
			s := prior[i]
			if s.present {
				in.env.Set(s.name, s.value)
			} else {
				in.env.Unset(s.name)
			}
		}
	}
}

// runPipeline expands the stages, plans the region (through the plan
// cache when one is configured), and executes it at the effective width
// the shared scheduler grants.
func (in *Interp) runPipeline(ctx context.Context, simples []*shell.Simple) (int, error) {
	x := in.expander()

	// A lone assignment command mutates the environment and exits with
	// the status of its last command substitution, or 0; a bare
	// redirection list opens/creates its targets.
	if len(simples) == 1 && len(simples[0].Args) == 0 {
		s := simples[0]
		in.subStatus.Store(0)
		for _, a := range s.Assigns {
			v, err := x.ExpandString(a.Value)
			if err != nil {
				return 1, err
			}
			in.env.Set(a.Name, v)
		}
		if len(s.Redirs) > 0 {
			if code, err := in.bareRedirs(x, s.Redirs); code != 0 || err != nil {
				return code, err
			}
		}
		return int(in.subStatus.Load()), nil
	}

	stages, overrides, err := expandStages(x, simples)
	if err != nil {
		return 1, err
	}

	// Builtins that affect interpreter state can't go through the DFG.
	if len(stages) == 1 {
		if code, handled, err := in.builtin(ctx, stages[0]); handled {
			return code, err
		}
	}

	restore := in.applyOverrides(overrides)
	defer restore()
	g, res, wall, err := in.region(ctx, stages, regionKey(stages), in.c.Opts.Width, in.stdio, in.envSnapshot())
	if err != nil {
		return 1, err
	}
	if in.profile {
		// Only the simulator's measuring runs read profiles; recording
		// them always would grow with every region a long loop executes.
		in.profMu.Lock()
		in.Profiles = append(in.Profiles, RegionProfile{
			Graph: g, Times: res.NodeTimes, Wall: wall,
		})
		in.profMu.Unlock()
	}
	return res.ExitCode, nil
}

// region plans and runs one region of this interpreter — a pipeline of
// the script, or a window of a stream it planned. The control plane
// fingerprints it (rkey), decides and takes its width from its input,
// and plans it (cache hit: clone; miss: compile+optimize); the region
// then runs under the job's budget, jail and traffic meter, and counts
// in Stats.
func (in *Interp) region(ctx context.Context, stages []Stage, rkey string, width int, stdio runtime.StdIO, env map[string]string) (*dfg.Graph, *runtime.Result, time.Duration, error) {
	wp, lifted, release, err := in.c.regionWidth(stages, rkey, width, in.budget, RegionInput{
		FS:    commands.OSFS{Dir: in.dir, Jail: in.sandbox},
		Stdin: stdio.Stdin,
	})
	if err != nil {
		return nil, nil, 0, err
	}
	defer release()
	return in.c.runRegion(ctx, stages, rkey, wp, lifted, stdio, runtime.Config{
		Dir:     in.dir,
		Env:     env,
		Budget:  in.budget,
		Sandbox: in.sandbox,
		Traffic: in.traffic,
	}, in.profile, func(g *dfg.Graph, hit bool) {
		in.statsMu.Lock()
		in.Stats.noteRegion(g, hit)
		in.statsMu.Unlock()
	})
}

// simplePipeline returns the stages of cmd when it is one simple command
// or a pipeline of simple commands, and whether the pipeline is negated:
// the shape the interpreter runs as one region, the emitter lifts and the
// stream planner windows.
func simplePipeline(cmd shell.Command) (simples []*shell.Simple, negated, ok bool) {
	switch cmd := cmd.(type) {
	case *shell.Simple:
		return []*shell.Simple{cmd}, false, true
	case *shell.Pipeline:
		simples = make([]*shell.Simple, len(cmd.Cmds))
		for i, c := range cmd.Cmds {
			if simples[i], ok = c.(*shell.Simple); !ok {
				return nil, false, false
			}
		}
		return simples, cmd.Negated, true
	}
	return nil, false, false
}

// expandStages is the one place a pipeline's words become stages: argv,
// redirection targets, heredoc bodies and assignment prefixes, all
// through the caller's expander, which carries the caller's rule (the
// interpreter globs and runs command substitutions, the emitter's strict
// expander refuses both). The prefixes come back unapplied, in order; a
// caller that cannot scope them refuses them. An assignment-only stage
// runs in a subshell of its own in a real shell: its values are expanded,
// nothing is set, and the stage is `true`, so the next stage reads EOF.
func expandStages(x *shell.Expander, simples []*shell.Simple) ([]Stage, []envOverride, error) {
	stages := make([]Stage, 0, len(simples))
	var overrides []envOverride
	for _, s := range simples {
		for _, a := range s.Assigns {
			// Expanded before the prefix could influence its own argv,
			// per POSIX.
			v, err := x.ExpandString(a.Value)
			if err != nil {
				return nil, nil, err
			}
			if len(s.Args) > 0 {
				overrides = append(overrides, envOverride{name: a.Name, value: v})
			}
		}
		var st Stage
		if len(s.Args) == 0 {
			st.Name = "true"
		} else {
			argv := make([]string, 0, len(s.Args))
			for _, w := range s.Args {
				fs, err := x.ExpandWord(w)
				if err != nil {
					return nil, nil, err
				}
				argv = append(argv, fs...)
			}
			if len(argv) == 0 {
				return nil, nil, fmt.Errorf("core: empty command after expansion")
			}
			st = Stage{Name: argv[0], Args: argv[1:]}
		}
		for _, r := range s.Redirs {
			if r.Op == shell.RedirHeredoc {
				// The delimiter is never expanded; the body is, but only
				// when the delimiter was written unquoted (POSIX).
				body := r.Heredoc
				if r.Target.Bare {
					bw, err := shell.ParseHeredocBody(body)
					if err != nil {
						return nil, nil, err
					}
					if body, err = x.ExpandString(bw); err != nil {
						return nil, nil, err
					}
				}
				st.Redirs = append(st.Redirs, Redir{N: r.N, Op: r.Op, Body: body})
				continue
			}
			tgt, err := x.ExpandString(r.Target)
			if err != nil {
				return nil, nil, err
			}
			st.Redirs = append(st.Redirs, Redir{N: r.N, Op: r.Op, Target: tgt})
		}
		stages = append(stages, st)
	}
	return stages, overrides, nil
}

// envSnapshot is the command environment of the next region: the shell
// variables as they stand. Regions only read it, so one snapshot serves
// every region until a variable changes.
func (in *Interp) envSnapshot() map[string]string {
	in.envMu.Lock()
	defer in.envMu.Unlock()
	if in.envSnap == nil || in.env.Generation() != in.envGen {
		in.envSnap, in.envGen = in.env.Snapshot()
	}
	return in.envSnap
}

// shellBuiltins names the commands the interpreter runs itself, never as
// a region: those that change its state, and those it refuses by name.
var shellBuiltins = map[string]bool{"cd": true, "export": true, "wait": true, "exec": true, "set": true, "umask": true, "ulimit": true, "exit": true}

// builtin handles the few commands that must mutate interpreter state.
func (in *Interp) builtin(ctx context.Context, st Stage) (int, bool, error) {
	switch st.Name {
	case "cd":
		if len(st.Args) != 1 {
			return 1, true, fmt.Errorf("cd: expected one argument")
		}
		// The target resolves as every path of the job does, jail
		// included, and must be a directory: otherwise the shell stays
		// where it is.
		dir, err := commands.OSFS{Dir: in.dir, Jail: in.sandbox}.Resolve(st.Args[0])
		if err == nil {
			if fi, serr := os.Stat(dir); serr != nil {
				err = errors.Unwrap(serr) // the cause, not the host path
			} else if !fi.IsDir() {
				err = syscall.ENOTDIR
			}
		}
		if err != nil {
			fmt.Fprintf(in.stdio.Stderr, "pash: cd: %s: %v\n", st.Args[0], err)
			return 1, true, nil
		}
		in.dir = dir
		return 0, true, nil
	case "export":
		for _, a := range st.Args {
			if eq := strings.IndexByte(a, '='); eq > 0 {
				in.env.Set(a[:eq], a[eq+1:])
			}
		}
		return 0, true, nil
	case "wait":
		code, err := in.waitJobs()
		return code, true, err
	case "exit":
		// exit [n] ends the script, or the subshell it runs in, with n,
		// or with $? when n is absent.
		code := int(in.status.Load())
		if len(st.Args) > 0 {
			n, err := strconv.Atoi(st.Args[0])
			if err != nil || n < 0 {
				fmt.Fprintf(in.stdio.Stderr, "pash: exit: %s: numeric argument required\n", st.Args[0])
				n = 2
			}
			code = n & 0xff
		}
		return code, true, exitStatus(code)
	case "umask":
		if len(st.Args) > 0 {
			// Accepted and ignored: files are created 0644 regardless.
			return 0, true, nil
		}
		fallthrough
	case "exec", "set", "ulimit":
		// The interpreter keeps no shell options, process image or
		// limits: going on as if it did would run a different script.
		return 1, true, fmt.Errorf("core: %s is not supported", strings.Join(append([]string{st.Name}, st.Args...), " "))
	}
	_ = ctx
	return 0, false, nil
}

// exitStatus is the error exit unwinds the script with, up to the
// subshell, command substitution or script it ends.
type exitStatus int

func (e exitStatus) Error() string { return fmt.Sprintf("exit %d", int(e)) }

// exited is a scope's status and error once an exit inside it has
// unwound it: the exit's code, and no error.
func exited(code int, err error) (int, error) {
	if e, ok := err.(exitStatus); ok {
		return int(e), nil
	}
	return code, err
}

// Run is the package-level convenience: parse and execute a script with
// a fresh interpreter.
func Run(ctx context.Context, c *Compiler, src, dir string, vars map[string]string, stdio runtime.StdIO) (int, error) {
	in := NewInterp(c, dir, vars, stdio)
	return in.RunScript(ctx, src)
}
