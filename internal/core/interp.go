package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
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

	jobMu sync.Mutex
	jobs  []chan jobResult

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
	// under Options.MeasureMode.
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
	return &Interp{c: in.c, env: env, dir: in.dir, stdio: stdio, budget: in.budget, sandbox: in.sandbox, traffic: in.traffic}
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
	code, err := in.runList(ctx, list)
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
					c, err = in.runCommand(ctx, cmd)
					return err
				}()
				ch <- jobResult{code: c, err: err}
			}()
			code = 0
			continue
		}
		var err error
		code, err = in.runCommand(ctx, item.Cmd)
		if err != nil {
			return code, err
		}
	}
	return code, nil
}

func (in *Interp) runCommand(ctx context.Context, cmd shell.Command) (int, error) {
	switch cmd := cmd.(type) {
	case *shell.Simple:
		return in.runPipeline(ctx, []*shell.Simple{cmd})
	case *shell.Pipeline:
		stages := make([]*shell.Simple, 0, len(cmd.Cmds))
		for _, c := range cmd.Cmds {
			s, ok := c.(*shell.Simple)
			if !ok {
				// Compound stages stream through bounded pipes.
				return in.runCompoundPipeline(ctx, cmd)
			}
			stages = append(stages, s)
		}
		code, err := in.runPipeline(ctx, stages)
		if cmd.Negated {
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
		code, err := sub.runList(ctx, cmd.Body)
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
				code, err = sub.runCommand(ctx, c)
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
		Env:  in.env,
		Glob: true,
		Dir:  in.dir,
		CmdSub: func(src string) (string, error) {
			var out bytes.Buffer
			sub := in.nested(in.env, runtime.StdIO{Stdin: strings.NewReader(""), Stdout: &out, Stderr: in.stdio.Stderr})
			list, err := shell.Parse(src)
			if err != nil {
				return "", err
			}
			if _, err := sub.runList(context.Background(), list); err != nil {
				return "", err
			}
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

	// A lone assignment command mutates the environment; a bare
	// redirection list opens/creates its targets.
	if len(simples) == 1 && len(simples[0].Args) == 0 {
		s := simples[0]
		for _, a := range s.Assigns {
			v, err := x.ExpandString(a.Value)
			if err != nil {
				return 1, err
			}
			in.env.Set(a.Name, v)
		}
		if len(s.Redirs) > 0 {
			return in.bareRedirs(x, s.Redirs)
		}
		return 0, nil
	}

	stages := make([]Stage, 0, len(simples))
	var overrides []envOverride
	for _, s := range simples {
		if len(s.Assigns) > 0 {
			if len(s.Args) == 0 {
				// Assignment-only stage inside a pipeline: it runs in a
				// subshell in a real shell, so its sets are invisible;
				// we keep the historical behaviour of applying them.
				for _, a := range s.Assigns {
					v, err := x.ExpandString(a.Value)
					if err != nil {
						return 1, err
					}
					in.env.Set(a.Name, v)
				}
				continue
			}
			// Per-command assignment prefixes (FOO=1 cmd) scope to the
			// command: expanded now (before the prefix could influence
			// its own argv, per POSIX), installed only around execution,
			// and restored afterward.
			for _, a := range s.Assigns {
				v, err := x.ExpandString(a.Value)
				if err != nil {
					return 1, err
				}
				overrides = append(overrides, envOverride{name: a.Name, value: v})
			}
		}
		argv := make([]string, 0, len(s.Args))
		for _, w := range s.Args {
			fs, err := x.ExpandWord(w)
			if err != nil {
				return 1, err
			}
			argv = append(argv, fs...)
		}
		if len(argv) == 0 {
			return 1, fmt.Errorf("core: empty command after expansion")
		}
		st := Stage{Name: argv[0], Args: argv[1:]}
		for _, r := range s.Redirs {
			if r.Op == shell.RedirHeredoc {
				// The delimiter is never expanded; the body is, but only
				// when the delimiter was written unquoted (POSIX).
				body := r.Heredoc
				if r.Target.Bare {
					bw, err := shell.ParseHeredocBody(body)
					if err != nil {
						return 1, err
					}
					body, err = x.ExpandString(bw)
					if err != nil {
						return 1, err
					}
				}
				st.Redirs = append(st.Redirs, Redir{N: r.N, Op: r.Op, Body: body})
				continue
			}
			tgt, err := x.ExpandString(r.Target)
			if err != nil {
				return 1, err
			}
			st.Redirs = append(st.Redirs, Redir{N: r.N, Op: r.Op, Target: tgt})
		}
		stages = append(stages, st)
	}
	if len(stages) == 0 {
		return 0, nil
	}

	// Builtins that affect interpreter state can't go through the DFG.
	if len(stages) == 1 {
		if code, handled, err := in.builtin(ctx, stages[0]); handled {
			return code, err
		}
	}

	// Control plane: fingerprint the region, ask the planner how wide it
	// should be, take that many width tokens from the shared scheduler,
	// then plan (cache hit: clone; miss: compile+optimize).
	rkey := regionKey(stages)
	// The job's replica budget caps the width before anyone is asked, so
	// an over-budget region never takes tokens it cannot use.
	wp, lifted, err := in.c.regionWidth(stages, rkey, in.budget.CapWidth(in.c.Opts.Width), RegionInput{
		FS:    commands.OSFS{Dir: in.dir, Jail: in.sandbox},
		Stdin: in.stdio.Stdin,
	})
	if err != nil {
		return 1, err
	}
	if in.c.Sched != nil {
		// Multi-tenant instantiation: the shared token pool caps what the
		// machine can spare right now. A width-1 region takes no token.
		granted, release := in.c.Sched.AcquireWidth(wp.Planned)
		defer release()
		if granted < wp.Planned {
			wp.Planned, wp.Reason, wp.Measure = granted, dfg.WidthGranted, int64(wp.Planned)
		}
	}
	restore := in.applyOverrides(overrides)
	defer restore()
	var start time.Time // execution only: planning is not the region's wall
	g, res, err := in.c.runRegion(ctx, stages, rkey, wp, lifted, in.stdio, runtime.Config{
		Dir:     in.dir,
		Env:     in.envSnapshot(),
		Budget:  in.budget,
		Sandbox: in.sandbox,
		Traffic: in.traffic,
	}, func(g *dfg.Graph, hit bool) {
		in.statsMu.Lock()
		in.Stats.Regions++
		in.Stats.TotalNodes += len(g.Nodes)
		in.Stats.MaxNodes = max(in.Stats.MaxNodes, len(g.Nodes))
		if hit {
			in.Stats.PlanHits++
		} else {
			in.Stats.PlanMisses++
		}
		in.Stats.Widths.Note(wp)
		in.statsMu.Unlock()
		start = time.Now()
	})
	if err != nil {
		return 1, err
	}
	wall := time.Since(start)
	if in.c.Plans != nil {
		in.c.Plans.noteWidth(wp)
		if in.c.Opts.PlanWidth && !in.c.Opts.MeasureMode {
			// Close the JIT loop: the measured wall is what sizes this
			// region next time, should its bytes not be statable then.
			in.c.Plans.noteRun(rkey, wall)
		}
	}
	if in.c.Opts.MeasureMode {
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

// builtin handles the few commands that must mutate interpreter state.
func (in *Interp) builtin(ctx context.Context, st Stage) (int, bool, error) {
	switch st.Name {
	case "cd":
		if len(st.Args) != 1 {
			return 1, true, fmt.Errorf("cd: expected one argument")
		}
		dir := st.Args[0]
		if in.sandbox && (strings.HasPrefix(dir, "/") || strings.Contains(dir, "..")) {
			fmt.Fprintf(in.stdio.Stderr, "pash: cd: %s: %v\n", dir, commands.ErrJailEscape)
			return 1, true, nil
		}
		if !strings.HasPrefix(dir, "/") {
			dir = in.dir + "/" + dir
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
	case "exec", "set", "umask", "ulimit":
		// Accepted and ignored: benchmark scripts use them only for
		// shell housekeeping.
		return 0, true, nil
	}
	_ = ctx
	return 0, false, nil
}

// Run is the package-level convenience: parse and execute a script with
// a fresh interpreter.
func Run(ctx context.Context, c *Compiler, src, dir string, vars map[string]string, stdio runtime.StdIO) (int, error) {
	in := NewInterp(c, dir, vars, stdio)
	return in.RunScript(ctx, src)
}
