package core

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/commands"
	"repro/internal/dfg"
	"repro/internal/shell"
)

// Plan is an ahead-of-time compilation of a script: a sequence of items
// that are either verbatim shell fragments (barriers, dynamic regions)
// or optimized dataflow graphs ready to be emitted as explicit parallel
// shell code (§5.2, Fig. 3).
type Plan struct {
	Items []PlanItem
}

// PlanItem is one element of a plan.
type PlanItem struct {
	// Verbatim carries unparallelized shell source (when Graph is nil).
	Verbatim string
	// Graph is a compiled, optimized region.
	Graph *dfg.Graph
	// Background marks items followed by &.
	Background bool
}

// Plan compiles src ahead of time. Regions whose words are fully static
// (after constant propagation of static assignments) are lifted and
// optimized for emission (barrier splits, no fusion — the constraints
// of real processes and FIFOs); everything else is preserved verbatim —
// PaSh's conservative treatment of incomplete information (§5.1).
func (c *Compiler) Plan(src string) (*Plan, error) {
	return c.plan(src, nil)
}

// PlanExec compiles like Plan but optimizes each region for in-process
// execution: stage fusion on, streaming splits where sound — the graphs
// the interpreter would actually run. Its items carry KindFused nodes
// and so cannot be emitted as a shell script; use it for inspection
// (Plan.Dot, `pash -graph`).
func (c *Compiler) PlanExec(src string) (*Plan, error) {
	return c.PlanExecIn(src, commands.OSFS{})
}

// PlanExecIn is PlanExec for a job that would see the filesystem as fs:
// each region's width is decided as the interpreter would decide it there
// (regionWidth), so `pash -graph` shows the plan `pash` would run. No
// stdin is bound yet, so a region reading it has no stated size.
func (c *Compiler) PlanExecIn(src string, fs commands.OSFS) (*Plan, error) {
	return c.plan(src, &RegionInput{FS: fs, Stdin: unboundStdin{}})
}

// unboundStdin stands for the stdin of a job not started yet.
type unboundStdin struct{ io.Reader }

// plan compiles src for execution in the given job environment, or for
// emission when exec is nil.
func (c *Compiler) plan(src string, exec *RegionInput) (*Plan, error) {
	list, err := shell.Parse(src)
	if err != nil {
		return nil, err
	}
	p := &Plan{}
	env := shell.NewEnv()
	c.planList(p, list, env, exec)
	return p, nil
}

// planList walks a list, lifting what it can.
func (c *Compiler) planList(p *Plan, list *shell.List, env *shell.Env, exec *RegionInput) {
	for _, item := range list.Items {
		c.planCommand(p, item.Cmd, env, item.Background, exec)
	}
}

func (c *Compiler) planCommand(p *Plan, cmd shell.Command, env *shell.Env, background bool, exec *RegionInput) {
	verbatim := func() {
		p.Items = append(p.Items, PlanItem{Verbatim: shell.Print(cmd), Background: background})
	}
	switch cmd := cmd.(type) {
	case *shell.Simple:
		// Track static assignments for constant propagation.
		if len(cmd.Args) == 0 {
			x := &shell.Expander{Env: env}
			ok := true
			for _, a := range cmd.Assigns {
				v, err := x.ExpandString(a.Value)
				if err != nil {
					ok = false
					break
				}
				env.Set(a.Name, v)
			}
			_ = ok
			p.Items = append(p.Items, PlanItem{Verbatim: shell.Print(cmd), Background: background})
			return
		}
		if g, ok := c.tryCompileStatic([]*shell.Simple{cmd}, env, exec); ok {
			p.Items = append(p.Items, PlanItem{Graph: g, Background: background})
			return
		}
		verbatim()
	case *shell.Pipeline:
		var simples []*shell.Simple
		for _, s := range cmd.Cmds {
			sc, ok := s.(*shell.Simple)
			if !ok {
				verbatim()
				return
			}
			simples = append(simples, sc)
		}
		if cmd.Negated {
			verbatim()
			return
		}
		if g, ok := c.tryCompileStatic(simples, env, exec); ok {
			p.Items = append(p.Items, PlanItem{Graph: g, Background: background})
			return
		}
		verbatim()
	default:
		// Compound commands are barriers; their bodies could be planned
		// recursively, but loop/conditional variables make inner regions
		// dynamic, so we keep them verbatim (the interpreter handles
		// them with full dynamic information instead).
		verbatim()
	}
}

// tryCompileStatic compiles a pipeline if every word expands statically
// (undefined variables count as dynamic — the conservative default).
func (c *Compiler) tryCompileStatic(simples []*shell.Simple, env *shell.Env, exec *RegionInput) (*dfg.Graph, bool) {
	x := &shell.Expander{Env: env, Strict: true}
	var stages []Stage
	for _, s := range simples {
		if len(s.Assigns) > 0 {
			return nil, false
		}
		var argv []string
		for _, w := range s.Args {
			fs, err := x.ExpandWord(w)
			if err != nil {
				return nil, false
			}
			argv = append(argv, fs...)
		}
		if len(argv) == 0 {
			return nil, false
		}
		st := Stage{Name: argv[0], Args: argv[1:]}
		for _, r := range s.Redirs {
			tgt, err := x.ExpandString(r.Target)
			if err != nil {
				return nil, false
			}
			st.Redirs = append(st.Redirs, Redir{N: r.N, Op: r.Op, Target: tgt})
		}
		stages = append(stages, st)
	}
	if exec == nil {
		g, err := c.CompilePipeline(stages, RegionIO{})
		if err != nil {
			return nil, false
		}
		c.OptimizeForEmission(g)
		return g, true
	}
	// The execution view is planned, and distributed, exactly as the
	// interpreter would: Plan.Dot shows the width decision and the shard
	// map.
	wp, lifted, err := c.regionWidth(stages, regionKey(stages), c.Opts.Width, *exec)
	if err != nil {
		return nil, false
	}
	g, err := c.compileAt(stages, wp, lifted)
	if err != nil {
		return nil, false
	}
	return g, true
}

// Emit renders the plan as a runnable POSIX script in the style of
// Fig. 3: named pipes, background jobs, a wait on the output producers,
// and PIPE-signal cleanup for stragglers. Runtime primitives (split,
// eager relays, custom aggregators) are invoked through the pash-prims
// helper binary, resolved via $PASH_PRIMS (default: pash-prims on PATH).
func (p *Plan) Emit(w io.Writer) error {
	fmt.Fprintln(w, "#!/bin/sh")
	fmt.Fprintln(w, "# Generated by pash: do not edit.")
	fmt.Fprintln(w, `: "${PASH_PRIMS:=pash-prims}"`)
	for i, item := range p.Items {
		if item.Graph == nil {
			fmt.Fprint(w, item.Verbatim)
			if item.Background {
				fmt.Fprint(w, " &")
			}
			fmt.Fprintln(w)
			continue
		}
		if err := emitGraph(w, item.Graph, i); err != nil {
			return err
		}
		if item.Background {
			// A whole region in the background would need job grouping;
			// regions already end with their own wait, so wrap in a
			// subshell.
			fmt.Fprintln(w, "# (region above runs in the foreground; & grouping unsupported)")
		}
	}
	return nil
}

// emitGraph renders one region.
func emitGraph(w io.Writer, g *dfg.Graph, regionID int) error {
	var b strings.Builder
	tmp := fmt.Sprintf("$pash_tmp_%d", regionID)
	fmt.Fprintf(&b, "# --- pash region %d (%d nodes) ---\n", regionID, len(g.Nodes))
	fmt.Fprintf(&b, "pash_tmp_%d=$(mktemp -d)\n", regionID)

	fifo := func(e *dfg.Edge) string { return fmt.Sprintf("%s/e%d", tmp, e.ID) }

	// Declare FIFOs for internal edges; eager edges get a second fifo on
	// the consumer side of the relay.
	for _, e := range g.Edges {
		if e.From != nil && e.To != nil {
			fmt.Fprintf(&b, "mkfifo %q\n", fifo(e))
			if e.Eager {
				fmt.Fprintf(&b, "mkfifo %q.eager\n", fifo(e))
			}
		}
	}

	// streamName resolves an edge to the name a consumer reads.
	readName := func(e *dfg.Edge) string {
		switch {
		case e.From == nil && e.Source.Kind == dfg.BindFile:
			return e.Source.Path
		case e.Eager:
			return fifo(e) + ".eager"
		default:
			return fifo(e)
		}
	}

	// Each background job's PID is appended to pash_pids so the cleanup
	// can signal stragglers (§5.2 Dangling FIFOs and Zombie Producers).
	fmt.Fprintf(&b, "pash_pids=\"\"\n")
	// Eager relays first (they must be reading before producers run into
	// full pipes, though FIFO opens synchronize either way).
	for _, e := range g.Edges {
		if e.Eager && e.From != nil && e.To != nil {
			fmt.Fprintf(&b, "\"$PASH_PRIMS\" eager < %q > %q &\n", fifo(e), fifo(e)+".eager")
			fmt.Fprintf(&b, "pash_pids=\"$pash_pids $!\"\n")
		}
	}

	haveOut := false
	for _, n := range g.Nodes {
		line, isOutput, err := renderNode(n, fifo, readName)
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%s &\n", line)
		if isOutput {
			haveOut = true
			fmt.Fprintf(&b, "pash_out=$!\n")
		} else {
			fmt.Fprintf(&b, "pash_pids=\"$pash_pids $!\"\n")
		}
	}
	if haveOut {
		// Block only on the region's output producer, then deliver PIPE
		// to any remaining upstream processes.
		fmt.Fprintf(&b, "wait $pash_out\n")
	}
	fmt.Fprintf(&b, "kill -PIPE $pash_pids 2>/dev/null\n")
	fmt.Fprintf(&b, "wait\n")
	fmt.Fprintf(&b, "rm -rf %q\n", tmp)
	fmt.Fprintf(&b, "# --- end region %d ---\n", regionID)
	_, err := io.WriteString(w, b.String())
	return err
}

// renderNode renders one node as a shell command line (without the
// trailing &). It reports whether the node feeds the region's primary
// output.
func renderNode(n *dfg.Node, fifo func(*dfg.Edge) string, readName func(*dfg.Edge) string) (string, bool, error) {
	var parts []string
	switch {
	case n.Kind == dfg.KindFused:
		// Fused nodes exist only in-process; OptimizeForEmission keeps
		// them out of emitted graphs.
		return "", false, fmt.Errorf("core: fused node %s cannot be emitted as shell", n)
	case n.Kind == dfg.KindSplit:
		parts = append(parts, `"$PASH_PRIMS"`, "split")
		parts = append(parts, shellQuote(readName(n.In[0])))
		for _, e := range n.Out {
			parts = append(parts, shellQuote(fifo(e)))
		}
		return strings.Join(parts, " "), false, nil
	case strings.HasPrefix(n.Name, "pash-agg-"):
		parts = append(parts, `"$PASH_PRIMS"`, strings.TrimPrefix(n.Name, "pash-"))
	default:
		parts = append(parts, shellQuote(n.Name))
	}
	for _, a := range n.Args {
		if a.InputIdx >= 0 {
			parts = append(parts, shellQuote(readName(n.In[a.InputIdx])))
			continue
		}
		parts = append(parts, shellQuote(a.Text))
	}
	// Stdin redirection.
	if n.StdinInput >= 0 {
		e := n.In[n.StdinInput]
		switch {
		case e.From == nil && e.Source.Kind == dfg.BindFile:
			parts = append(parts, "<", shellQuote(e.Source.Path))
		case e.From == nil && e.Source.Kind == dfg.BindStdin:
			// Inherit the script's stdin.
		case e.From == nil && e.Source.Kind == dfg.BindLiteral:
			// Heredoc payload: feed the literal body through a pipe so the
			// rendering stays one line (a real heredoc would need its body
			// after the command's newline, which the emitter's line-per-node
			// layout cannot accommodate).
			parts = append([]string{"printf", "%s", shellQuote(e.Source.Data), "|"}, parts...)
		case e.From == nil:
			parts = append(parts, "<", "/dev/null")
		default:
			parts = append(parts, "<", shellQuote(readName(e)))
		}
	}
	// Stdout redirection.
	isOutput := false
	if len(n.Out) > 0 && n.Kind != dfg.KindSplit {
		e := n.Out[0]
		switch {
		case e.To != nil:
			parts = append(parts, ">", shellQuote(fifo(e)))
		case e.Sink.Kind == dfg.BindFile && e.Sink.Append:
			parts = append(parts, ">>", shellQuote(e.Sink.Path))
			isOutput = true
		case e.Sink.Kind == dfg.BindFile:
			parts = append(parts, ">", shellQuote(e.Sink.Path))
			isOutput = true
		case e.Sink.Kind == dfg.BindNone:
			parts = append(parts, ">", "/dev/null")
		default:
			isOutput = true // stdout
		}
	}
	return strings.Join(parts, " "), isOutput, nil
}

// shellQuote quotes a string for safe inclusion in generated scripts.
func shellQuote(s string) string {
	if s == "" {
		return "''"
	}
	if strings.HasPrefix(s, "$pash_tmp_") {
		// FIFO paths embed the tmpdir variable on purpose.
		return `"` + s + `"`
	}
	safe := true
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '-' || c == '_' || c == '.' || c == '/' || c == ':' || c == ',' || c == '+' || c == '=' || c == '%' || c == '@') {
			safe = false
			break
		}
	}
	if safe {
		return s
	}
	return "'" + strings.ReplaceAll(s, "'", `'\''`) + "'"
}
