package core

import (
	"fmt"
	"slices"

	"repro/internal/agg"
	"repro/internal/annot"
	"repro/internal/commands"
	"repro/internal/dfg"
	"repro/internal/shell"
)

// Stage is one fully-expanded pipeline stage: concrete command name,
// argv, and resolved redirections.
type Stage struct {
	Name   string
	Args   []string
	Redirs []Redir
}

// Redir is a resolved redirection.
type Redir struct {
	N      int // -1 = operator default
	Op     shell.RedirOp
	Target string
	// Body is the heredoc payload for RedirHeredoc, already expanded
	// when the delimiter was unquoted.
	Body string
}

// RegionIO binds a region's outer streams.
type RegionIO struct {
	// Stdin names the file feeding the region, "" meaning the script's
	// standard input.
	StdinFile string
	// Stdout names the file the region writes, "" meaning the script's
	// standard output; Append marks >>.
	StdoutFile string
	Append     bool
}

// CompilePipeline lifts one parallelizable region — a pipeline of
// concrete stages — into a dataflow graph (§5.1 Translation Pass). Every
// stage becomes a node (even E-class ones, which simply never
// parallelize); stream operands become ordered input edges.
func (c *Compiler) CompilePipeline(stages []Stage, io RegionIO) (*dfg.Graph, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("core: empty pipeline")
	}
	g := dfg.New()
	// prevOut is the dangling pipe from the previous stage.
	var prevOut *dfg.Edge

	for si, st := range stages {
		inv := c.Cmds.Classify(st.Name, st.Args)
		node := dfg.NewNode(dfg.KindCommand, st.Name, nil, inv.Class)

		// Per-stage redirections override the ambient bindings.
		stdinFile, stdoutFile := "", ""
		stdoutAppend := false
		stdinHeredoc := false
		stdinBody := ""
		for _, r := range st.Redirs {
			switch {
			case r.Op == shell.RedirIn && (r.N < 0 || r.N == 0):
				stdinFile = r.Target
				stdinHeredoc = false
			case r.Op == shell.RedirHeredoc && (r.N < 0 || r.N == 0):
				stdinHeredoc, stdinBody = true, r.Body
				stdinFile = ""
			case r.Op == shell.RedirOut && (r.N < 0 || r.N == 1):
				stdoutFile = r.Target
			case r.Op == shell.RedirAppend && (r.N < 0 || r.N == 1):
				stdoutFile, stdoutAppend = r.Target, true
			default:
				return nil, fmt.Errorf("core: unsupported redirection %s on %s", r.Op, st.Name)
			}
		}

		// Work out the node's input edges in consumption order.
		// Stream operands become placeholders; the rest stay literal.
		streamPaths := map[int]int{} // arg index -> input edge order
		order := 0
		hasStdin := false
		operandArgIdx := operandIndexes(st.Args, inv)
		for _, in := range inv.Inputs {
			switch in.Kind {
			case annot.StreamStdin:
				// One slot however often stdin is named: `paste - -`
				// reads the one stream alternately.
				if !hasStdin {
					hasStdin = true
					order++ // reserve the slot; stdin handled below
				}
			case annot.StreamFile:
				idx, ok := takeOperand(operandArgIdx, in.Path, st.Args)
				if !ok {
					return nil, fmt.Errorf("core: cannot locate operand %q of %s", in.Path, st.Name)
				}
				streamPaths[idx] = order
				order++
			}
		}
		// Mid-pipeline stages with no declared inputs still consume the
		// incoming pipe (conservative: most commands read stdin).
		if !hasStdin && len(inv.Inputs) == 0 && (si > 0 || stdinFile != "" || stdinHeredoc) {
			hasStdin = true
		}

		// Build the argv template.
		for i, a := range st.Args {
			if ord, ok := streamPaths[i]; ok {
				node.Args = append(node.Args, dfg.InArg(ord))
				continue
			}
			node.Args = append(node.Args, dfg.Lit(a))
		}
		g.AddNode(node)

		// Wire input edges in consumption order.
		node.In = make([]*dfg.Edge, order)
		stdinSlot := -1
		slot := 0
		for _, in := range inv.Inputs {
			switch in.Kind {
			case annot.StreamStdin:
				if stdinSlot < 0 {
					stdinSlot = slot
					slot++
				}
			case annot.StreamFile:
				e := g.AddEdge(&dfg.Edge{Source: dfg.Binding{Kind: dfg.BindFile, Path: in.Path}, To: node})
				node.In[slot] = e
				slot++
			}
		}
		if hasStdin && stdinSlot < 0 {
			// Synthesized stdin consumption (undeclared-input command).
			e := &dfg.Edge{To: node}
			g.AddEdge(e)
			node.In = append(node.In, e)
			stdinSlot = len(node.In) - 1
		}
		node.StdinInput = stdinSlot

		// Bind the stdin slot.
		if stdinSlot >= 0 && node.In[stdinSlot] == nil {
			e := &dfg.Edge{To: node}
			g.AddEdge(e)
			node.In[stdinSlot] = e
		}
		if stdinSlot >= 0 {
			e := node.In[stdinSlot]
			switch {
			case stdinHeredoc:
				e.Source = dfg.Binding{Kind: dfg.BindLiteral, Data: stdinBody}
				// The incoming pipe, if any, goes unread.
				if si > 0 && prevOut != nil {
					prevOut.Sink = dfg.Binding{Kind: dfg.BindNone}
					prevOut = nil
				}
			case stdinFile != "":
				e.Source = dfg.Binding{Kind: dfg.BindFile, Path: stdinFile}
				// The incoming pipe, if any, goes unread.
				if si > 0 && prevOut != nil {
					prevOut.Sink = dfg.Binding{Kind: dfg.BindNone}
					prevOut = nil
				}
			case si > 0:
				if prevOut == nil {
					// Previous stage redirected its stdout to a file;
					// the pipe delivers EOF immediately.
					e.Source = dfg.Binding{Kind: dfg.BindNone}
				} else {
					e.From = prevOut.From
					// Replace the dangling edge with this one.
					replaceDangling(g, prevOut, e)
					prevOut = nil
				}
			case io.StdinFile != "":
				e.Source = dfg.Binding{Kind: dfg.BindFile, Path: io.StdinFile}
			default:
				e.Source = dfg.Binding{Kind: dfg.BindStdin}
			}
		} else if si > 0 && prevOut != nil {
			// This stage ignores the incoming pipe entirely.
			prevOut.Sink = dfg.Binding{Kind: dfg.BindNone}
			prevOut = nil
		}

		// Attach the aggregator for parallelizable pure commands.
		if inv.Class == annot.Pure {
			flagLits := literalArgs(node)
			if spec, ok := c.resolveAgg(st.Name, flagLits, inv); ok {
				node.Agg = spec
			}
		}

		// Output edge: pipe to next stage, or the stage's redirect, or
		// the region binding for the last stage.
		out := &dfg.Edge{From: node}
		g.AddEdge(out)
		node.Out = append(node.Out, out)
		switch {
		case stdoutFile != "":
			out.Sink = dfg.Binding{Kind: dfg.BindFile, Path: stdoutFile, Append: stdoutAppend}
			prevOut = nil
		case si == len(stages)-1:
			if io.StdoutFile != "" {
				out.Sink = dfg.Binding{Kind: dfg.BindFile, Path: io.StdoutFile, Append: io.Append}
			} else {
				out.Sink = dfg.Binding{Kind: dfg.BindStdout}
			}
			prevOut = nil
		default:
			prevOut = out
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: compiled graph invalid: %w", err)
	}
	return g, nil
}

// replaceDangling rewires the producer of old to produce into e, and
// drops old from the graph.
func replaceDangling(g *dfg.Graph, old, e *dfg.Edge) {
	from := old.From
	e.From = from
	for i, oe := range from.Out {
		if oe == old {
			from.Out[i] = e
		}
	}
	old.From = nil
	g.RemoveDetachedEdge(old)
}

// operandIndexes maps each operand (in operand order) to its argv index.
func operandIndexes(args []string, inv *annot.Invocation) []int {
	// Re-derive the operand positions by matching the OptionSet's
	// operand list against argv left to right.
	idxs := make([]int, 0, len(inv.Opts.Operands))
	next := 0
	for _, op := range inv.Opts.Operands {
		for i := next; i < len(args); i++ {
			if args[i] == op {
				idxs = append(idxs, i)
				next = i + 1
				break
			}
		}
	}
	return idxs
}

// takeOperand finds the argv index of the given operand path, consuming
// matches left to right so repeated paths resolve in order.
func takeOperand(operandIdxs []int, path string, args []string) (int, bool) {
	for i, idx := range operandIdxs {
		if idx >= 0 && args[idx] == path {
			operandIdxs[i] = -1
			return idx, true
		}
	}
	return 0, false
}

// literalArgs extracts the literal (non-placeholder) args of a node —
// its flags and config operands.
func literalArgs(n *dfg.Node) []string {
	var out []string
	for _, a := range n.Args {
		if a.InputIdx < 0 {
			out = append(out, a.Text)
		}
	}
	return out
}

// resolveAgg picks the (map, aggregate) pair for a pure invocation.
// A user entry's own pair is the only one it has — a builtin pair of
// the same name would describe the replaced command — while library
// entries keep using the agg library. Nil MapArgs/AggArgs in a user
// pair default to the invocation's own flags (the sort / sort -m
// convention), and an empty MapName means the command maps itself.
func (c *Compiler) resolveAgg(name string, flagLits []string, inv *annot.Invocation) (*dfg.AggSpec, bool) {
	if e, _ := c.Cmds.Entry(name); e.User {
		if e.Agg == nil {
			return nil, false
		}
		spec := *e.Agg
		if spec.MapName == "" {
			spec.MapName = name
		}
		if spec.MapArgs == nil {
			spec.MapArgs = flagLits
		}
		if spec.AggArgs == nil {
			spec.AggArgs = flagLits
		}
		return &spec, true
	}
	return agg.Resolve(name, flagLits, inv)
}

// Optimize applies the count-pair rule and then the parallelization
// transformations, in place.
func (c *Compiler) Optimize(g *dfg.Graph) {
	c.countPairs(g)
	dfg.Apply(g, c.dfgOptions())
}

// countPairs is the count-pair rule: a builtin `sort FLAGS` whose one
// consumer is a builtin plain `uniq -c` becomes one pure stage,
// `pash-sort-count FLAGS`, when sort's own parser takes FLAGS as a total
// order with no -m, -c, -o or -u (commands.SortCountable). Its maps count
// lines in a table and sort only the distinct ones; its aggregate merges
// the counts by line and sums them. Under a total order lines that
// compare equal are byte-equal, so the stage prints what the pair
// prints. When the pair's one consumer is in turn a builtin `sort -n` or
// `sort -rn` (commands.SortRankable), the three become one
// count-and-rank stage, `pash-count-rank -n` or `-rn`, over the first
// sort's inputs: it ranks the table by count and line instead of
// printing it for the last sort to parse and sort again. A user command
// under any of the names, any other uniq argv and any other sort keep
// the commands. An emitted script keeps them too: OptimizeForEmission
// does not run the rule, so -emit prints the script's own commands.
func (c *Compiler) countPairs(g *dfg.Graph) {
	for _, n := range slices.Clone(g.Nodes) {
		if n.Kind != dfg.KindCommand || n.Name != "sort" || n.Class != annot.Pure || len(n.Out) != 1 || c.isUser(n.Name) {
			continue
		}
		u := n.Out[0].To
		if u == nil || u.Kind != dfg.KindCommand || u.Name != "uniq" || c.isUser(u.Name) ||
			len(u.In) != 1 || u.StdinInput != 0 || !slices.Equal(u.Args, []dfg.Arg{dfg.Lit("-c")}) {
			continue
		}
		flags := literalArgs(n)
		if !commands.SortCountable(flags) {
			continue
		}
		g.Absorb(n)
		name := "pash-sort-count"
		if reverse, ok := ranks(n); ok {
			name, flags = "pash-count-rank", []string{"-n"}
			if reverse {
				flags[0] = "-rn"
			}
			g.Absorb(n)
			args := []dfg.Arg{dfg.Lit(flags[0])}
			for _, a := range n.Args {
				if a.InputIdx >= 0 {
					args = append(args, a)
				}
			}
			n.Args = args
		}
		n.Name = name
		n.Agg, _ = agg.Resolve(name, flags, nil)
	}
}

// ranks reports whether the count stage n feeds only a sort that reads
// it on stdin and orders numerically by whole line
// (commands.SortRankable), and whether that sort is reversed. The sort
// is the builtin: the count pair's own sort was.
func ranks(n *dfg.Node) (reverse, ok bool) {
	if len(n.Out) != 1 {
		return false, false
	}
	s := n.Out[0].To
	if s == nil || s.Kind != dfg.KindCommand || s.Name != "sort" || s.Class != annot.Pure ||
		len(s.In) != 1 || s.StdinInput != 0 || len(s.Out) != 1 {
		return false, false
	}
	flags := literalArgs(s)
	if len(flags) != len(s.Args) {
		return false, false
	}
	return commands.SortRankable(flags)
}

// OptimizeForEmission applies the transformations with the barrier split
// forced and stage fusion off: emitted scripts run real processes with
// no chunk framing, so the streaming round-robin split (whose outputs
// interleave the input) cannot be reassembled there, and a fused node
// has no shell rendering (its kernels exist only in-process).
func (c *Compiler) OptimizeForEmission(g *dfg.Graph) {
	opts := c.dfgOptions()
	opts.Emit, opts.KernelCapable = true, nil
	dfg.Apply(g, opts)
}
