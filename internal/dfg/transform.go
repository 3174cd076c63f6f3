package dfg

import (
	"strings"

	"repro/internal/annot"
	"repro/internal/commands"
)

// Options configures the parallelization transformations and the runtime
// behaviours planned on the resulting graph. The configurations of Fig. 7
// are presets over these fields (core.Preset):
//
//	No Eager:       Split = false, Eager = false
//	Blocking Eager: Split = false, Eager = true, EagerBytes = 1 MiB
//	Parallel:       Split = false, Eager = true
//	Par + Split:    Split = true,  Eager = true
//	Par + B.Split:  Split = true,  Eager = true, InputAwareSplit = true
type Options struct {
	// Width is the parallelism factor n (the paper sweeps 2..64).
	Width int
	// Split enables the t2 transformation: inserting split+cat around
	// single-input parallelizable nodes.
	Split bool
	// InputAwareSplit plans the file-range split, which avoids reading
	// its whole input first (§5.2 Splitting Challenges), for splits whose
	// input is a graph-input file of known size.
	InputAwareSplit bool
	// Eager places eager relay buffers where laziness would serialize the
	// graph (§5.2 Overcoming Laziness); EagerBytes bounds each of them
	// (Blocking Eager in Fig. 7), 0 leaves them unbounded.
	Eager      bool
	EagerBytes int
	// Emit plans a graph that is rendered as a shell script, where real
	// processes have no chunk framing: every split is the barrier split.
	// Fused nodes have no rendering either, so an emitting caller leaves
	// KernelCapable nil, as core's OptimizeForEmission does.
	Emit bool
	// KernelCapable reports whether a command invocation has a
	// composable kernel implementation (commands.Registry.KernelCapable). It
	// drives the post-transformation fusion pass; nil is the one way to
	// turn fusion off.
	KernelCapable func(name string, args []string) bool
	// AggFanIn shapes the aggregation stage of parallelized pure
	// commands: 0 picks automatically (fan-in-4 trees once the width
	// reaches aggTreeMinWidth, for associative aggregators), a negative
	// value forces the flat n-ary aggregate, and k >= 2 forces fan-in-k
	// trees whenever the width exceeds k.
	AggFanIn int
}

// Aggregation-tree defaults: trees replace the flat aggregate once
// enough replicas feed it that the single sequential merge becomes the
// width-scaling bottleneck.
const (
	defaultAggFanIn = 4
	aggTreeMinWidth = 8
)

// aggFanIn resolves the tree shape for one parallelized pure node.
func aggFanIn(opts Options, width int, spec *AggSpec) int {
	if spec == nil || !spec.Associative {
		return width // flat: correctness first
	}
	switch {
	case opts.AggFanIn < 0:
		return width
	case opts.AggFanIn >= 2:
		return opts.AggFanIn
	default:
		if width >= aggTreeMinWidth {
			return defaultAggFanIn
		}
		return width
	}
}

// Apply runs the parallelization transformations to fixpoint: t1 (input
// concatenation), t2 (split insertion, when enabled), and the node
// parallelization transformation T for stateless and pure nodes. It then
// plans eager placement. The graph is modified in place.
func Apply(g *Graph, opts Options) {
	if opts.Width < 2 {
		planEager(g, opts)
		Fuse(g, opts)
		limitPrefixes(g, opts)
		return
	}
	// t1: concatenate multi-input parallelizable nodes so T can fire.
	for _, n := range snapshot(g.Nodes) {
		tryInsertCat(g, n)
	}
	// Alternate: (a) run T to fixpoint so parallelism commutes down the
	// graph, then (b) insert a single split at the first spot that still
	// lacks a source of parallelism, and repeat. One split then serves a
	// whole downstream chain, instead of one split per stage.
	for {
		for changed := true; changed; {
			changed = false
			for _, n := range snapshot(g.Nodes) {
				if tryParallelize(g, n, opts) {
					changed = true
				}
			}
		}
		if !opts.Split {
			break
		}
		inserted := false
		for _, n := range snapshot(g.Nodes) {
			if trySplit(g, n, opts) {
				inserted = true
				break
			}
		}
		if !inserted {
			break
		}
	}
	planEager(g, opts)
	Fuse(g, opts)
	limitPrefixes(g, opts)
}

// limitPrefixes writes the line limits of prefix-takers onto the graph:
// the node whose only output is the standard input of a node that takes
// K lines gets Limit K. A limited sort -m aggregate passes its limit on
// to every node feeding it — the sort maps and the tree's interior
// merges — because the first K lines of a merge of sorted runs are among
// the first K of each run. No other aggregate passes a limit on: uniq
// -c's first K output lines, say, can need more than K input lines. An
// emitted script has no way to say a limit, so it gets none.
func limitPrefixes(g *Graph, opts Options) {
	if opts.Emit {
		return
	}
	var limit func(n *Node, k int)
	limit = func(n *Node, k int) {
		if n == nil || len(n.Out) != 1 {
			return
		}
		n.Limit = k
		if n.Kind == KindAgg && n.Name == "sort" {
			for _, e := range n.In {
				limit(e.From, k)
			}
		}
	}
	for _, n := range g.Nodes {
		if n.Agg != nil && n.Agg.Takes > 0 && n.Agg.Takes != commands.TakesUnknown && n.StdinInput >= 0 {
			limit(n.In[n.StdinInput].From, n.Agg.Takes)
		}
	}
}

func snapshot(ns []*Node) []*Node {
	out := make([]*Node, len(ns))
	copy(out, ns)
	return out
}

// parallelizable reports whether T can apply to the node at all.
func parallelizable(n *Node, opts Options) bool {
	switch n.Kind {
	case KindCommand:
	default:
		return false
	}
	if len(n.Out) != 1 {
		return false
	}
	switch n.Class {
	case annot.Stateless:
		return true
	case annot.Pure:
		return n.Agg != nil
	}
	return false
}

// tryInsertCat applies t1: a parallelizable node consuming k > 1 inputs
// in order is rewired to consume a single cat of those inputs. All the
// node's argv input placeholders collapse to stdin consumption.
func tryInsertCat(g *Graph, n *Node) bool {
	if n.Kind != KindCommand || len(n.In) < 2 {
		return false
	}
	if n.Class != annot.Stateless && n.Class != annot.Pure {
		return false
	}
	if !consumesInOrder(n) {
		return false
	}
	cat := g.AddNode(NewNode(KindCat, "cat", nil, annot.Stateless))
	ins := snapshotEdges(n.In)
	for i, e := range ins {
		e.To = cat
		cat.In = append(cat.In, e)
		cat.Args = append(cat.Args, InArg(i))
	}
	n.In = nil
	e := g.Connect(cat, n)
	_ = e
	// The node now reads the concatenation from stdin.
	n.Args = dropInputPlaceholders(n.Args)
	n.StdinInput = 0
	return true
}

func snapshotEdges(es []*Edge) []*Edge {
	out := make([]*Edge, len(es))
	copy(out, es)
	return out
}

// consumesInOrder reports whether the node treats its multiple inputs as
// a simple ordered concatenation, i.e. cmd f1 f2 == cat f1 f2 | cmd.
// This is false for commands that emit per-file output (wc's rows), and
// false for grep unless -h suppresses its multi-file name prefixes.
func consumesInOrder(n *Node) bool {
	switch n.Name {
	case "cat", "sed", "tr", "cut", "head", "tail", "fold",
		"rev", "iconv", "nl", "uniq", "pash-sort-count", "pash-count-rank":
		return true
	case "sort":
		// sort -m interleaves its inputs (an N-way merge), so
		// `sort -m f1 f2` != `cat f1 f2 | sort -m`: with a single stdin
		// stream the merge degenerates to a passthrough. Plain sort
		// re-orders everything anyway, so concatenation is safe.
		for _, a := range n.Args {
			if a.InputIdx >= 0 || !strings.HasPrefix(a.Text, "-") {
				continue
			}
			// Skip value-taking options (-k2n, -t:, -oFILE, --parallel=N)
			// whose attached values could contain an 'm'.
			if strings.HasPrefix(a.Text, "-k") || strings.HasPrefix(a.Text, "-t") ||
				strings.HasPrefix(a.Text, "-o") || strings.HasPrefix(a.Text, "--") {
				continue
			}
			if strings.ContainsRune(a.Text[1:], 'm') {
				return false
			}
		}
		return true
	case "grep":
		if len(n.In) <= 1 {
			return true
		}
		for _, a := range n.Args {
			if a.InputIdx < 0 && a.Text == "-h" {
				return true
			}
		}
		return false
	}
	return false
}

// dropInputPlaceholders rewrites input placeholder args after the node's
// stream inputs have been rerouted to stdin: the first placeholder
// becomes the conventional "-" operand (preserving argument position,
// which matters for commands like comm -23 - f2), and the rest vanish
// (they were concatenated into the same stream).
func dropInputPlaceholders(args []Arg) []Arg {
	out := make([]Arg, 0, len(args))
	first := true
	for _, a := range args {
		if a.InputIdx < 0 {
			out = append(out, a)
			continue
		}
		if first {
			out = append(out, Lit("-"))
			first = false
		}
	}
	return out
}

// tryParallelize applies the main transformation T (§4.2): a
// parallelizable node whose single input is produced by a cat with n > 1
// inputs is replaced by n replicas (S) or n maps plus an aggregate (P),
// commuting the cat to after the replicas (S) or eliminating it (P).
func tryParallelize(g *Graph, n *Node, opts Options) bool {
	if !parallelizable(n, opts) {
		return false
	}
	if len(n.In) != 1 || n.In[0].From == nil {
		return false
	}
	pred := n.In[0].From
	switch pred.Kind {
	case KindCat:
		if len(pred.In) < 2 {
			return false
		}
	case KindMerge:
		// A framed round-robin chain: a stateless consumer absorbs the
		// merge and continues the frame discipline; a commutative pure
		// consumer absorbs it outright, its maps reading one replica's
		// stream each (chunk pipes carry framing as boundaries, not
		// bytes). Both rely on the replicas' chunks ending where lines
		// end, which is what annot's Stateless promises (a tr that
		// rewrites newlines is refined to pure and never replicated).
		// Order-sensitive pure commands need contiguous chunks and stop
		// here.
		if len(pred.In) < 2 || !interleavable(n) {
			return false
		}
	default:
		return false
	}

	switch n.Class {
	case annot.Stateless:
		parallelizeStateless(g, n, pred)
	case annot.Pure:
		parallelizePure(g, n, pred, opts)
	}
	return true
}

// interleavable reports whether n may consume a block-interleaved
// partition of its input: a stateless command under chunk framing, or a
// pure command whose output ignores line order.
func interleavable(n *Node) bool {
	return n.Class == annot.Stateless || (n.Agg != nil && n.Agg.Commutative)
}

// detachPredecessor removes the cat node feeding n and returns the edges
// that fed the cat, detached and ready to be rewired to replicas.
func detachPredecessor(g *Graph, n *Node) []*Edge {
	pred := n.In[0].From
	link := n.In[0]
	feeds := snapshotEdges(pred.In)
	for _, e := range feeds {
		e.To = nil
	}
	pred.In = nil
	g.removeEdge(link)
	g.removeNode(pred)
	return feeds
}

// feedFramed reports whether an edge carries chunk-framed round-robin
// data: it comes from a round-robin split or from a framed replica.
func feedFramed(e *Edge) bool {
	if e.From == nil {
		return false
	}
	return (e.From.Kind == KindSplit && e.From.Split == RoundRobinSplit) || e.From.Framed
}

// parallelizeStateless replaces v with n replicas and commutes the
// collector after them (Fig. 4): v(x1···xn) => v(x1)···v(xn). When every
// feed carries chunk-framed round-robin data, the replicas run framed
// and the collector is an order-restoring KindMerge instead of a plain
// cat.
func parallelizeStateless(g *Graph, n *Node, pred *Node) {
	out := n.Out[0]
	feeds := detachPredecessor(g, n)

	framed := len(feeds) > 0
	for _, feed := range feeds {
		if !feedFramed(feed) {
			framed = false
			break
		}
	}
	var collector *Node
	if framed {
		collector = g.AddNode(NewNode(KindMerge, "pash-rr-merge", nil, annot.Stateless))
	} else {
		collector = g.AddNode(NewNode(KindCat, "cat", nil, annot.Stateless))
	}
	for i, feed := range feeds {
		replica := g.AddNode(NewNode(KindCommand, n.Name, cloneLits(n.Args), n.Class))
		replica.Agg = n.Agg
		replica.noSplit = true
		replica.Framed = framed
		feed.To = replica
		replica.In = []*Edge{feed}
		replica.StdinInput = 0
		g.Connect(replica, collector)
		collector.Args = append(collector.Args, InArg(i))
	}
	// Route the collector to the old consumer edge.
	out.From = collector
	collector.Out = append(collector.Out, out)
	n.Out = nil
	n.In = nil
	g.removeNode(n)
}

// parallelizePure replaces v with n map instances feeding an aggregate
// stage: v(x1···xn) => agg(m(x1)···m(xn)). For associative aggregators
// at high widths, the aggregate is a fan-in-k tree of KindAgg nodes
// instead of one flat n-ary node: the sequential merge of n partial
// results is the other width-scaling bottleneck, and a tree turns its
// critical path from O(n) input streams into O(log_k n) levels whose
// leaves run in parallel.
func parallelizePure(g *Graph, n *Node, pred *Node, opts Options) {
	out := n.Out[0]
	feeds := detachPredecessor(g, n)

	maps := make([]*Node, len(feeds))
	for i, feed := range feeds {
		m := g.AddNode(NewNode(KindMap, n.Agg.MapName, litArgs(n.Agg.MapArgs), annot.Pure))
		m.noSplit = true
		feed.To = m
		m.In = []*Edge{feed}
		m.StdinInput = 0
		maps[i] = m
	}
	agg := buildAggTree(g, n.Agg, maps, aggFanIn(opts, len(maps), n.Agg))
	out.From = agg
	agg.Out = append(agg.Out, out)
	n.Out = nil
	n.In = nil
	g.removeNode(n)
}

// buildAggTree combines the children's outputs through KindAgg nodes
// with at most fanIn inputs each, returning the root aggregate.
// Children are grouped left to right at every level, so the root
// consumes partial results in original stream order — the property the
// boundary-fixing aggregators (and sort -m's stability) rely on.
func buildAggTree(g *Graph, spec *AggSpec, children []*Node, fanIn int) *Node {
	if fanIn < 2 {
		fanIn = len(children)
	}
	newAgg := func(group []*Node) *Node {
		a := g.AddNode(NewNode(KindAgg, spec.AggName, litArgs(spec.AggArgs), annot.Pure))
		for i, c := range group {
			g.Connect(c, a)
			a.Args = append(a.Args, InArg(i))
		}
		return a
	}
	for len(children) > fanIn {
		var next []*Node
		for lo := 0; lo < len(children); lo += fanIn {
			hi := lo + fanIn
			if hi > len(children) {
				hi = len(children)
			}
			group := children[lo:hi]
			if len(group) == 1 {
				// A trailing singleton needs no combining stage.
				next = append(next, group[0])
				continue
			}
			next = append(next, newAgg(group))
		}
		children = next
	}
	return newAgg(children)
}

func cloneLits(args []Arg) []Arg {
	out := make([]Arg, len(args))
	copy(out, args)
	return out
}

func litArgs(ss []string) []Arg {
	out := make([]Arg, len(ss))
	for i, s := range ss {
		out[i] = Lit(s)
	}
	return out
}

// trySplit applies t2: a parallelizable node with a single input that is
// not already produced by a cat or split gets a split node inserted
// before it, so T can fire on the next pass.
func trySplit(g *Graph, n *Node, opts Options) bool {
	if !parallelizable(n, opts) || n.noSplit {
		return false
	}
	// Prefix-takers (head) read a bounded prefix and hang up; a split
	// would drain the entire input behind a barrier to feed maps that
	// discard almost all of it, and kill early-exit propagation.
	if n.Agg != nil && n.Agg.Takes > 0 {
		return false
	}
	if len(n.In) != 1 {
		return false
	}
	in := n.In[0]
	if in.From != nil && (in.From.Kind == KindCat || in.From.Kind == KindSplit) {
		return false
	}
	// Don't split tiny static sources like `echo`; only graph inputs and
	// command outputs are worth dispersing. (The cost model in the paper
	// is similarly blunt: split everything the user asked to.)
	split := g.AddNode(NewNode(KindSplit, "pash-split", nil, annot.Pure))
	split.Split = splitImpl(n, in, opts)
	in.To = split
	split.In = []*Edge{in}
	split.StdinInput = 0
	n.In = nil
	// split produces width outputs; feed them through a cat so that the
	// next tryParallelize pass commutes it (t2 inserts "cat preceded by
	// its inverse split", §4.2).
	cat := g.AddNode(NewNode(KindCat, "cat", nil, annot.Stateless))
	for i := 0; i < opts.Width; i++ {
		g.Connect(split, cat)
		cat.Args = append(cat.Args, InArg(i))
	}
	g.Connect(cat, n)
	n.StdinInput = 0
	n.Args = dropInputPlaceholders(n.Args)
	return true
}

// splitImpl picks the implementation of the split t2 inserts in front of
// n, whose input is in. This is the whole decision: the executor runs
// what the node says. Stream with the round-robin splitter when the
// consumer is stateless (framing is sound) or commutative (order is
// moot); serve a seekable graph-input file as byte ranges when the
// input-aware split is on; order-sensitive pure consumers over anything
// else keep the barrier split, whose contiguous chunks their aggregators
// depend on. An emitted graph always gets the barrier.
func splitImpl(n *Node, in *Edge, opts Options) SplitImpl {
	switch {
	case opts.Emit:
		return BarrierSplit
	case opts.InputAwareSplit && in.From == nil && in.Source.Kind == BindFile:
		return FileRangeSplit
	case interleavable(n):
		return RoundRobinSplit
	}
	return BarrierSplit
}

// planEager marks the edges that get eager relay buffers at execution:
// every input after the first of a multi-input consumer (cat, agg, comm)
// and every split output except the last (§5.2), each carrying the
// configured byte bound (0 = unbounded). Without Eager it marks nothing.
func planEager(g *Graph, opts Options) {
	if !opts.Eager {
		return
	}
	for _, n := range g.Nodes {
		if len(n.In) > 1 {
			for _, e := range n.In[1:] {
				e.Eager, e.EagerBytes = true, opts.EagerBytes
			}
		}
		if n.Kind == KindSplit && len(n.Out) > 1 {
			for _, e := range n.Out[:len(n.Out)-1] {
				e.Eager, e.EagerBytes = true, opts.EagerBytes
			}
		}
	}
}
