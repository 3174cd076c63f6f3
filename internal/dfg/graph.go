// Package dfg implements PaSh's dataflow graph model (§4.1) and the
// semantics-preserving parallelization transformations (§4.2).
//
// Nodes are commands; edges are streams (named files, pipes, or the
// graph's own inputs and outputs). Unlike generic dataflow models, a
// node's input edges are *ordered*: the model encodes the order in which
// a command consumes its inputs (cat f1 f2 reads f1 before f2), which is
// what makes the cat-commuting transformations sound.
package dfg

import (
	"fmt"
	"strings"

	"repro/internal/annot"
)

// NodeKind distinguishes ordinary commands from the runtime primitives
// that transformations introduce.
type NodeKind int

// Node kinds.
const (
	KindCommand NodeKind = iota
	KindCat              // concatenation (the paper's cat nodes)
	KindSplit            // input dispersal (t2)
	KindRelay            // identity relay (t3); eagerness is a runtime property
	KindMap              // replicated map instance of a P command
	KindAgg              // aggregate stage of a P command
	KindMerge            // order-restoring round-robin merge (inverse of a RR split)
	KindFused            // a collapsed chain of kernel-capable stateless commands
	KindRemote           // a worker-shipped chain (distributed data plane)
)

func (k NodeKind) String() string {
	switch k {
	case KindCommand:
		return "cmd"
	case KindCat:
		return "cat"
	case KindSplit:
		return "split"
	case KindRelay:
		return "relay"
	case KindMap:
		return "map"
	case KindAgg:
		return "agg"
	case KindMerge:
		return "merge"
	case KindFused:
		return "fused"
	case KindRemote:
		return "remote"
	}
	return "?"
}

// Arg is one argv template element: either a literal or a placeholder
// that the back-end instantiates with the concrete name of the node's
// i-th input stream (a FIFO path in generated scripts, a virtual stream
// in-process).
type Arg struct {
	Text     string
	InputIdx int // >= 0: placeholder for input edge i; -1: literal
}

// Lit builds a literal Arg.
func Lit(s string) Arg { return Arg{Text: s, InputIdx: -1} }

// InArg builds an input placeholder Arg.
func InArg(i int) Arg { return Arg{InputIdx: i} }

// Node is a DFG node: one command invocation.
type Node struct {
	ID    int
	Kind  NodeKind
	Name  string // command name
	Args  []Arg  // argv template (excluding the command name)
	Class annot.Class

	// In are the node's input edges in consumption order. StdinInput
	// names which of them (if any) is consumed from standard input; the
	// rest must appear as placeholders in Args.
	In         []*Edge
	Out        []*Edge
	StdinInput int // index into In, or -1

	// Agg carries the aggregator specification for P commands that the
	// transformation can parallelize; nil means no known aggregator.
	Agg *AggSpec

	// noSplit marks nodes created by the transformations themselves
	// (replicas, maps): t2 must not split them again, or the fixpoint
	// would diverge by splitting each replica recursively.
	noSplit bool

	// Split is a KindSplit node's implementation, chosen by the planner
	// (trySplit) and run as is by every executor. See SplitImpl.
	Split SplitImpl

	// Framed marks a replica that runs under the chunk-framing protocol:
	// the runtime invokes the command once per input chunk and emits
	// exactly one output chunk per input chunk (empty chunks included),
	// so a downstream KindMerge can reassemble the original order.
	// Framing is only sound for stateless commands — the same per-chunk
	// independence that justifies splitting them at all.
	Framed bool

	// Stages lists the collapsed command invocations of a KindFused node
	// in pipeline order. The fused executor composes their kernels in a
	// single goroutine; each stage reads the previous stage's output as
	// its standard input. Framing commutes through fusion: a fused node
	// built from framed replicas is itself Framed and keeps the
	// one-chunk-in/one-chunk-out discipline.
	Stages []FusedStage

	// Remote carries a KindRemote node's shipped work: the stage chain,
	// the assigned worker, and (for the file-range shape) the
	// self-sourced input slice. Immutable once planning finishes;
	// clones share it. See remote.go.
	Remote *RemoteSpec
}

// SplitImpl names the implementation a KindSplit node runs with.
type SplitImpl int

// Split implementations (internal/runtime/split.go).
const (
	// BarrierSplit reads its whole input, then deals contiguous
	// line-balanced partitions: sound for any producer and consumer.
	BarrierSplit SplitImpl = iota
	// RoundRobinSplit streams newline-aligned blocks to its outputs in
	// rotation, with no full-input barrier. Its outputs interleave the
	// input at block granularity, so the planner only picks it when the
	// interleaving cannot show: every consumer is framed and a KindMerge
	// restores order downstream, or the consumers are the maps of a
	// commutative pure command.
	RoundRobinSplit
	// FileRangeSplit serves a graph-input file as contiguous line-aligned
	// byte ranges read concurrently: no barrier, no pass over the input.
	FileRangeSplit
)

func (s SplitImpl) String() string {
	switch s {
	case BarrierSplit:
		return "barrier"
	case RoundRobinSplit:
		return "round-robin"
	case FileRangeSplit:
		return "file-range"
	}
	return "?"
}

// FusedStage is one command invocation inside a fused chain. Args are
// plain literals: fusable nodes consume standard input only, so no
// input placeholders survive into a stage.
type FusedStage struct {
	Name string
	Args []string
}

// AggSpec is a (map, aggregate) implementation pair for a P command
// (§3.2 Custom Aggregators): running MapName on each input chunk and
// AggName over the map outputs must reproduce the original command.
type AggSpec struct {
	MapName string
	MapArgs []string
	AggName string
	AggArgs []string
	// Associative marks aggregators whose output can be re-aggregated:
	// agg(agg(x1···xk)·agg(xk+1···xn)) == agg(x1···xn). Only associative
	// aggregators may be arranged into fan-in-k trees; the conservative
	// default (false) keeps the flat n-ary aggregate.
	Associative bool
	// StopsEarly marks prefix-taking commands (head -n K): they stop
	// reading after a bounded prefix, so inserting a split before them
	// (t2) is pure loss — the barrier split drains the whole input the
	// command would never have read, and early-exit propagation dies at
	// the barrier. T still applies when an upstream cat already
	// provides parallelism.
	StopsEarly bool
	// Commutative marks commands whose output depends only on the
	// multiset of their input lines: permuting the lines leaves the
	// output bytes unchanged. Their maps need no contiguous partition, so
	// such a command absorbs an order-restoring KindMerge in front of it
	// (each map reads one framed replica's interleaved stream as is) and
	// is fed by the streaming round-robin split instead of the barrier
	// split. The contract is exactly that permutation invariance;
	// internal/agg's TestCommutativeIsPermutationInvariant enforces it
	// for every spec that sets the flag and shows sort -f/-d failing it.
	Commutative bool
}

// ArgStrings renders the template with the provided per-input names.
func (n *Node) ArgStrings(inputName func(i int) string) []string {
	out := make([]string, 0, len(n.Args))
	for _, a := range n.Args {
		if a.InputIdx >= 0 {
			out = append(out, inputName(a.InputIdx))
			continue
		}
		out = append(out, a.Text)
	}
	return out
}

func (n *Node) String() string {
	if n.Kind == KindFused {
		names := make([]string, len(n.Stages))
		for i, st := range n.Stages {
			names[i] = st.Name
		}
		return fmt.Sprintf("#%d %s %s (%s)", n.ID, n.Kind, n.Class, strings.Join(names, "|"))
	}
	var parts []string
	for _, a := range n.Args {
		if a.InputIdx >= 0 {
			parts = append(parts, fmt.Sprintf("<in%d>", a.InputIdx))
		} else {
			parts = append(parts, a.Text)
		}
	}
	return fmt.Sprintf("#%d %s %s %s(%s)", n.ID, n.Kind, n.Class, n.Name, strings.Join(parts, " "))
}

// BindingKind says what a boundary edge connects to outside the graph.
type BindingKind int

// Edge boundary bindings.
const (
	BindNone    BindingKind = iota
	BindFile                // a named file
	BindStdin               // the script's standard input
	BindStdout              // the script's standard output
	BindLiteral             // inline literal data (a heredoc body)
)

// Binding is a graph-boundary attachment of an edge.
type Binding struct {
	Kind BindingKind
	Path string // for BindFile
	// Data is the inline payload for BindLiteral sources (heredoc
	// bodies, already expanded when the delimiter was unquoted).
	Data string
	// Append marks >> file sinks.
	Append bool
}

// Edge is a stream: it connects the output of one node to the input of
// another, or binds the graph to the outside world at either end.
type Edge struct {
	ID   int
	From *Node // nil = graph input
	To   *Node // nil = graph output

	Source Binding // meaningful when From == nil
	Sink   Binding // meaningful when To == nil

	// Eager is set during back-end planning: the edge gets an eager
	// relay buffer at execution (§5.2 Overcoming Laziness). EagerBytes
	// bounds that buffer (the Blocking Eager configuration of Fig. 7);
	// 0 leaves it unbounded.
	Eager      bool
	EagerBytes int
}

func (e *Edge) String() string {
	from := "input"
	if e.From != nil {
		from = fmt.Sprintf("#%d", e.From.ID)
	} else if e.Source.Kind == BindFile {
		from = "file:" + e.Source.Path
	} else if e.Source.Kind == BindStdin {
		from = "stdin"
	} else if e.Source.Kind == BindLiteral {
		from = "heredoc"
	}
	to := "output"
	if e.To != nil {
		to = fmt.Sprintf("#%d", e.To.ID)
	} else if e.Sink.Kind == BindFile {
		to = "file:" + e.Sink.Path
	} else if e.Sink.Kind == BindStdout {
		to = "stdout"
	}
	return fmt.Sprintf("e%d: %s -> %s", e.ID, from, to)
}

// Graph is a PaSh dataflow graph.
type Graph struct {
	Nodes  []*Node
	Edges  []*Edge
	nextID int
	// Window, when set, marks this plan as one leg of a streaming
	// execution: the graph runs once per window of an unbounded input,
	// and the spec says how windows trigger and how their results
	// compose. See Windowize.
	Window *WindowSpec
	// Width is the planner's width decision for this region — asked,
	// planned, and why — set where the region is planned, beside
	// Node.Split and Edge.EagerBytes. The zero value means "not recorded"
	// (a graph built by hand).
	Width WidthPlan
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// AddNode inserts a node and assigns its ID. Callers are responsible for
// setting StdinInput (use NewNode to get the -1 default).
func (g *Graph) AddNode(n *Node) *Node {
	n.ID = g.nextID
	g.nextID++
	g.Nodes = append(g.Nodes, n)
	return n
}

// NewNode builds a command node with no stdin binding.
func NewNode(kind NodeKind, name string, args []Arg, class annot.Class) *Node {
	return &Node{Kind: kind, Name: name, Args: args, Class: class, StdinInput: -1}
}

// AddEdge inserts an edge and assigns its ID.
func (g *Graph) AddEdge(e *Edge) *Edge {
	e.ID = g.nextID
	g.nextID++
	g.Edges = append(g.Edges, e)
	return e
}

// Connect adds an edge from one node's output to another's input,
// appending to the respective port lists.
func (g *Graph) Connect(from, to *Node) *Edge {
	e := g.AddEdge(&Edge{From: from, To: to})
	if from != nil {
		from.Out = append(from.Out, e)
	}
	if to != nil {
		to.In = append(to.In, e)
	}
	return e
}

// IDBound is one past the largest node or edge ID in the graph: IDs come
// from one counter, so a slice of this length is a table over both.
func (g *Graph) IDBound() int { return g.nextID }

// InputEdges returns the edges with no producing node.
func (g *Graph) InputEdges() []*Edge {
	var out []*Edge
	for _, e := range g.Edges {
		if e.From == nil {
			out = append(out, e)
		}
	}
	return out
}

// OutputEdges returns the edges with no consuming node.
func (g *Graph) OutputEdges() []*Edge {
	var out []*Edge
	for _, e := range g.Edges {
		if e.To == nil {
			out = append(out, e)
		}
	}
	return out
}

// removeNode deletes a node (the caller must have already detached its
// edges).
func (g *Graph) removeNode(n *Node) {
	for i, m := range g.Nodes {
		if m == n {
			g.Nodes = append(g.Nodes[:i], g.Nodes[i+1:]...)
			return
		}
	}
}

// RemoveDetachedEdge removes an edge that the caller has already
// disconnected from its endpoints (used by the compiler when re-wiring
// pipes).
func (g *Graph) RemoveDetachedEdge(e *Edge) { g.removeEdge(e) }

// removeEdge deletes an edge from the graph and from its endpoints'
// port lists.
func (g *Graph) removeEdge(e *Edge) {
	for i, x := range g.Edges {
		if x == e {
			g.Edges = append(g.Edges[:i], g.Edges[i+1:]...)
			break
		}
	}
	if e.From != nil {
		e.From.Out = removeEdgeFrom(e.From.Out, e)
	}
	if e.To != nil {
		e.To.In = removeEdgeFrom(e.To.In, e)
	}
}

func removeEdgeFrom(list []*Edge, e *Edge) []*Edge {
	for i, x := range list {
		if x == e {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// Stats summarizes a graph for reporting (Tab. 2's #nodes column counts
// all processes: commands, aggregators, splits, relays).
type Stats struct {
	Nodes      int
	Edges      int
	ByKind     map[NodeKind]int
	EagerEdges int
}

// Stats computes summary statistics.
func (g *Graph) Stats() Stats {
	s := Stats{Nodes: len(g.Nodes), Edges: len(g.Edges), ByKind: map[NodeKind]int{}}
	for _, n := range g.Nodes {
		s.ByKind[n.Kind]++
	}
	for _, e := range g.Edges {
		if e.Eager {
			s.EagerEdges++
		}
	}
	return s
}

// Dump renders the graph for debugging.
func (g *Graph) Dump() string {
	var sb strings.Builder
	for _, n := range g.Nodes {
		fmt.Fprintln(&sb, n)
		for i, e := range n.In {
			fmt.Fprintf(&sb, "  in[%d]  %s\n", i, e)
		}
		for i, e := range n.Out {
			fmt.Fprintf(&sb, "  out[%d] %s\n", i, e)
		}
	}
	return sb.String()
}
