package dfg

import "strings"

// Stage chains: a linear run of nodes, each reading the previous one's
// standard output, that a planning pass collapses into one node carrying
// the run as []FusedStage. Fusion (fuse.go) collapses kernel-capable
// commands into a KindFused node; distribution (remote.go) collapses a
// shippable branch into a KindRemote node. Both find the run with one
// walker, render it with one renderer and collapse it with one rewrite;
// each keeps only its own rule for which nodes may join.

// chainAt walks the chain that starts at the consumer of e: nodes with
// one standard input, one output and literal argv, each accepted by join
// given the node before it (nil for the first). It returns the chain and
// the edge leaving it; an empty chain means the consumer does not join.
func chainAt(e *Edge, join func(prev, n *Node) bool) ([]*Node, *Edge) {
	var chain []*Node
	var prev *Node
	for n := e.To; n != nil && linear(n) && join(prev, n); n = e.To {
		chain = append(chain, n)
		prev, e = n, n.Out[0]
	}
	return chain, e
}

// linear reports whether n reads exactly its standard input, writes
// exactly one output and takes only literal arguments.
func linear(n *Node) bool {
	if len(n.In) != 1 || len(n.Out) != 1 || n.StdinInput != 0 {
		return false
	}
	for _, a := range n.Args {
		if a.InputIdx >= 0 {
			return false
		}
	}
	return true
}

// chainStages renders a chain as stages in pipeline order; a fused node
// contributes the stages it collapsed.
func chainStages(chain []*Node) []FusedStage {
	var out []FusedStage
	for _, n := range chain {
		if n.Kind == KindFused {
			out = append(out, n.Stages...)
			continue
		}
		out = append(out, FusedStage{Name: n.Name, Args: literalArgs(n)})
	}
	return out
}

// literalArgs renders a node's (all-literal) argv.
func literalArgs(n *Node) []string {
	out := make([]string, 0, len(n.Args))
	for _, a := range n.Args {
		out = append(out, a.Text)
	}
	return out
}

// stageNames renders stages as their command names joined by "|".
func stageNames(stages []FusedStage) string {
	names := make([]string, len(stages))
	for i, st := range stages {
		names[i] = st.Name
	}
	return strings.Join(names, "|")
}

// collapse adds n to the graph in place of chain, which in enters and out
// leaves: the outer edges move to n and keep their planning, the inner
// edges and the chain's nodes leave the graph. A nil in is the chain that
// sources itself (a file-range shard): n gets no input, and the edge that
// fed the chain's head is the caller's to remove.
func (g *Graph) collapse(chain []*Node, in, out *Edge, n *Node) *Node {
	g.AddNode(n)
	if in != nil {
		in.To = n
		n.In = []*Edge{in}
		n.StdinInput = 0
	}
	out.From = n
	n.Out = []*Edge{out}
	for i, c := range chain {
		if i > 0 {
			g.removeEdge(c.In[0]) // interior to the chain
		}
		c.In, c.Out = nil, nil
		g.removeNode(c)
	}
	return n
}
