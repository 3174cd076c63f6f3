package dfg

import "repro/internal/annot"

// Stage fusion: after the parallelization transformations have settled,
// linear chains of kernel-capable stateless commands are collapsed into
// single KindFused nodes. A chain like tr | grep | cut costs one
// goroutine and one chunk-pipe handoff per stage — at width n that is
// 3n goroutines and 2n internal pipes doing no semantic work. The fused
// executor (internal/runtime) runs the chain's composed kernels over
// pooled blocks in one goroutine with zero intermediate pipes.
//
// Framing commutes through fusion: a chain of framed replicas preserves
// the one-chunk-in/one-chunk-out discipline stage by stage, so the
// collapsed node preserves it too (the fused executor runs the kernel
// chain once per chunk). The fused node therefore inherits the chain's
// Framed flag and slots into a round-robin split/merge region
// unchanged.

// Fuse collapses fusable chains in place. It is a no-op unless
// opts.KernelCapable is supplied and fusion is neither disabled nor
// emitted.
func Fuse(g *Graph, opts Options) {
	if opts.DisableFusion || opts.Emit || opts.KernelCapable == nil {
		return
	}
	for _, n := range snapshot(g.Nodes) {
		if !fusable(n, opts) {
			continue
		}
		// Only start a chain at its head: a fusable node whose producer
		// would itself extend the chain is picked up from upstream.
		if up := n.In[0].From; up != nil && fusable(up, opts) && up.Framed == n.Framed {
			continue
		}
		chain := []*Node{n}
		for {
			cur := chain[len(chain)-1]
			next := cur.Out[0].To
			if next == nil || !fusable(next, opts) || next.Framed != cur.Framed {
				break
			}
			chain = append(chain, next)
		}
		if len(chain) < 2 {
			continue
		}
		collapseChain(g, chain)
	}
}

// fusable reports whether a node can join a fused chain: a stateless
// command consuming exactly standard input, producing exactly standard
// output, with purely literal arguments, whose invocation has a kernel
// implementation.
func fusable(n *Node, opts Options) bool {
	if n.Kind != KindCommand || n.Class != annot.Stateless {
		return false
	}
	if len(n.In) != 1 || len(n.Out) != 1 || n.StdinInput != 0 {
		return false
	}
	for _, a := range n.Args {
		if a.InputIdx >= 0 {
			return false
		}
	}
	return opts.KernelCapable(n.Name, literalArgs(n))
}

// literalArgs renders a node's (all-literal) argv.
func literalArgs(n *Node) []string {
	out := make([]string, 0, len(n.Args))
	for _, a := range n.Args {
		out = append(out, a.Text)
	}
	return out
}

// collapseChain replaces the chain with one KindFused node carrying the
// stages in pipeline order. The chain's outer edges survive (with their
// eager planning); the internal edges disappear with the chain.
func collapseChain(g *Graph, chain []*Node) {
	head, tail := chain[0], chain[len(chain)-1]
	fused := &Node{
		Kind:       KindFused,
		Name:       fusedName(chain),
		Class:      head.Class,
		StdinInput: 0,
		Framed:     head.Framed,
		noSplit:    true,
	}
	for _, n := range chain {
		fused.Stages = append(fused.Stages, FusedStage{Name: n.Name, Args: literalArgs(n)})
	}
	g.AddNode(fused)

	in := head.In[0]
	in.To = fused
	fused.In = []*Edge{in}
	out := tail.Out[0]
	out.From = fused
	fused.Out = []*Edge{out}

	head.In = nil
	tail.Out = nil
	for i, n := range chain {
		if i < len(chain)-1 {
			link := n.Out[0]
			link.From = nil
			link.To = nil
			chain[i+1].In = nil
			n.Out = nil
			g.removeEdge(link)
		}
		g.removeNode(n)
	}
}

// fusedName renders the chain for diagnostics and node-time reports.
func fusedName(chain []*Node) string {
	name := "fused:"
	for i, n := range chain {
		if i > 0 {
			name += "|"
		}
		name += n.Name
	}
	return name
}
