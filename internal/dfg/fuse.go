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

// Fuse collapses fusable chains in place. A nil opts.KernelCapable — no
// capability information, an emitted plan, fusion turned off — fuses
// nothing.
func Fuse(g *Graph, opts Options) {
	if opts.KernelCapable == nil {
		return
	}
	// A stateless command whose invocation has a kernel joins the chain
	// of a producer framed as it is.
	fuses := func(prev, n *Node) bool {
		return n.Kind == KindCommand && n.Class == annot.Stateless && (prev == nil || prev.Framed == n.Framed) &&
			opts.KernelCapable(n.Name, literalArgs(n))
	}
	for _, n := range snapshot(g.Nodes) {
		if !linear(n) || !fuses(nil, n) {
			continue
		}
		// Only start a chain at its head: a node that would extend its
		// producer's chain is picked up from upstream.
		if up := n.In[0].From; up != nil && linear(up) && fuses(nil, up) && up.Framed == n.Framed {
			continue
		}
		chain, out := chainAt(n.In[0], fuses)
		if len(chain) < 2 {
			continue
		}
		stages := chainStages(chain)
		g.collapse(chain, n.In[0], out, &Node{
			Kind:    KindFused,
			Name:    "fused:" + stageNames(stages),
			Class:   n.Class,
			Framed:  n.Framed,
			Stages:  stages,
			noSplit: true,
		})
	}
}
