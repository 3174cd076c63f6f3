package dfg

import (
	"testing"

	"repro/internal/annot"
)

// testKernelCapable mimics commands.Registry.KernelCapable for planning tests:
// the hot stateless commands fuse, everything else does not.
func testKernelCapable(name string, args []string) bool {
	switch name {
	case "tr", "grep", "cut", "sed", "rev", "cat":
		return true
	}
	return false
}

func fuseOpts(width int) Options {
	return Options{Width: width, Split: true, Eager: true, KernelCapable: testKernelCapable}
}

func stagesOf(n *Node) []string {
	var out []string
	for _, st := range n.Stages {
		out = append(out, st.Name)
	}
	return out
}

// TestFuseSequentialChain collapses a width-1 stateless chain into one
// fused node.
func TestFuseSequentialChain(t *testing.T) {
	g := chain(t,
		sNode("tr", "a-z", "A-Z"),
		sNode("grep", "TH"),
		sNode("cut", "-c1-10"),
	)
	Apply(g, fuseOpts(1))
	if err := g.Validate(); err != nil {
		t.Fatalf("fused graph invalid: %v", err)
	}
	if len(g.Nodes) != 1 {
		t.Fatalf("expected 1 fused node, got %d:\n%s", len(g.Nodes), g.Dump())
	}
	n := g.Nodes[0]
	if n.Kind != KindFused || n.Framed {
		t.Fatalf("unexpected node %s", n)
	}
	want := []string{"tr", "grep", "cut"}
	got := stagesOf(n)
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("stages %v, want %v", got, want)
		}
	}
}

// TestFuseStopsAtNonKernelStage keeps non-capable commands out of the
// chain and fuses around them.
func TestFuseStopsAtNonKernelStage(t *testing.T) {
	g := chain(t,
		sNode("tr", "a", "b"),
		sNode("rev"),
		sNode("xargs", "curl"), // stateless but no kernel
		sNode("grep", "x"),
		sNode("sed", "s/a/b/"),
	)
	Apply(g, fuseOpts(1))
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	fused := 0
	for _, n := range g.Nodes {
		if n.Kind == KindFused {
			fused++
			if len(n.Stages) != 2 {
				t.Fatalf("expected 2-stage fusions, got %v", stagesOf(n))
			}
		}
	}
	if fused != 2 || len(g.Nodes) != 3 {
		t.Fatalf("expected tr|rev and grep|sed around xargs, got:\n%s", g.Dump())
	}
}

// TestFuseFramedReplicas checks that framing commutes through fusion:
// a round-robin split region's replica chains collapse into framed
// fused nodes between the split and the merge.
func TestFuseFramedReplicas(t *testing.T) {
	g := chainStdin(t,
		sNode("tr", "a-z", "A-Z"),
		sNode("grep", "TH"),
		sNode("cut", "-c1-10"),
	)
	Apply(g, fuseOpts(4))
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	st := g.Stats()
	if st.ByKind[KindFused] != 4 {
		t.Fatalf("expected 4 fused replicas, got %d:\n%s", st.ByKind[KindFused], g.Dump())
	}
	if st.ByKind[KindSplit] != 1 || st.ByKind[KindMerge] != 1 {
		t.Fatalf("expected one split and one merge:\n%s", g.Dump())
	}
	for _, n := range g.Nodes {
		if n.Kind == KindFused {
			if !n.Framed {
				t.Fatalf("fused replica %s must stay framed", n)
			}
			if len(n.Stages) != 3 {
				t.Fatalf("fused replica stages %v", stagesOf(n))
			}
		}
	}
}

// chainStdin is chain() with the graph input bound to stdin instead of
// a file, so the split is the round-robin one.
func chainStdin(t *testing.T, specs ...*Node) *Graph {
	t.Helper()
	g := New()
	var prev *Node
	for i, n := range specs {
		g.AddNode(n)
		if i == 0 {
			e := g.AddEdge(&Edge{Source: Binding{Kind: BindStdin}, To: n})
			n.In = append(n.In, e)
			n.StdinInput = 0
		} else {
			g.Connect(prev, n)
			n.StdinInput = len(n.In) - 1
		}
		prev = n
	}
	e := g.AddEdge(&Edge{From: prev, Sink: Binding{Kind: BindStdout}})
	prev.Out = append(prev.Out, e)
	if err := g.Validate(); err != nil {
		t.Fatalf("chain invalid: %v", err)
	}
	return g
}

// TestFuseDisabled leaves the graph untouched without capability
// information, the one way to turn fusion off.
func TestFuseDisabled(t *testing.T) {
	g := chain(t, sNode("tr", "a", "b"), sNode("grep", "x"))
	opts := fuseOpts(1)
	opts.KernelCapable = nil
	Apply(g, opts)
	if countKind(g, KindFused) != 0 || len(g.Nodes) != 2 {
		t.Fatalf("fusion ran without KernelCapable:\n%s", g.Dump())
	}
}

// TestFuseSkipsPlaceholderArgs: a node reading a named file via an argv
// placeholder cannot fuse.
func TestFuseSkipsPlaceholderArgs(t *testing.T) {
	g := New()
	a := sNode("tr", "a", "b")
	g.AddNode(a)
	in := g.AddEdge(&Edge{Source: Binding{Kind: BindStdin}, To: a})
	a.In = append(a.In, in)
	a.StdinInput = 0
	// grep PATTERN FILE — consumes the pipe via stdin? No: it reads the
	// file operand, so the pipe edge feeds a placeholder-less node that
	// still must not fuse with a file-reading stage.
	b := NewNode(KindCommand, "grep", []Arg{Lit("x"), InArg(0)}, annot.Stateless)
	g.AddNode(b)
	fe := g.AddEdge(&Edge{Source: Binding{Kind: BindFile, Path: "f"}, To: b})
	b.In = append(b.In, fe)
	g.Connect(a, b)
	b.StdinInput = 1
	out := g.AddEdge(&Edge{From: b, Sink: Binding{Kind: BindStdout}})
	b.Out = append(b.Out, out)
	if err := g.Validate(); err != nil {
		t.Fatalf("setup invalid: %v", err)
	}
	Apply(g, fuseOpts(1))
	if countKind(g, KindFused) != 0 {
		t.Fatalf("fused across a file-operand node:\n%s", g.Dump())
	}
}

// TestValidateFusedInvariants exercises the new validate checks.
func TestValidateFusedInvariants(t *testing.T) {
	g := chain(t, sNode("tr", "a", "b"), sNode("grep", "x"))
	Apply(g, fuseOpts(1))
	n := g.Nodes[0]
	if n.Kind != KindFused {
		t.Fatalf("setup: expected fused node")
	}
	saved := n.Stages
	n.Stages = n.Stages[:1]
	if err := g.Validate(); err == nil {
		t.Fatal("validate accepted a 1-stage fused node")
	}
	n.Stages = saved
	if err := g.Validate(); err != nil {
		t.Fatalf("restored graph invalid: %v", err)
	}
	// A non-fused node must not carry stages.
	g2 := chain(t, sNode("tr", "a", "b"))
	g2.Nodes[0].Stages = []FusedStage{{Name: "tr"}, {Name: "rev"}}
	if err := g2.Validate(); err == nil {
		t.Fatal("validate accepted stages on a command node")
	}
}

// assocSortAgg is sortAgg with the associativity bit set, as
// agg.Resolve produces it.
func assocSortAgg() *AggSpec {
	s := sortAgg()
	s.Associative = true
	return s
}

// TestAggTreeShape: at width 16 with an associative aggregator, the
// aggregate becomes a fan-in-4 tree (4 leaves + 1 root) instead of one
// 16-ary node.
func TestAggTreeShape(t *testing.T) {
	g := chain(t, pNode("sort", assocSortAgg(), "-rn"))
	Apply(g, Options{Width: 16, Split: true, Eager: true})
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	aggs := countKind(g, KindAgg)
	if aggs != 5 {
		t.Fatalf("expected 5 agg nodes (4 leaves + root), got %d:\n%s", aggs, g.Dump())
	}
	// Every agg node has at most 4 inputs, and the root exists.
	roots := 0
	for _, n := range g.Nodes {
		if n.Kind != KindAgg {
			continue
		}
		if len(n.In) > 4 {
			t.Fatalf("agg node %s has fan-in %d > 4", n, len(n.In))
		}
		if len(n.Out) == 1 && n.Out[0].To == nil {
			roots++
		}
	}
	if roots != 1 {
		t.Fatalf("expected exactly one root aggregate, got %d", roots)
	}
}

// TestAggTreeThresholdAndKnobs: flat below the width threshold, flat
// for non-associative aggregators, explicit fan-in honoured.
func TestAggTreeThresholdAndKnobs(t *testing.T) {
	// Width 4 < 8: flat.
	g := chain(t, pNode("sort", assocSortAgg(), "-rn"))
	Apply(g, Options{Width: 4, Split: true, Eager: true})
	if got := countKind(g, KindAgg); got != 1 {
		t.Fatalf("width 4: expected flat aggregate, got %d agg nodes", got)
	}
	// Non-associative spec stays flat at any width.
	g = chain(t, pNode("sort", sortAgg(), "-rn"))
	Apply(g, Options{Width: 16, Split: true, Eager: true})
	if got := countKind(g, KindAgg); got != 1 {
		t.Fatalf("non-associative: expected flat aggregate, got %d agg nodes", got)
	}
	// AggFanIn < 0 forces flat.
	g = chain(t, pNode("sort", assocSortAgg(), "-rn"))
	Apply(g, Options{Width: 16, Split: true, Eager: true, AggFanIn: -1})
	if got := countKind(g, KindAgg); got != 1 {
		t.Fatalf("AggFanIn<0: expected flat aggregate, got %d agg nodes", got)
	}
	// Explicit fan-in 2 at width 8: 4 + 2 + 1 = 7 agg nodes.
	g = chain(t, pNode("sort", assocSortAgg(), "-rn"))
	Apply(g, Options{Width: 8, Split: true, Eager: true, AggFanIn: 2})
	if got := countKind(g, KindAgg); got != 7 {
		t.Fatalf("fan-in 2 at width 8: expected 7 agg nodes, got %d:\n%s", got, g.Dump())
	}
}

// TestAggTreeEagerPlanning: tree stages are multi-input consumers, so
// their later inputs get eager relays like the flat aggregate's.
func TestAggTreeEagerPlanning(t *testing.T) {
	g := chain(t, pNode("sort", assocSortAgg(), "-rn"))
	Apply(g, Options{Width: 16, Split: true, Eager: true})
	for _, n := range g.Nodes {
		if n.Kind != KindAgg {
			continue
		}
		for i, e := range n.In {
			if i == 0 && e.Eager {
				t.Fatalf("agg %s first input unexpectedly eager", n)
			}
			if i > 0 && !e.Eager {
				t.Fatalf("agg %s input %d not eager", n, i)
			}
		}
	}
}
