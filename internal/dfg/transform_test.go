package dfg

import (
	"testing"

	"repro/internal/annot"
)

// chain builds input-file -> commands... -> stdout with every command
// reading stdin and writing stdout.
func chain(t *testing.T, specs ...*Node) *Graph {
	t.Helper()
	g := New()
	var prev *Node
	for i, n := range specs {
		g.AddNode(n)
		if i == 0 {
			e := g.AddEdge(&Edge{Source: Binding{Kind: BindFile, Path: "in.txt"}, To: n})
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

func sNode(name string, args ...string) *Node {
	return NewNode(KindCommand, name, litArgs(args), annot.Stateless)
}

func pNode(name string, agg *AggSpec, args ...string) *Node {
	n := NewNode(KindCommand, name, litArgs(args), annot.Pure)
	n.Agg = agg
	return n
}

func sortAgg() *AggSpec {
	return &AggSpec{MapName: "sort", MapArgs: []string{"-rn"}, AggName: "sort", AggArgs: []string{"-m", "-rn"}}
}

func countKind(g *Graph, k NodeKind) int {
	n := 0
	for _, node := range g.Nodes {
		if node.Kind == k {
			n++
		}
	}
	return n
}

func countName(g *Graph, name string) int {
	n := 0
	for _, node := range g.Nodes {
		if node.Name == name {
			n++
		}
	}
	return n
}

func TestGrepMultiFileNotConcatenated(t *testing.T) {
	// grep pat f1 f2 without -h prefixes output lines with file names,
	// so t1 must NOT rewrite it as cat f1 f2 | grep pat.
	g := New()
	n := NewNode(KindCommand, "grep", []Arg{Lit("pat"), InArg(0), InArg(1)}, annot.Stateless)
	g.AddNode(n)
	for _, f := range []string{"f1", "f2"} {
		e := g.AddEdge(&Edge{Source: Binding{Kind: BindFile, Path: f}, To: n})
		n.In = append(n.In, e)
	}
	out := g.AddEdge(&Edge{From: n, Sink: Binding{Kind: BindStdout}})
	n.Out = append(n.Out, out)
	Apply(g, Options{Width: 2, Eager: true})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := countName(g, "grep"); got != 1 {
		t.Errorf("grep without -h must stay sequential over multiple files, got %d replicas", got)
	}
}

func TestT1InsertsCat(t *testing.T) {
	// grep -h pat f1 f2: two ordered file inputs, concatenation-safe.
	g := New()
	n := NewNode(KindCommand, "grep", []Arg{Lit("-h"), Lit("pat"), InArg(0), InArg(1)}, annot.Stateless)
	g.AddNode(n)
	for _, f := range []string{"f1", "f2"} {
		e := g.AddEdge(&Edge{Source: Binding{Kind: BindFile, Path: f}, To: n})
		n.In = append(n.In, e)
	}
	out := g.AddEdge(&Edge{From: n, Sink: Binding{Kind: BindStdout}})
	n.Out = append(n.Out, out)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	Apply(g, Options{Width: 2, Eager: true})
	if err := g.Validate(); err != nil {
		t.Fatalf("after transform: %v\n%s", err, g.Dump())
	}
	// T should have replicated grep into 2, with a trailing cat.
	if got := countName(g, "grep"); got != 2 {
		t.Errorf("grep replicas = %d, want 2\n%s", got, g.Dump())
	}
	if got := countKind(g, KindCat); got != 1 {
		t.Errorf("cat nodes = %d, want 1\n%s", got, g.Dump())
	}
	// Input file order must be preserved: replica 0 reads f1, replica 1
	// reads f2, and the final cat concatenates in that order.
	var cat *Node
	for _, node := range g.Nodes {
		if node.Kind == KindCat {
			cat = node
		}
	}
	for i, want := range []string{"f1", "f2"} {
		rep := cat.In[i].From
		if rep == nil || len(rep.In) != 1 || rep.In[0].Source.Path != want {
			t.Errorf("cat input %d does not trace to %s\n%s", i, want, g.Dump())
		}
	}
}

func TestStatelessChainCommutes(t *testing.T) {
	// in -> grep -> tr -> stdout with split: both stages replicate, and
	// the intermediate cat disappears (replicas pipe directly).
	g := chain(t, sNode("grep", "x"), sNode("tr", "a", "b"))
	Apply(g, Options{Width: 4, Split: true, Eager: true})
	if err := g.Validate(); err != nil {
		t.Fatalf("after transform: %v\n%s", err, g.Dump())
	}
	if got := countName(g, "grep"); got != 4 {
		t.Errorf("grep replicas = %d, want 4", got)
	}
	if got := countName(g, "tr"); got != 4 {
		t.Errorf("tr replicas = %d, want 4", got)
	}
	if got := countKind(g, KindSplit); got != 1 {
		t.Errorf("splits = %d, want 1", got)
	}
	// Exactly one collector should remain (after the last stage). Under
	// the default streaming split it is the order-restoring merge; with
	// the barrier split it is a plain cat.
	if got := countKind(g, KindCat) + countKind(g, KindMerge); got != 1 {
		t.Errorf("collectors = %d, want 1\n%s", got, g.Dump())
	}
	if got := countKind(g, KindMerge); got != 1 {
		t.Errorf("rr merge = %d, want 1\n%s", got, g.Dump())
	}
}

func TestStatelessChainGeneralSplitKeepsCat(t *testing.T) {
	// Forcing the barrier split reproduces the paper's original shape:
	// replicas collected by a plain cat, no merges, no framing.
	g := chain(t, sNode("grep", "x"), sNode("tr", "a", "b"))
	Apply(g, Options{Width: 4, Split: true, Eager: true, Emit: true})
	if err := g.Validate(); err != nil {
		t.Fatalf("after transform: %v\n%s", err, g.Dump())
	}
	if got := countKind(g, KindCat); got != 1 {
		t.Errorf("cats = %d, want 1\n%s", got, g.Dump())
	}
	if got := countKind(g, KindMerge); got != 0 {
		t.Errorf("merges = %d, want 0 under emission\n%s", got, g.Dump())
	}
	for _, n := range g.Nodes {
		if n.Framed {
			t.Errorf("node %s framed under emission", n)
		}
		if n.Kind == KindSplit && n.Split == RoundRobinSplit {
			t.Errorf("split %s round-robin under emission", n)
		}
	}
}

func TestPureMapAggregate(t *testing.T) {
	g := chain(t, sNode("tr", "A", "a"), pNode("sort", sortAgg(), "-rn"))
	Apply(g, Options{Width: 3, Split: true, Eager: true})
	if err := g.Validate(); err != nil {
		t.Fatalf("after transform: %v\n%s", err, g.Dump())
	}
	if got := countKind(g, KindMap); got != 3 {
		t.Errorf("map nodes = %d, want 3\n%s", got, g.Dump())
	}
	if got := countKind(g, KindAgg); got != 1 {
		t.Errorf("agg nodes = %d, want 1", got)
	}
	// The aggregate must consume the maps in order.
	var agg *Node
	for _, n := range g.Nodes {
		if n.Kind == KindAgg {
			agg = n
		}
	}
	if agg.Name != "sort" || len(agg.In) != 3 {
		t.Errorf("agg = %v", agg)
	}
}

// TestCommutativePureAbsorbsMerge: a pure consumer whose output ignores
// line order takes a framed chain's replicas as its maps' inputs — one
// round-robin split, no merge, no barrier — and gets the round-robin
// split when it needs one of its own. The same commands unmarked, or
// planned for emission, keep the merge and the barrier split.
func TestCommutativePureAbsorbsMerge(t *testing.T) {
	commutative := sortAgg()
	commutative.Commutative = true
	splits := func(g *Graph) (rr, barrier int) {
		for _, n := range g.Nodes {
			if n.Kind == KindSplit && n.Split == RoundRobinSplit {
				rr++
			} else if n.Kind == KindSplit {
				barrier++
			}
		}
		return
	}
	for _, c := range []struct {
		name                string
		agg                 *AggSpec
		emit                bool
		rr, barrier, merges int
	}{
		{"commutative", commutative, false, 1, 0, 0},
		{"order-sensitive", sortAgg(), false, 1, 1, 1},
		{"commutative, emission", commutative, true, 0, 1, 0},
	} {
		g := chain(t, sNode("tr", "A", "a"), pNode("sort", c.agg, "-rn"))
		Apply(g, Options{Width: 3, Split: true, Eager: true, Emit: c.emit})
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v\n%s", c.name, err, g.Dump())
		}
		rr, barrier := splits(g)
		if rr != c.rr || barrier != c.barrier || countKind(g, KindMerge) != c.merges || countKind(g, KindMap) != 3 {
			t.Errorf("%s: %d rr splits, %d barrier splits, %d merges, %d maps; want %d, %d, %d, 3\n%s",
				c.name, rr, barrier, countKind(g, KindMerge), countKind(g, KindMap), c.rr, c.barrier, c.merges, g.Dump())
		}
		for _, n := range g.Nodes {
			if n.Kind == KindMap && n.Framed {
				t.Errorf("%s: map %v is framed; maps read whole streams", c.name, n)
			}
		}
	}

	g := chain(t, pNode("sort", commutative, "-rn"))
	Apply(g, Options{Width: 3, Split: true, Eager: true})
	if rr, barrier := splits(g); rr != 1 || barrier != 0 {
		t.Errorf("lone commutative consumer: %d rr splits, %d barrier splits; want 1, 0\n%s", rr, barrier, g.Dump())
	}
}

func TestPureWithoutAggregatorStaysSequential(t *testing.T) {
	g := chain(t, sNode("tr", "A", "a"), pNode("tail", nil, "-n", "+2"))
	Apply(g, Options{Width: 4, Split: true, Eager: true})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := countName(g, "tail"); got != 1 {
		t.Errorf("tail must not replicate without an aggregator: %d", got)
	}
	// tr still parallelizes.
	if got := countName(g, "tr"); got != 4 {
		t.Errorf("tr replicas = %d, want 4", got)
	}
}

func TestNonParallelizableUntouched(t *testing.T) {
	n := NewNode(KindCommand, "sha1sum", nil, annot.NonParallelizable)
	g := chain(t, sNode("grep", "x"), n)
	Apply(g, Options{Width: 4, Split: true, Eager: true})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := countName(g, "sha1sum"); got != 1 {
		t.Errorf("sha1sum replicated: %d", got)
	}
}

func TestNoSplitWhenDisabled(t *testing.T) {
	g := chain(t, sNode("grep", "x"))
	Apply(g, Options{Width: 8, Split: false, Eager: true})
	if got := countKind(g, KindSplit); got != 0 {
		t.Errorf("split inserted with Split=false")
	}
	if got := countName(g, "grep"); got != 1 {
		t.Errorf("grep replicated without a source of parallelism: %d", got)
	}
}

func TestWidthOneIsIdentity(t *testing.T) {
	g := chain(t, sNode("grep", "x"), sNode("tr", "a", "b"))
	before := len(g.Nodes)
	Apply(g, Options{Width: 1, Split: true, Eager: true})
	if len(g.Nodes) != before {
		t.Errorf("width 1 changed the graph: %d -> %d nodes", before, len(g.Nodes))
	}
}

func TestFixpointTerminates(t *testing.T) {
	// A long stateless chain with split must terminate and fully
	// replicate.
	g := chain(t,
		sNode("grep", "a"), sNode("tr", "x", "y"), sNode("sed", "s/a/b/"),
		sNode("cut", "-c", "1-3"), sNode("grep", "-v", "z"))
	Apply(g, Options{Width: 8, Split: true, Eager: true})
	if err := g.Validate(); err != nil {
		t.Fatalf("after transform: %v", err)
	}
	for _, name := range []string{"tr", "sed", "cut"} {
		if got := countName(g, name); got != 8 {
			t.Errorf("%s replicas = %d, want 8", name, got)
		}
	}
	if got := countKind(g, KindSplit); got != 1 {
		t.Errorf("splits = %d, want 1", got)
	}
	if got := countKind(g, KindCat) + countKind(g, KindMerge); got != 1 {
		t.Errorf("collectors = %d, want 1", got)
	}
}

func TestSplitAfterAggregate(t *testing.T) {
	// sort | uniq (both P with aggregators): the paper's Sort-sort case —
	// the stage after an aggregate re-splits.
	uniqAgg := &AggSpec{MapName: "uniq", MapArgs: nil, AggName: "pash-agg-uniq", AggArgs: nil}
	g := chain(t, pNode("sort", sortAgg(), "-rn"), pNode("uniq", uniqAgg))
	Apply(g, Options{Width: 2, Split: true, Eager: true})
	if err := g.Validate(); err != nil {
		t.Fatalf("after transform: %v\n%s", err, g.Dump())
	}
	if got := countKind(g, KindSplit); got != 2 {
		t.Errorf("splits = %d, want 2 (one per P stage)\n%s", got, g.Dump())
	}
	if got := countKind(g, KindAgg); got != 2 {
		t.Errorf("aggs = %d, want 2", got)
	}
}

func TestEagerPlanning(t *testing.T) {
	g := chain(t, sNode("grep", "x"), sNode("tr", "a", "b"))
	Apply(g, Options{Width: 4, Split: true, Eager: true})
	stats := g.Stats()
	if stats.EagerEdges == 0 {
		t.Error("no eager edges planned under Eager")
	}
	g2 := chain(t, sNode("grep", "x"), sNode("tr", "a", "b"))
	Apply(g2, Options{Width: 4, Split: true})
	if g2.Stats().EagerEdges != 0 {
		t.Error("eager edges planned without Eager")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := chain(t, sNode("grep", "x"))
	// Corrupt: dangling placeholder.
	g.Nodes[0].Args = append(g.Nodes[0].Args, InArg(5))
	if err := g.Validate(); err == nil {
		t.Error("expected validation error for out-of-range placeholder")
	}
}

func TestValidateCatchesCycle(t *testing.T) {
	g := New()
	a := g.AddNode(sNode("a"))
	b := g.AddNode(sNode("b"))
	e1 := g.Connect(a, b)
	e2 := g.Connect(b, a)
	a.StdinInput = 0
	b.StdinInput = 0
	_ = e1
	_ = e2
	if err := g.Validate(); err == nil {
		t.Error("expected cycle detection")
	}
}

func TestStatsByKind(t *testing.T) {
	g := chain(t, sNode("grep", "x"), pNode("sort", sortAgg(), "-rn"))
	Apply(g, Options{Width: 4, Split: true, Eager: true})
	s := g.Stats()
	if s.ByKind[KindMap] != 4 || s.ByKind[KindAgg] != 1 || s.ByKind[KindSplit] < 1 {
		t.Errorf("stats = %+v\n%s", s, g.Dump())
	}
	if s.Nodes != len(g.Nodes) || s.Edges != len(g.Edges) {
		t.Error("stats counts mismatch")
	}
}

// TestDistributeShapes pins which branches ship and as what. A
// round-robin chain that ends at the order-restoring merge stays on the
// coordinator as framed replicas; a barrier split's chain and a
// round-robin branch ending at a commutative map ship streamed; a split
// over a file ships as ranges when the pool shares the filesystem.
func TestDistributeShapes(t *testing.T) {
	commutative := sortAgg()
	commutative.Commutative = true
	stateless := func() []*Node { return []*Node{sNode("grep", "x"), sNode("tr", "a", "b")} }
	for _, c := range []struct {
		name                     string
		nodes                    []*Node
		emit                     bool
		fileRanges               bool
		streamed, ranges, splits int
		framedLeft               bool
	}{
		{"rr chain to the merge", stateless(), false, false, 0, 0, 1, true},
		{"barrier-split sort chain", []*Node{sNode("tr", "A", "a"), pNode("sort", sortAgg(), "-rn")}, true, false, 4, 0, 1, false},
		{"tr | sort over rr", []*Node{sNode("tr", "A", "a"), pNode("sort", commutative, "-rn")}, false, false, 4, 0, 1, false},
		{"file ranges", stateless(), false, true, 0, 4, 0, false},
	} {
		g := chain(t, c.nodes...)
		Apply(g, Options{Width: 4, Split: true, Eager: true, Emit: c.emit})
		n := Distribute(g, DistOptions{Workers: []string{"w1", "w2"}, FileRanges: c.fileRanges})
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v\n%s", c.name, err, g.Dump())
		}
		streamed, ranges, framed := 0, 0, 0
		for _, node := range g.Nodes {
			switch {
			case node.Kind == KindRemote && node.Remote.Path != "":
				ranges++
			case node.Kind == KindRemote && node.Remote.Streamed:
				streamed++
			case node.Kind == KindRemote:
				t.Errorf("%s: remote node names no shape: %+v", c.name, node.Remote)
			}
			if node.Framed {
				framed++
			}
		}
		if n != streamed+ranges || streamed != c.streamed || ranges != c.ranges || countKind(g, KindSplit) != c.splits || (framed > 0) != c.framedLeft {
			t.Errorf("%s: Distribute = %d, %d streamed, %d ranges, %d splits, %d framed; want %d streamed, %d ranges, %d splits, framed replicas left %v\n%s",
				c.name, n, streamed, ranges, countKind(g, KindSplit), framed, c.streamed, c.ranges, c.splits, c.framedLeft, g.Dump())
		}
	}
}
