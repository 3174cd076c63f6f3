package dfg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/annot"
)

// randomChain builds a random pipeline of stateless/pure/other nodes.
func randomChain(rng *rand.Rand) *Graph {
	g := New()
	n := 1 + rng.Intn(7)
	var prev *Node
	for i := 0; i < n; i++ {
		var node *Node
		switch rng.Intn(4) {
		case 0, 1:
			node = NewNode(KindCommand, "tr", litArgs([]string{"a", "b"}), annot.Stateless)
		case 2:
			node = NewNode(KindCommand, "sort", nil, annot.Pure)
			if rng.Intn(2) == 0 {
				node.Agg = &AggSpec{MapName: "sort", AggName: "sort", AggArgs: []string{"-m"}}
			}
		default:
			node = NewNode(KindCommand, "sha1sum", nil, annot.NonParallelizable)
		}
		g.AddNode(node)
		if i == 0 {
			e := g.AddEdge(&Edge{Source: Binding{Kind: BindFile, Path: "in"}, To: node})
			node.In = append(node.In, e)
		} else {
			g.Connect(prev, node)
		}
		node.StdinInput = len(node.In) - 1
		prev = node
	}
	e := g.AddEdge(&Edge{From: prev, Sink: Binding{Kind: BindStdout}})
	prev.Out = append(prev.Out, e)
	return g
}

// TestQuickTransformPreservesValidity applies the transformations to
// random chains under random options and checks the structural
// invariants always hold, the graph keeps exactly one input and one
// output, and the fixpoint terminates.
func TestQuickTransformPreservesValidity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomChain(rng)
		opts := Options{
			Width: 1 + rng.Intn(16),
			Split: rng.Intn(2) == 0,
			Eager: rng.Intn(2) == 0,
		}
		Apply(g, opts)
		if err := g.Validate(); err != nil {
			t.Logf("seed %d opts %+v: %v\n%s", seed, opts, err, g.Dump())
			return false
		}
		ins, outs := 0, 0
		for _, e := range g.Edges {
			if e.From == nil {
				ins++
			}
			if e.To == nil {
				outs++
			}
		}
		if ins != 1 || outs != 1 {
			t.Logf("seed %d: boundary edges %d/%d", seed, ins, outs)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickNonParallelizableNeverReplicated: N/E nodes appear exactly
// once after any transformation.
func TestQuickNonParallelizableNeverReplicated(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomChain(rng)
		before := countName(g, "sha1sum")
		Apply(g, Options{Width: 8, Split: true, Eager: true})
		return countName(g, "sha1sum") == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWidthMonotoneNodes: node count never decreases with width.
func TestQuickWidthMonotoneNodes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g4 := randomChain(rng)
		rng2 := rand.New(rand.NewSource(seed))
		g8 := randomChain(rng2)
		Apply(g4, Options{Width: 4, Split: true, Eager: true})
		Apply(g8, Options{Width: 8, Split: true, Eager: true})
		return len(g8.Nodes) >= len(g4.Nodes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
