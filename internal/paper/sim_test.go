package paper

import (
	"testing"
	"time"

	"repro/internal/annot"
	"repro/internal/dfg"
	"repro/internal/runtime"
)

// buildChain makes a linear graph with the given per-node (name, work).
type spec struct {
	name string
	work time.Duration
}

func buildChain(specs ...spec) (*dfg.Graph, []runtime.NodeTime) {
	g := dfg.New()
	var prev *dfg.Node
	var times []runtime.NodeTime
	for i, s := range specs {
		n := dfg.NewNode(dfg.KindCommand, s.name, nil, annot.Stateless)
		g.AddNode(n)
		if i == 0 {
			e := g.AddEdge(&dfg.Edge{Source: dfg.Binding{Kind: dfg.BindStdin}, To: n})
			n.In = append(n.In, e)
		} else {
			g.Connect(prev, n)
		}
		n.StdinInput = 0
		times = append(times, runtime.NodeTime{ID: n.ID, Name: s.name, Active: s.work, Wall: s.work})
		prev = n
	}
	e := g.AddEdge(&dfg.Edge{From: prev, Sink: dfg.Binding{Kind: dfg.BindStdout}})
	prev.Out = append(prev.Out, e)
	return g, times
}

func approx(t *testing.T, got, want time.Duration, tolFrac float64, msg string) {
	t.Helper()
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > tolFrac*float64(want) {
		t.Errorf("%s: got %v, want ~%v", msg, got, want)
	}
}

func TestStreamingChainOverlaps(t *testing.T) {
	// Two streaming stages of 1s each on 2+ cores overlap: makespan ~1s.
	g, times := buildChain(spec{"grep", time.Second}, spec{"tr", time.Second})
	ms := makespan(g, times, 4, 0)
	approx(t, ms, time.Second, 0.15, "streaming overlap")
	// On one core they serialize: ~2s.
	ms1 := makespan(g, times, 1, 0)
	approx(t, ms1, 2*time.Second, 0.15, "single core serialization")
}

func TestBlockingStageSerializes(t *testing.T) {
	// sort blocks: downstream cannot start until it finishes.
	g, times := buildChain(spec{"sort", time.Second}, spec{"tr", time.Second})
	ms := makespan(g, times, 8, 0)
	approx(t, ms, 2*time.Second, 0.15, "blocking serialization")
}

func TestFanOutScales(t *testing.T) {
	// A cat over 8 replicas of 1s work each: on 8 cores ~1s, on 2 cores
	// ~4s.
	g := dfg.New()
	cat := dfg.NewNode(dfg.KindCat, "cat", nil, annot.Stateless)
	g.AddNode(cat)
	var times []runtime.NodeTime
	for i := 0; i < 8; i++ {
		n := dfg.NewNode(dfg.KindCommand, "grep", nil, annot.Stateless)
		g.AddNode(n)
		e := g.AddEdge(&dfg.Edge{Source: dfg.Binding{Kind: dfg.BindFile, Path: "f"}, To: n})
		n.In = append(n.In, e)
		n.StdinInput = 0
		g.Connect(n, cat)
		cat.Args = append(cat.Args, dfg.InArg(i))
		times = append(times, runtime.NodeTime{ID: n.ID, Name: "grep", Active: time.Second})
	}
	out := g.AddEdge(&dfg.Edge{From: cat, Sink: dfg.Binding{Kind: dfg.BindStdout}})
	cat.Out = append(cat.Out, out)
	times = append(times, runtime.NodeTime{ID: cat.ID, Name: "cat", Active: 10 * time.Millisecond})

	// Mark edges eager so the lazy stall model doesn't serialize.
	for _, e := range g.Edges {
		e.Eager = true
	}
	ms8 := makespan(g, times, 8, 0)
	approx(t, ms8, time.Second, 0.2, "8 replicas on 8 cores")
	ms2 := makespan(g, times, 2, 0)
	approx(t, ms2, 4*time.Second, 0.2, "8 replicas on 2 cores")
}

func TestLazyEdgesSerializeOrderedConsumers(t *testing.T) {
	// Same fan-out but with lazy edges: the cat consumes inputs in
	// order, so with plenty of cores the replicas still serialize
	// (Fig. 6a). Eager edges fix it (Fig. 6d).
	mkGraph := func(eager bool) (time.Duration, time.Duration) {
		g := dfg.New()
		cat := dfg.NewNode(dfg.KindCat, "cat", nil, annot.Stateless)
		g.AddNode(cat)
		var times []runtime.NodeTime
		for i := 0; i < 4; i++ {
			n := dfg.NewNode(dfg.KindCommand, "grep", nil, annot.Stateless)
			g.AddNode(n)
			e := g.AddEdge(&dfg.Edge{Source: dfg.Binding{Kind: dfg.BindFile, Path: "f"}, To: n})
			n.In = append(n.In, e)
			n.StdinInput = 0
			link := g.Connect(n, cat)
			link.Eager = eager
			cat.Args = append(cat.Args, dfg.InArg(i))
			times = append(times, runtime.NodeTime{ID: n.ID, Name: "grep", Active: time.Second})
		}
		out := g.AddEdge(&dfg.Edge{From: cat, Sink: dfg.Binding{Kind: dfg.BindStdout}})
		cat.Out = append(cat.Out, out)
		times = append(times, runtime.NodeTime{ID: cat.ID, Name: "cat", Active: 10 * time.Millisecond})
		return makespan(g, times, 16, 0), time.Second
	}
	lazyMs, unit := mkGraph(false)
	eagerMs, _ := mkGraph(true)
	if lazyMs < 2*unit {
		t.Errorf("lazy edges should serialize ordered consumption: %v", lazyMs)
	}
	if eagerMs > 2*unit {
		t.Errorf("eager edges should allow overlap: %v", eagerMs)
	}
	if eagerMs >= lazyMs {
		t.Errorf("eager (%v) must beat lazy (%v)", eagerMs, lazyMs)
	}
}

func TestOverheadBendsCurve(t *testing.T) {
	g, times := buildChain(spec{"grep", 100 * time.Millisecond})
	noOv := makespan(g, times, 64, 0)
	withOv := makespan(g, times, 64, 10*time.Millisecond)
	if withOv <= noOv {
		t.Error("per-node overhead must increase makespan")
	}
}

func TestZeroWorkGraph(t *testing.T) {
	g, times := buildChain(spec{"true", 0})
	if ms := makespan(g, times, 4, 0); ms != 0 {
		t.Errorf("zero-work makespan = %v", ms)
	}
}
