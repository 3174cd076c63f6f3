package runtime

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/annot"
	"repro/internal/dfg"
)

func TestProfileMatchesExecute(t *testing.T) {
	build := func() *dfg.Graph {
		g := buildPipeline(
			dfg.NewNode(dfg.KindCommand, "grep", []dfg.Arg{dfg.Lit("a")}, annot.Stateless),
			dfg.NewNode(dfg.KindCommand, "sort", nil, annot.Pure),
		)
		dfg.Apply(g, dfg.Options{Width: 4, Split: true, Eager: dfg.EagerFull,
			AggResolver: nil})
		return g
	}
	in := "banana\napple\navocado\ncherry\nfig\napricot\n"
	var normal, profiled bytes.Buffer
	if _, err := Execute(context.Background(), build(), testRegistry(),
		StdIO{Stdin: strings.NewReader(in), Stdout: &normal}, Config{}); err != nil {
		t.Fatal(err)
	}
	res, err := Profile(context.Background(), build(), testRegistry(),
		StdIO{Stdin: strings.NewReader(in), Stdout: &profiled}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if normal.String() != profiled.String() {
		t.Errorf("profile output differs:\nnormal  %q\nprofile %q", normal.String(), profiled.String())
	}
	if len(res.NodeTimes) == 0 {
		t.Fatal("no node times recorded")
	}
	for _, nt := range res.NodeTimes {
		if nt.Active != nt.Wall {
			t.Errorf("profile mode: active (%v) must equal wall (%v)", nt.Active, nt.Wall)
		}
	}
}

func TestProfileMapAggregate(t *testing.T) {
	sortNode := dfg.NewNode(dfg.KindCommand, "sort", []dfg.Arg{dfg.Lit("-n")}, annot.Pure)
	sortNode.Agg = &dfg.AggSpec{
		MapName: "sort", MapArgs: []string{"-n"},
		AggName: "sort", AggArgs: []string{"-m", "-n"},
	}
	g := buildPipeline(sortNode)
	dfg.Apply(g, dfg.Options{Width: 3, Split: true, Eager: dfg.EagerFull})
	var out bytes.Buffer
	res, err := Profile(context.Background(), g, testRegistry(),
		StdIO{Stdin: strings.NewReader("3\n1\n2\n9\n5\n4\n"), Stdout: &out}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != "1\n2\n3\n4\n5\n9\n" {
		t.Errorf("profile map/agg output = %q", out.String())
	}
	if res.NodeCount != len(res.NodeTimes) {
		t.Errorf("node count %d != times %d", res.NodeCount, len(res.NodeTimes))
	}
}

func TestExecuteMeteredActiveLessThanWall(t *testing.T) {
	// A consumer that blocks on a slow producer accumulates blocked
	// time: its active time must be below wall time.
	g := buildPipeline(
		dfg.NewNode(dfg.KindCommand, "sort", nil, annot.Pure),
		dfg.NewNode(dfg.KindCommand, "cat", nil, annot.Stateless),
	)
	var in strings.Builder
	for i := 0; i < 20000; i++ {
		in.WriteString("line with words to sort\n")
	}
	var out bytes.Buffer
	res, err := Execute(context.Background(), g, testRegistry(),
		StdIO{Stdin: strings.NewReader(in.String()), Stdout: &out}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The cat node waits for sort (a blocking producer).
	for _, nt := range res.NodeTimes {
		if nt.Name == "cat" && nt.Active >= nt.Wall {
			t.Errorf("cat active %v not below wall %v (no blocking metered)", nt.Active, nt.Wall)
		}
	}
}

// TestBlockingEagerConfig: an eager edge's byte bound is the plan's, and
// the executor builds exactly that buffer — bounded where the planner
// bounded it, unbounded where it did not, a plain pipe elsewhere;
// Profile alone makes every internal edge unbounded.
func TestBlockingEagerConfig(t *testing.T) {
	const bound = 1 << 16
	for _, planned := range []int{0, bound} {
		g := buildPipeline(
			dfg.NewNode(dfg.KindCommand, "tr", []dfg.Arg{dfg.Lit("a-z"), dfg.Lit("A-Z")}, annot.Stateless),
		)
		dfg.Apply(g, dfg.Options{Width: 2, Split: true, Eager: dfg.EagerBlocking, BlockingEagerBytes: planned})
		for _, sequential := range []bool{false, true} {
			ex := &executor{g: g, reg: testRegistry(), sequential: sequential}
			if err := ex.open(); err != nil {
				t.Fatal(err)
			}
			eager := 0
			for _, e := range g.Edges {
				if e.From == nil || e.To == nil {
					continue
				}
				want := pipeBufSize
				if e.Eager {
					eager++
					want = planned
				}
				if sequential {
					want = 0
				}
				if got := ex.readers[e.ID].(readEnd).p.max; got != want {
					t.Errorf("planned bound %d, sequential=%v, edge %s (eager=%v): buffer bound %d, want %d",
						planned, sequential, e, e.Eager, got, want)
				}
			}
			ex.closeEverything()
			if eager == 0 {
				t.Fatal("no eager edge planned")
			}
		}
		var out bytes.Buffer
		if _, err := Execute(context.Background(), g, testRegistry(),
			StdIO{Stdin: strings.NewReader("x\ny\nz\n"), Stdout: &out}, Config{}); err != nil {
			t.Fatal(err)
		}
		if out.String() != "X\nY\nZ\n" {
			t.Errorf("planned bound %d: output = %q", planned, out.String())
		}
	}
}

func TestExecuteRejectsInvalidGraph(t *testing.T) {
	g := dfg.New()
	n := dfg.NewNode(dfg.KindCommand, "cat", []dfg.Arg{dfg.InArg(3)}, annot.Stateless)
	g.AddNode(n)
	if _, err := Execute(context.Background(), g, testRegistry(), StdIO{}, Config{}); err == nil {
		t.Error("invalid graph accepted")
	}
}
