package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dfg"
	"repro/internal/runtime"
)

// TestExecuteRunsThePlan: the graph is the whole plan. Each preset is
// planned through core.Options and then executed the way a caller that
// knows nothing about the options does it — a bare
// runtime.Config{Dir: dir} — and must still run what was planned: the
// decision is on the graph (split implementation, eager bound), every
// planned node ran, the bytes are the sequential ones, and where an
// execution leaves an exact trace in Result the trace is the planned
// implementation's. (That the executor builds exactly the bounded buffer
// an edge asks for is checked on its pipes: runtime's
// TestBlockingEagerConfig.)
func TestExecuteRunsThePlan(t *testing.T) {
	dir := t.TempDir()
	// No trailing newline: only the barrier split re-terminates a final
	// unterminated line itself, so its out-edges move exactly one byte
	// more than any other split's — the trace that tells them apart.
	files := map[string]string{"in.txt": strings.TrimSuffix(corpus(4000), "\n"), "a.txt": corpus(4000), "b.txt": corpus(3000)}
	for name, text := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	split := []Stage{{Name: "grep", Args: []string{"-v", "nomatch", "in.txt"}}, {Name: "tr", Args: []string{"a-z", "A-Z"}}}
	multi := []Stage{{Name: "cat", Args: []string{"a.txt", "b.txt"}}, {Name: "tr", Args: []string{"a-z", "A-Z"}}}

	// exec returns the run's result, its output and the bytes its
	// internal edges moved.
	exec := func(c *Compiler, g *dfg.Graph) (*runtime.Result, string, int64) {
		t.Helper()
		var out bytes.Buffer
		var traffic runtime.Traffic
		res, err := runtime.Execute(context.Background(), g, c.Cmds, runtime.StdIO{Stdout: &out}, runtime.Config{Dir: dir, Traffic: &traffic})
		if err != nil {
			t.Fatalf("%+v: %v", c.Opts, err)
		}
		moved, _ := traffic.Moved()
		return res, out.String(), moved
	}
	run := func(opts Options, stages []Stage) (*dfg.Graph, *runtime.Result, string, int64) {
		t.Helper()
		c := NewCompiler(opts)
		g, _, err := c.PlanRegion(stages, opts.Width)
		if err != nil {
			t.Fatal(err)
		}
		res, out, moved := exec(c, g)
		return g, res, out, moved
	}
	_, _, wantSplit, _ := run(Options{Width: 1}, split)
	_, _, wantMulti, _ := run(Options{Width: 1}, multi)
	// The barrier split's trace, with the chain fused as in every row:
	// emission's barrier split, then the fusion pass emission skips.
	c := NewCompiler(DefaultOptions(2))
	bg, err := c.lift(split)
	if err != nil {
		t.Fatal(err)
	}
	o := c.dfgOptions()
	kernelCapable := o.KernelCapable
	o.Emit, o.KernelCapable = true, nil
	dfg.Apply(bg, o)
	o.Emit, o.KernelCapable = false, kernelCapable
	dfg.Fuse(bg, o)
	_, _, barrier := exec(c, bg)

	for _, cfg := range []struct {
		preset Preset
		stages []Stage
		want   string
		split  dfg.SplitImpl // the one split's implementation; -1: no split planned
		eager  bool
		bound  int
	}{
		{ParSplit, split, wantSplit, dfg.RoundRobinSplit, true, 0},
		{ParBSplit, split, wantSplit, dfg.FileRangeSplit, true, 0},
		{Parallel, multi, wantMulti, -1, true, 0},
		{BlockingEager, multi, wantMulti, -1, true, 1 << 20},
		{NoEager, multi, wantMulti, -1, false, 0},
		{SplitNoEager, split, wantSplit, dfg.RoundRobinSplit, false, 0},
		{Planned, split, wantSplit, dfg.RoundRobinSplit, true, 0},
	} {
		name := cfg.preset.String()
		g, res, out, moved := run(Options{Width: 2, Preset: cfg.preset}, cfg.stages)
		if out != cfg.want {
			t.Errorf("%s: output diverged from width 1:\n%s", name, clip(out))
		}
		// Every planned node ran, and nothing else.
		ran := map[int]bool{}
		for _, nt := range res.NodeTimes {
			ran[nt.ID] = true
		}
		splits := 0
		for _, n := range g.Nodes {
			if !ran[n.ID] {
				t.Errorf("%s: planned node %s never ran", name, n)
			}
			if n.Kind == dfg.KindSplit {
				splits++
				if n.Split != cfg.split {
					t.Errorf("%s: planned the %v split, want %v", name, n.Split, cfg.split)
				}
			}
		}
		if res.NodeCount != len(g.Nodes) || (splits == 1) != (cfg.split >= 0) {
			t.Errorf("%s: ran %d of %d nodes, %d split(s)", name, res.NodeCount, len(g.Nodes), splits)
		}
		eager := 0
		for _, e := range g.Edges {
			if !e.Eager {
				continue
			}
			eager++
			if e.EagerBytes != cfg.bound {
				t.Errorf("%s: eager edge %s bounded at %d bytes, want %d", name, e, e.EagerBytes, cfg.bound)
			}
			if cfg.bound > 0 || cfg.split >= 0 {
				continue
			}
			// An unbounded buffer never makes its producer wait, and this
			// producer reads a file: it cannot have blocked at all.
			for _, nt := range res.NodeTimes {
				if nt.ID == e.From.ID && nt.Active != nt.Wall {
					t.Errorf("%s: producer %s of an unbounded eager edge blocked for %v", name, e.From, nt.Wall-nt.Active)
				}
			}
		}
		if (eager > 0) != cfg.eager {
			t.Errorf("%s: %d eager edges planned", name, eager)
		}
		switch cfg.split {
		case dfg.FileRangeSplit, dfg.RoundRobinSplit:
			if moved != barrier-1 {
				t.Errorf("%s: moved %d bytes, the barrier split %d: the planned %v split did not run",
					name, moved, barrier, cfg.split)
			}
		}
	}
}

// TestPlanKeySeparatesSplitAndEagerDecisions: the split implementation
// and the eager bound live on the cached graph, so the presets that
// choose them must keep separating plan-cache entries — a hit would
// replay the other preset's decision.
func TestPlanKeySeparatesSplitAndEagerDecisions(t *testing.T) {
	type decisions struct {
		impl  dfg.SplitImpl // of `grep x in.txt | sort`; -1: no split
		eager bool          // of `cat a.txt b.txt | tr a-z A-Z`
		bound int
	}
	split := []Stage{{Name: "grep", Args: []string{"x", "in.txt"}}, {Name: "sort"}}
	multi := []Stage{{Name: "cat", Args: []string{"a.txt", "b.txt"}}, {Name: "tr", Args: []string{"a-z", "A-Z"}}}
	c := NewCompiler(DefaultOptions(2))
	plan := func(stages []Stage, hit bool) *dfg.Graph {
		t.Helper()
		g, gotHit, err := c.PlanRegion(stages, 2)
		if err != nil {
			t.Fatal(err)
		}
		if gotHit != hit {
			t.Errorf("%s: hit=%v, want %v", c.Opts.Preset, gotHit, hit)
		}
		return g
	}
	want := map[Preset]decisions{
		ParSplit:      {dfg.RoundRobinSplit, true, 0},
		ParBSplit:     {dfg.FileRangeSplit, true, 0},
		Parallel:      {-1, true, 0},
		BlockingEager: {-1, true, 1 << 20},
		NoEager:       {-1, false, 0},
		SplitNoEager:  {dfg.RoundRobinSplit, false, 0},
		Planned:       {dfg.RoundRobinSplit, true, 0},
	}
	for _, hit := range []bool{false, true} {
		for p := ParSplit; p <= Planned; p++ {
			c.Opts.Preset = p
			d := decisions{impl: -1}
			for _, n := range plan(split, hit).Nodes {
				if n.Kind == dfg.KindSplit {
					d.impl = n.Split
				}
			}
			for _, e := range plan(multi, hit).Edges {
				if e.Eager {
					d.eager, d.bound = true, e.EagerBytes
				}
			}
			if d != want[p] {
				t.Errorf("%s (hit=%v): %+v, want %+v", p, hit, d, want[p])
			}
		}
	}
}

// TestGrepMaxCountIsSequential: grep -m N stops after N matches of the
// whole input, so a replica per chunk would print up to N lines each.
// Through the Planned preset, over input large enough to plan width 4,
// every spelling prints the width-1 bytes.
func TestGrepMaxCountIsSequential(t *testing.T) {
	dir := t.TempDir()
	text := corpus(200000)
	if len(text) <= 1<<20 {
		t.Fatalf("corpus is %d bytes, want over 1 MiB", len(text))
	}
	if err := os.WriteFile(filepath.Join(dir, "t"), []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		`grep -m 3 a t`,
		`grep -n -m 3 a t`,
		`grep -e a -m 3 t`,
		`cat t | grep -m 3 a`,
	} {
		want := runScript(t, Options{Width: 1}, src, "", dir, nil)
		if got := runScript(t, Options{Width: 4, Preset: Planned}, src, "", dir, nil); got != want {
			t.Errorf("%s: width 4 printed %d lines, width 1 %d", src, strings.Count(got, "\n"), strings.Count(want, "\n"))
		}
	}
}
