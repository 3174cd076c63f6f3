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

// TestExecuteRunsThePlan: the graph is the whole plan. Each Fig. 7
// configuration is planned through core.Options and then executed the
// way a caller that knows nothing about the options does it — a bare
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

	run := func(opts Options, stages []Stage) (*dfg.Graph, *runtime.Result, string) {
		t.Helper()
		c := NewCompiler(opts)
		g, _, err := c.PlanRegion(stages, opts.Width)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		res, err := runtime.Execute(context.Background(), g, c.Cmds, runtime.StdIO{Stdout: &out}, runtime.Config{Dir: dir})
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		return g, res, out.String()
	}
	_, _, wantSplit := run(Options{Width: 1}, split)
	_, _, wantMulti := run(Options{Width: 1}, multi)
	_, barrier, _ := run(Options{Width: 2, Split: true, Eager: dfg.EagerFull, SplitMode: dfg.SplitGeneral}, split)

	for _, cfg := range []struct {
		name   string
		opts   Options
		stages []Stage
		want   string
		split  dfg.SplitImpl // the one split's implementation; -1: no split planned
		eager  bool
		bound  int
	}{
		{"par+split", Options{Width: 2, Split: true, Eager: dfg.EagerFull}, split, wantSplit, dfg.RoundRobinSplit, true, 0},
		{"par+bsplit", Options{Width: 2, Split: true, Eager: dfg.EagerFull, InputAwareSplit: true}, split, wantSplit, dfg.FileRangeSplit, true, 0},
		{"parallel", Options{Width: 2, Eager: dfg.EagerFull}, multi, wantMulti, -1, true, 0},
		{"blocking-eager", Options{Width: 2, Eager: dfg.EagerBlocking, BlockingEagerBytes: 1 << 20}, multi, wantMulti, -1, true, 1 << 20},
		{"no-eager", Options{Width: 2, Eager: dfg.EagerNone}, multi, wantMulti, -1, false, 0},
	} {
		g, res, out := run(cfg.opts, cfg.stages)
		if out != cfg.want {
			t.Errorf("%s: output diverged from width 1:\n%s", cfg.name, clip(out))
		}
		// Every planned node ran, and nothing else.
		ran := map[int]bool{}
		for _, nt := range res.NodeTimes {
			ran[nt.ID] = true
		}
		splits := 0
		for _, n := range g.Nodes {
			if !ran[n.ID] {
				t.Errorf("%s: planned node %s never ran", cfg.name, n)
			}
			if n.Kind == dfg.KindSplit {
				splits++
				if n.Split != cfg.split {
					t.Errorf("%s: planned the %v split, want %v", cfg.name, n.Split, cfg.split)
				}
			}
		}
		if res.NodeCount != len(g.Nodes) || (splits == 1) != (cfg.split >= 0) {
			t.Errorf("%s: ran %d of %d nodes, %d split(s)", cfg.name, res.NodeCount, len(g.Nodes), splits)
		}
		eager := 0
		for _, e := range g.Edges {
			if !e.Eager {
				continue
			}
			eager++
			if e.EagerBytes != cfg.bound {
				t.Errorf("%s: eager edge %s bounded at %d bytes, want %d", cfg.name, e, e.EagerBytes, cfg.bound)
			}
			if cfg.bound > 0 || cfg.split >= 0 {
				continue
			}
			// An unbounded buffer never makes its producer wait, and this
			// producer reads a file: it cannot have blocked at all.
			for _, nt := range res.NodeTimes {
				if nt.ID == e.From.ID && nt.Active != nt.Wall {
					t.Errorf("%s: producer %s of an unbounded eager edge blocked for %v", cfg.name, e.From, nt.Wall-nt.Active)
				}
			}
		}
		if (eager > 0) != cfg.eager {
			t.Errorf("%s: %d eager edges planned", cfg.name, eager)
		}
		switch cfg.split {
		case dfg.FileRangeSplit, dfg.RoundRobinSplit:
			if res.BytesMoved != barrier.BytesMoved-1 {
				t.Errorf("%s: moved %d bytes, the barrier split %d: the planned %v split did not run",
					cfg.name, res.BytesMoved, barrier.BytesMoved, cfg.split)
			}
		}
	}
}

// TestPlanKeySeparatesSplitAndEagerDecisions: the split implementation
// and the eager bound now live on the cached graph, so the options that
// choose them must keep separating plan-cache entries — a hit would
// replay the other configuration's decision.
func TestPlanKeySeparatesSplitAndEagerDecisions(t *testing.T) {
	c := NewCompiler(DefaultOptions(2))
	stages := []Stage{{Name: "grep", Args: []string{"x", "in.txt"}}, {Name: "sort"}}
	decisions := func(g *dfg.Graph) (impl dfg.SplitImpl, bound int) {
		for _, n := range g.Nodes {
			if n.Kind == dfg.KindSplit {
				impl = n.Split
			}
		}
		for _, e := range g.Edges {
			if e.Eager {
				bound = e.EagerBytes
			}
		}
		return impl, bound
	}
	for _, step := range []struct {
		set   func(o *Options)
		hit   bool
		impl  dfg.SplitImpl
		bound int
	}{
		{func(o *Options) {}, false, dfg.RoundRobinSplit, 0},
		{func(o *Options) { o.InputAwareSplit = true }, false, dfg.FileRangeSplit, 0},
		{func(o *Options) { o.BlockingEagerBytes = 1 << 20 }, false, dfg.FileRangeSplit, 1 << 20},
		{func(o *Options) { o.SplitMode = dfg.SplitGeneral }, false, dfg.BarrierSplit, 1 << 20},
		{func(o *Options) { o.SplitMode = dfg.SplitAuto }, true, dfg.FileRangeSplit, 1 << 20},
		{func(o *Options) { o.InputAwareSplit, o.BlockingEagerBytes = false, 0 }, true, dfg.RoundRobinSplit, 0},
	} {
		step.set(&c.Opts)
		g, hit, err := c.PlanRegion(stages, 2)
		if err != nil {
			t.Fatal(err)
		}
		if impl, bound := decisions(g); hit != step.hit || impl != step.impl || bound != step.bound {
			t.Errorf("%+v: hit=%v split=%v eager bound=%d, want hit=%v split=%v bound=%d",
				c.Opts, hit, impl, bound, step.hit, step.impl, step.bound)
		}
	}
}
