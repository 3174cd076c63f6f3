package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/dist"
	"repro/internal/runtime"
	"repro/internal/shell"
	"repro/pash"
)

// The per-layer rows of a workload come from running its legs inside
// this process, twice over: once through pash.Session.Run, the path the
// binaries take, and once decomposed by hand into the calls Session.Run
// makes — parse, expand, plan, execute — with a span around each. What
// the decomposition cannot account for of Session.Run's wall time is
// the unattributed share.

// legStdin opens a leg's input the way the CLI leg sees it: as a
// non-seekable stream.
func legStdin(dir string, l leg) (io.Reader, func(), error) {
	if l.stdin == "" {
		return nil, func() {}, nil
	}
	f, err := os.Open(filepath.Join(dir, l.stdin))
	if err != nil {
		return nil, nil, err
	}
	return struct{ io.Reader }{f}, func() { f.Close() }, nil
}

// sessionRun executes a leg through a fresh session (cold plan cache,
// like a fresh pash process) and checks its output.
func sessionRun(ctx context.Context, dir string, l leg, width int, pool *dist.Pool) (time.Duration, pash.InterpStats, error) {
	sess := pash.NewSession(pash.DefaultOptions(width))
	sess.Dir = dir
	if pool != nil {
		sess.UseWorkers(pool)
	}
	stdin, closeIn, err := legStdin(dir, l)
	if err != nil {
		return 0, pash.InterpStats{}, err
	}
	defer closeIn()
	out := newDigest()
	start := time.Now()
	code, st, err := sess.RunStats(ctx, l.script, stdin, out, io.Discard)
	wall := time.Since(start)
	if err != nil || code != 0 {
		return 0, st, fmt.Errorf("bench: in-process %s: exit %d: %v", l.name, code, err)
	}
	if out.output() != l.ref {
		return 0, st, fmt.Errorf("bench: in-process %s: output differs from the reference", l.name)
	}
	return wall, st, nil
}

// timedWriter measures the time the graph's collector spends handing
// output to the consumer: the output drain.
type timedWriter struct {
	w     io.Writer
	spent time.Duration
}

func (t *timedWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := t.w.Write(p)
	t.spent += time.Since(start)
	return n, err
}

// legProfile is what one decomposed run of a leg measured.
type legProfile struct {
	wall     time.Duration
	execWall time.Duration
	nodes    int
	// Summed over the leg's regions, from runtime.Result.NodeTimes.
	nodeWall, nodeActive time.Duration
	byKind               map[dfg.NodeKind]time.Duration // active time per node kind
	byStage              map[string]time.Duration       // active time per fused stage name
}

// simplesOf parses one pipeline and returns its simple commands.
func simplesOf(src string) ([]*shell.Simple, error) {
	list, err := shell.Parse(src)
	if err != nil {
		return nil, err
	}
	if len(list.Items) != 1 {
		return nil, fmt.Errorf("bench: %q is not one pipeline", src)
	}
	pl, ok := list.Items[0].Cmd.(*shell.Pipeline)
	if !ok {
		return nil, fmt.Errorf("bench: %q is not a pipeline", src)
	}
	var out []*shell.Simple
	for _, c := range pl.Cmds {
		s, ok := c.(*shell.Simple)
		if !ok {
			return nil, fmt.Errorf("bench: %q has a compound stage", src)
		}
		out = append(out, s)
	}
	return out, nil
}

// expandStages turns simple commands into the compiler's stage table.
func expandStages(x *shell.Expander, simples []*shell.Simple) ([]core.Stage, error) {
	stages := make([]core.Stage, 0, len(simples))
	for _, s := range simples {
		var argv []string
		for _, w := range s.Args {
			fs, err := x.ExpandWord(w)
			if err != nil {
				return nil, err
			}
			argv = append(argv, fs...)
		}
		stages = append(stages, core.Stage{Name: argv[0], Args: argv[1:]})
	}
	return stages, nil
}

// stagesOf is the stage table of a leg's pipeline with $i bound to 1.
func stagesOf(l leg) ([]core.Stage, error) {
	simples, err := simplesOf(l.body)
	if err != nil {
		return nil, err
	}
	env := shell.NewEnv()
	env.Set("i", "1")
	return expandStages(&shell.Expander{Env: env}, simples)
}

// decomposedRun executes a leg by calling each layer in turn. With a
// non-nil tracer every call is a span of the given job; with nil it is
// the same work unrecorded, which prices the recording.
func decomposedRun(ctx context.Context, dir string, l leg, width int, pool *dist.Pool, tr *tracer, job string) (legProfile, error) {
	prof := legProfile{byKind: map[dfg.NodeKind]time.Duration{}, byStage: map[string]time.Duration{}}
	c := core.NewCompiler(core.DefaultOptions(width))
	if pool != nil {
		c.Workers = pool
	}
	stdin, closeIn, err := legStdin(dir, l)
	if err != nil {
		return prof, err
	}
	defer closeIn()
	simples, err := simplesOf(l.body)
	if err != nil {
		return prof, err
	}
	out := newDigest()
	start := time.Now()

	id := tr.begin("shell.parse", job, -1)
	if _, err := shell.Parse(l.script); err != nil {
		return prof, err
	}
	tr.end(id)

	env := shell.NewEnv()
	x := &shell.Expander{Env: env, Glob: true, Dir: dir}
	for iter := 1; iter <= max(l.loop, 1); iter++ {
		if l.loop > 0 {
			env.Set("i", strconv.Itoa(iter))
		}
		id = tr.begin("shell.expand", job, -1)
		stages, err := expandStages(x, simples)
		tr.end(id)
		if err != nil {
			return prof, err
		}

		id = tr.begin("core.plan", job, -1)
		g, hit, err := c.PlanRegion(stages, width)
		tr.end(id)
		if err != nil {
			return prof, err
		}
		if l.loop == 0 {
			// A one-region leg would never show what a cache hit
			// costs: plan it again, then clone once more by hand so the
			// clone inside the hit is visible on its own.
			id = tr.begin("core.plan.hit", job, -1)
			g, hit, err = c.PlanRegion(stages, width)
			tr.end(id)
			if err != nil || !hit {
				return prof, fmt.Errorf("bench: %s: second plan was not a cache hit (%v)", l.name, err)
			}
			id = tr.begin("dfg.clone", job, -1)
			g = g.Clone()
			tr.end(id)
		}
		prof.nodes += len(g.Nodes)

		sink := &timedWriter{w: out}
		cfg := runtime.Config{Dir: dir, Env: map[string]string{}}
		if pool != nil {
			cfg.Remote = pool
		}
		id = tr.begin("runtime.execute", job, -1)
		execStart := time.Now()
		res, err := runtime.Execute(ctx, g, c.Cmds, runtime.StdIO{Stdin: stdin, Stdout: sink, Stderr: io.Discard}, cfg)
		execWall := time.Since(execStart)
		tr.end(id)
		if err != nil {
			return prof, err
		}
		prof.execWall += execWall
		kinds := map[int]dfg.NodeKind{}
		for _, n := range g.Nodes {
			kinds[n.ID] = n.Kind
		}
		for _, nt := range res.NodeTimes {
			prof.nodeWall += nt.Wall
			prof.nodeActive += nt.Active
			prof.byKind[kinds[nt.ID]] += nt.Active
			// Node goroutines start with the region; their spans are
			// synthesized from the measured durations.
			nid := tr.add("node."+kinds[nt.ID].String()+"."+nt.Name, job, id, execStart, nt.Wall)
			tr.add("active", job, nid, execStart, nt.Active)
			for _, st := range nt.Stages {
				prof.byStage[st.Name] += st.Active
				tr.add("stage."+st.Name, job, nid, execStart, st.Active)
			}
		}
		tr.add("output.drain", job, id, execStart, sink.spent)
	}
	prof.wall = time.Since(start)
	if out.output() != l.ref {
		return prof, fmt.Errorf("bench: decomposed %s: output differs from the reference", l.name)
	}
	return prof, nil
}
