package core

// Streaming plan support: PlanStream classifies a single pipeline for
// windowed execution over an unbounded input, and StreamPlan runs it
// one window at a time. The micro-batch design keeps every layer of
// the batch stack on the hot path unchanged — each window is a normal
// region execution through the plan cache (a hit costs one clone), the
// scheduler, and the distributed worker plane — while the dfg window
// operator carries the composition contract between windows. The
// cumulative fold runs the same associative aggregate commands the
// agg-tree fan-in uses (pash-agg-wc, sort -m, pash-agg-uniq, ...), so
// "windowed aggregation" is literally the agg tree extended in time:
// level k merges replicas within a window, the fold merges windows.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/annot"
	"repro/internal/commands"
	"repro/internal/dfg"
	"repro/internal/runtime"
	"repro/internal/shell"
)

// ErrNotStreamable marks scripts PlanStream rejects: anything that is
// not a single pipeline whose stages are stateless except for an
// associative aggregation tail. Callers (pash-serve) turn it into a
// 400 instead of a runtime failure.
var ErrNotStreamable = errors.New("core: script is not streamable")

// notStreamable builds a reasoned ErrNotStreamable.
func notStreamable(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrNotStreamable, fmt.Sprintf(format, args...))
}

// StreamPlan is a compiled streaming pipeline: the expanded stages,
// their region fingerprint, and the window operator spec. One plan
// serves every window of one streaming job. The exported fields bind
// per-job execution state; set them before the first RunWindow.
type StreamPlan struct {
	c      *Compiler
	stages []Stage
	rkey   string
	dir    string
	env    map[string]string
	window dfg.WindowSpec
	// fold is the cumulative emit mode's combine pipeline as a stage
	// chain (nil for EmitDelta); each window binds its two operands.
	fold *runtime.StageChain

	// Budget is the owning job's resource accounting (may be nil). The
	// runner strips MaxPipeMemory before building it: for streaming
	// jobs that ceiling governs the source buffer with pause semantics,
	// not the first-breach-kills budget.
	Budget *runtime.Budget
	// Traffic receives live data-plane movement (may be nil).
	Traffic *runtime.Traffic
	// Sandbox confines command file access to the plan's directory.
	Sandbox bool

	statsMu sync.Mutex
	stats   InterpStats
}

// streamStatePath and streamPartialPath name the fold's two operands in
// the in-memory combine filesystem — the stream-time analog of the
// virtual edge names an agg-tree interior node reads.
const (
	streamStatePath   = "/pash/stream/state"
	streamPartialPath = "/pash/stream/partial"
)

// PlanStream parses and classifies src for windowed streaming
// execution. The script must be exactly one foreground pipeline of
// simple stages, with no redirections or assignment prefixes (the
// stream owns stdin and stdout), and must fit one of the streamable
// shapes:
//
//   - every stage stateless             → EmitDelta
//   - stateless* + associative agg tail → EmitCumulative
//   - stateless* + sort | head (top-k)  → EmitCumulative, 2-stage fold
//
// Word expansion (variables, command substitution) happens here, once,
// exactly as it would at the top of a batch run.
func (c *Compiler) PlanStream(src, dir string, vars map[string]string) (*StreamPlan, error) {
	list, err := shell.Parse(src)
	if err != nil {
		return nil, err
	}
	if len(list.Items) != 1 {
		return nil, notStreamable("want exactly one pipeline, got %d statements", len(list.Items))
	}
	if list.Items[0].Background {
		return nil, notStreamable("background jobs cannot stream")
	}
	simples, negated, ok := simplePipeline(list.Items[0].Cmd)
	if !ok || negated {
		return nil, notStreamable("want one pipeline of simple commands")
	}
	for _, s := range simples {
		if len(s.Assigns) > 0 {
			return nil, notStreamable("assignment prefixes cannot stream")
		}
		if len(s.Redirs) > 0 {
			return nil, notStreamable("redirections cannot stream (the stream owns stdin/stdout)")
		}
	}
	// Expand with a throwaway interpreter: same env/expansion semantics
	// as a batch run, paid once at plan time.
	tmp := NewInterp(c, dir, vars, runtime.StdIO{})
	stages, _, err := expandStages(tmp.expander(), simples)
	if err != nil {
		return nil, err
	}
	for _, st := range stages {
		switch st.Name {
		case "cd", "export", "wait", "exec", "set", "umask", "ulimit":
			return nil, notStreamable("builtin %s cannot stream", st.Name)
		}
	}

	// Compile once, unoptimized, to reuse the batch classification:
	// CompilePipeline adds one node per stage in order, attaching the
	// (map, aggregate) pair wherever the agg library knows one.
	g, err := c.CompilePipeline(stages, RegionIO{})
	if err != nil {
		return nil, err
	}
	spec, err := classifyStream(g.Nodes)
	if err != nil {
		return nil, err
	}
	// Windowize validates the streaming shape (stdin in, stdout out)
	// against the compiled graph; the spec stays on the plan and is
	// attached to each window's private clone at execution time.
	if err := dfg.Windowize(g, spec); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotStreamable, err)
	}

	p := &StreamPlan{
		c:      c,
		stages: stages,
		rkey:   regionKey(stages),
		dir:    dir,
		env:    tmp.envSnapshot(),
		window: *spec,
	}
	if len(spec.Combine) > 0 {
		// The first stage reads the two parts as operands — the same
		// convention an agg-tree interior node uses to read its children —
		// and later stages read the previous stage's stdout.
		fold := make([]dfg.FusedStage, len(spec.Combine))
		for i, cs := range spec.Combine {
			fold[i] = dfg.FusedStage{Name: cs.Name, Args: cs.Args}
		}
		fold[0].Args = append(append([]string(nil), fold[0].Args...), streamStatePath, streamPartialPath)
		if p.fold, err = runtime.NewStageChain(c.Cmds, fold, memFS{}, p.env, nil); err != nil {
			return nil, fmt.Errorf("core: stream combine: %w", err)
		}
	}
	return p, nil
}

// classifyStream derives the window operator's emit/composition
// contract from a compiled (unoptimized) pipeline — one node per stage.
func classifyStream(nodes []*dfg.Node) (*dfg.WindowSpec, error) {
	statelessThrough := func(k int) bool {
		for i := 0; i < k; i++ {
			if nodes[i].Class != annot.Stateless {
				return false
			}
		}
		return true
	}
	n := len(nodes)
	last := nodes[n-1]
	switch {
	case last.Class == annot.Stateless && statelessThrough(n-1):
		// Stateless end to end: window outputs concatenate.
		return &dfg.WindowSpec{Emit: dfg.EmitDelta}, nil
	case last.Agg != nil && last.Agg.Associative && statelessThrough(n-1):
		// Terminal associative aggregator (wc, sum/grep -c, uniq -c,
		// sort): the window partial folds into carried state with the
		// same aggregate command the agg tree uses.
		return &dfg.WindowSpec{
			Emit:    dfg.EmitCumulative,
			Combine: []dfg.CombineStage{{Name: last.Agg.AggName, Args: last.Agg.AggArgs}},
		}, nil
	case n >= 2 && last.Agg != nil && last.Agg.Associative && last.Agg.StopsEarly &&
		nodes[n-2].Name == "sort" && nodes[n-2].Agg != nil && statelessThrough(n-2):
		// sort | head -n K (top-k): fold = merge the sorted top-k runs,
		// then re-take the top k. Sound because the global top-k is
		// contained in the union of per-part top-ks.
		return &dfg.WindowSpec{
			Emit: dfg.EmitCumulative,
			Combine: []dfg.CombineStage{
				{Name: nodes[n-2].Agg.AggName, Args: nodes[n-2].Agg.AggArgs},
				{Name: last.Agg.AggName, Args: last.Agg.AggArgs},
			},
		}, nil
	}
	return nil, notStreamable("stage %q has no windowed form (want stateless stages with an associative aggregation tail)", last.Name)
}

// Window exposes the plan's window operator spec; the runner fills the
// trigger policy (interval, max bytes) before the first window.
func (p *StreamPlan) Window() *dfg.WindowSpec { return &p.window }

// Stages reports the expanded pipeline (for metrics and tests).
func (p *StreamPlan) Stages() []Stage { return p.stages }

// Stats counts the windows run so far as the interpreter counts regions:
// nodes, plan-cache verdicts and width decisions.
func (p *StreamPlan) Stats() InterpStats {
	p.statsMu.Lock()
	defer p.statsMu.Unlock()
	return p.stats
}

// RunWindow executes one window of the stream as a normal batch region.
// width is the window's ask, a ceiling as Options.Width is for a script
// region, and the window goes through the same decision: its width is
// planned from its own bytes — the runner hands it a sized reader — and
// granted by the scheduler for as long as the window runs, so between
// windows the job holds no width token. The plan cache serves the template
// (each distinct width compiles once, every later window pays one clone),
// and the graph runs through the full runtime — fusion, rr split, agg
// trees, and the distributed worker plane when the compiler has one. win
// is the window's line-aligned payload; out receives the window's raw
// result (the caller composes it per the emit mode).
func (p *StreamPlan) RunWindow(ctx context.Context, win io.Reader, out, errw io.Writer, width int) (int, error) {
	wp, lifted, release, err := p.c.regionWidth(p.stages, p.rkey, max(width, 1), p.Budget, RegionInput{
		FS:    commands.OSFS{Dir: p.dir, Jail: p.Sandbox},
		Stdin: win,
	})
	if err != nil {
		return 1, err
	}
	defer release()
	_, res, _, err := p.c.runRegion(ctx, p.stages, p.rkey, wp, lifted, runtime.StdIO{Stdin: win, Stdout: out, Stderr: errw}, runtime.Config{
		Dir:     p.dir,
		Env:     p.env,
		Budget:  p.Budget,
		Sandbox: p.Sandbox,
		Traffic: p.Traffic,
	}, false, func(g *dfg.Graph, hit bool) {
		g.Window = &p.window
		p.statsMu.Lock()
		p.stats.noteRegion(g, hit)
		p.statsMu.Unlock()
	})
	if err != nil {
		return 1, err
	}
	return res.ExitCode, nil
}

// Combine folds a new window partial into the carried state through the
// plan's combine chain, returning the next state (which is also the
// cumulative emission). The chain runs hermetically: its filesystem holds
// the two parts and nothing else. A nil state means the first window: the
// partial is the state.
func (p *StreamPlan) Combine(state, partial []byte) ([]byte, error) {
	if p.fold == nil || state == nil {
		return partial, nil
	}
	var out bytes.Buffer
	fs := memFS{streamStatePath: state, streamPartialPath: partial}
	if _, err := p.fold.Bind(fs, p.env).Stream(bytes.NewReader(nil), &out); err != nil {
		return nil, fmt.Errorf("core: stream combine: %w", err)
	}
	return out.Bytes(), nil
}

// memFS maps the fold's operand names to in-memory payloads. Everything
// else is invisible: combine stages run hermetically.
type memFS map[string][]byte

func (m memFS) Open(path string) (io.ReadCloser, error) {
	b, ok := m[path]
	if !ok {
		return nil, fmt.Errorf("core: unknown combine operand %s", path)
	}
	return io.NopCloser(bytes.NewReader(b)), nil
}

func (m memFS) Create(path string) (io.WriteCloser, error) {
	return nil, fmt.Errorf("core: combine stages cannot create %s", path)
}

func (m memFS) Append(path string) (io.WriteCloser, error) {
	return nil, fmt.Errorf("core: combine stages cannot append to %s", path)
}
