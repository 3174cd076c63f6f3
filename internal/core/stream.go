package core

// Streaming plan support: an interpreter plans a single pipeline for
// windowed execution over an unbounded input (PlanStream), and the
// StreamPlan runs it one window at a time. Each window is an ordinary
// region of the interpreter that planned it — plan cache (a hit costs
// one clone), scheduler, distributed worker plane, and the job's budget,
// jail, traffic meter and Stats. The cumulative fold runs the same
// associative aggregate commands the agg-tree fan-in uses (pash-agg-wc,
// sort -m, pash-agg-uniq, ...), so "windowed aggregation" is literally
// the agg tree extended in time: level k merges replicas within a
// window, the fold merges windows.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/annot"
	"repro/internal/dfg"
	"repro/internal/runtime"
	"repro/internal/shell"
)

// ErrNotStreamable marks scripts PlanStream rejects: anything that is
// not a single pipeline reading standard input whose stages are
// stateless except for an associative aggregation tail. Callers
// (pash-serve) turn it into a 400 instead of a runtime failure.
var ErrNotStreamable = errors.New("core: script is not streamable")

// notStreamable builds a reasoned ErrNotStreamable.
func notStreamable(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrNotStreamable, fmt.Sprintf(format, args...))
}

// StreamPlan is a compiled streaming pipeline: the expanded stages,
// their region fingerprint, and the fold that composes window results.
// One plan serves every window of one streaming job.
type StreamPlan struct {
	in     *Interp
	stages []Stage
	rkey   string
	env    map[string]string
	// fold is the cumulative emit mode's combine pipeline as a stage
	// chain (nil when window outputs concatenate); each window binds
	// its two operands.
	fold *runtime.StageChain
}

// streamStatePath and streamPartialPath name the fold's two operands in
// the in-memory combine filesystem — the stream-time analog of the
// virtual edge names an agg-tree interior node reads.
const (
	streamStatePath   = "/pash/stream/state"
	streamPartialPath = "/pash/stream/partial"
)

// PlanStream plans src for windowed execution through a fresh
// interpreter over dir and vars; see Interp.PlanStream.
func (c *Compiler) PlanStream(src, dir string, vars map[string]string) (*StreamPlan, error) {
	list, err := shell.Parse(src)
	if err != nil {
		return nil, err
	}
	return NewInterp(c, dir, vars, runtime.StdIO{}).PlanStream(list)
}

// PlanStream classifies list for windowed streaming execution by this
// interpreter. The script must be exactly one foreground pipeline of
// simple stages that reads standard input, with no redirections or
// assignment prefixes (the stream owns stdin and stdout), and must fit
// one of the streamable shapes:
//
//   - every stage stateless             → delta: window outputs concatenate
//   - stateless* + associative agg tail → cumulative
//   - stateless* + sort | head (top-k)  → cumulative, 2-stage fold
//
// Word expansion (variables, command substitution) happens here, once,
// through this interpreter: under its jail and budget, in its directory.
func (in *Interp) PlanStream(list *shell.List) (*StreamPlan, error) {
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
	stages, _, err := expandStages(in.expander(), simples)
	if err != nil {
		return nil, err
	}
	for _, st := range stages {
		if shellBuiltins[st.Name] {
			return nil, notStreamable("builtin %s cannot stream", st.Name)
		}
	}

	// Compile once, unoptimized, to reuse the batch classification:
	// CompilePipeline adds one node per stage in order, attaching the
	// (map, aggregate) pair wherever the agg library knows one.
	g, err := in.c.CompilePipeline(stages, RegionIO{})
	if err != nil {
		return nil, err
	}
	// The windower feeds each window through the script's stdin: a
	// pipeline that reads none never consumes the stream.
	stdin := false
	for _, e := range g.InputEdges() {
		stdin = stdin || e.Source.Kind == dfg.BindStdin
	}
	if !stdin {
		return nil, notStreamable("the pipeline does not read standard input")
	}
	fold, err := streamFold(g.Nodes)
	if err != nil {
		return nil, err
	}

	p := &StreamPlan{in: in, stages: stages, rkey: regionKey(stages), env: in.envSnapshot()}
	if fold != nil {
		// The first stage reads the two parts as operands — the same
		// convention an agg-tree interior node uses to read its children —
		// and later stages read the previous stage's stdout.
		fold[0].Args = append(append([]string(nil), fold[0].Args...), streamStatePath, streamPartialPath)
		if p.fold, err = runtime.NewStageChain(in.c.Cmds, fold, memFS{}, p.env, nil); err != nil {
			return nil, fmt.Errorf("core: stream combine: %w", err)
		}
	}
	return p, nil
}

// streamFold derives how window results compose from a compiled
// (unoptimized) pipeline — one node per stage: nil for a stateless
// pipeline, whose window outputs concatenate, or the fold pipeline that
// merges a window's partial into the carried state.
func streamFold(nodes []*dfg.Node) ([]dfg.FusedStage, error) {
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
		return nil, nil
	case last.Agg != nil && last.Agg.Associative && statelessThrough(n-1):
		// Terminal associative aggregator (wc, sum/grep -c, uniq -c,
		// sort): the window partial folds into carried state with the
		// same aggregate command the agg tree uses.
		return []dfg.FusedStage{{Name: last.Agg.AggName, Args: last.Agg.AggArgs}}, nil
	case n >= 2 && last.Agg != nil && last.Agg.Associative && last.Agg.Takes > 0 &&
		nodes[n-2].Name == "sort" && nodes[n-2].Agg != nil && statelessThrough(n-2):
		// sort | head -n K (top-k): fold = merge the sorted top-k runs,
		// then re-take the top k. Sound because the global top-k is
		// contained in the union of per-part top-ks.
		return []dfg.FusedStage{
			{Name: nodes[n-2].Agg.AggName, Args: nodes[n-2].Agg.AggArgs},
			{Name: last.Agg.AggName, Args: last.Agg.AggArgs},
		}, nil
	}
	return nil, notStreamable("stage %q has no windowed form (want stateless stages with an associative aggregation tail)", last.Name)
}

// Cumulative reports the emit mode: true when window partials fold into
// carried state and every window emits the running value, false when
// window outputs concatenate.
func (p *StreamPlan) Cumulative() bool { return p.fold != nil }

// RunWindow executes one window of the stream as a region of the
// interpreter that planned it. width is the window's ask, a ceiling as
// Options.Width is for a script region, and the window goes through the
// same decision: its width is planned from its own bytes — the runner
// hands it a sized reader — and granted by the scheduler for as long as
// the window runs, so between windows the job holds no width token. win
// is the window's line-aligned payload; out receives the window's raw
// result (the caller composes it per the emit mode).
func (p *StreamPlan) RunWindow(ctx context.Context, win io.Reader, out, errw io.Writer, width int) (int, error) {
	_, res, _, err := p.in.region(ctx, p.stages, p.rkey, max(width, 1), runtime.StdIO{Stdin: win, Stdout: out, Stderr: errw}, p.env)
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
