package runtime

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/commands"
	"repro/internal/dfg"
)

// Config is the environment one job's graphs execute in. What runs is
// the graph's business alone — split implementations, eager bounds and
// fusion are planned onto it (internal/dfg) — so a bare Config{Dir: dir}
// executes any plan exactly as planned.
type Config struct {
	// Dir is the working directory for file bindings.
	Dir string
	// Env is the command environment.
	Env map[string]string
	// Remote executes KindRemote nodes on a worker pool; nil runs them
	// locally through ExecRemoteLocal (same bytes, no network).
	Remote RemoteExecutor
	// Budget, when set, is the owning job's resource accounting: pipes
	// charge queued payload against its pipe-memory ceiling. nil =
	// unlimited.
	Budget *Budget
	// Traffic, when set, receives live byte/chunk movement as pipes
	// enqueue.
	Traffic *Traffic
	// Sandbox confines command file access to Dir (absolute paths and
	// ".." escapes fail) — the execution half of JobLimits.Sandbox.
	Sandbox bool
	// DisableFusion is the test switch that proves fused == unfused: the
	// executor's stage chains (fused nodes, framed replicas) run through
	// the command implementations instead of their kernels.
	DisableFusion bool
}

// StdIO binds the graph's boundary streams.
type StdIO struct {
	Stdin  io.Reader
	Stdout io.Writer
	Stderr io.Writer
}

// Result reports a graph execution.
type Result struct {
	// ExitCode is the exit status of the graph's final node (the node
	// feeding the primary output), following shell pipeline semantics.
	ExitCode int
	// NodeCount is the number of node goroutines launched (the paper's
	// "#nodes", Tab. 2).
	NodeCount int
	// NodeTimes reports per-node wall and active (wall minus
	// pipe-blocked) durations, feeding the multicore scheduling
	// simulator on single-core hosts.
	NodeTimes []NodeTime
}

// NodeTime is one node's measured execution profile.
type NodeTime struct {
	ID     int
	Name   string
	Wall   time.Duration
	Active time.Duration
	// Stages breaks a fused node's work down per collapsed stage: the
	// fused loop attributes kernel time and byte traffic to each stage
	// even though no pipe separates them any more.
	Stages []commands.StageTime
}

// Execute runs the graph to completion: one goroutine per node, edges as
// in-memory streams, boundary edges bound to files or StdIO. It returns
// when every node has terminated.
func Execute(ctx context.Context, g *dfg.Graph, reg *commands.Registry, stdio StdIO, cfg Config) (*Result, error) {
	return (&executor{g: g, reg: reg, stdio: stdio, cfg: cfg}).run(ctx)
}

// Profile executes the graph in measurement mode: the same executor, but
// nodes run one at a time in topological order over unbounded edge
// buffers, so each node's wall time is its true compute work — free of
// the scheduler-queuing noise that concurrent execution on a small host
// mixes in. The output is byte-identical to Execute's; NodeTimes carry
// the clean works that the multicore scheduling simulator consumes.
//
// Not suitable for graphs with unbounded producers (a huge seq | head): in
// measurement mode producers run to completion before their consumers.
func Profile(ctx context.Context, g *dfg.Graph, reg *commands.Registry, stdio StdIO, cfg Config) (*Result, error) {
	return (&executor{g: g, reg: reg, stdio: stdio, cfg: cfg, sequential: true}).run(ctx)
}

type executor struct {
	g     *dfg.Graph
	reg   *commands.Registry
	stdio StdIO
	cfg   Config
	// sequential is Profile's scheduling policy: nodes one at a time in
	// topological order, every internal edge unbounded.
	sequential bool

	// fs is the job's view of the real filesystem (jailed for a sandboxed
	// job); overlay adds the graph's edges to it as virtual files, and its
	// base opens every input file the region reads.
	fs      commands.OSFS
	overlay *overlayFS

	// Tables over the graph's one ID space (dfg.Graph.IDBound): an edge's
	// two ends and its operand name at its ID, a node's blocked
	// nanoseconds at its.
	readers []io.ReadCloser
	writers []io.WriteCloser
	names   []string
	meters  []int64

	mu          sync.Mutex
	firstErr    error
	finalStatus int

	closers []io.Closer
	closeMu sync.Mutex
}

// virtualPrefix namespaces edge streams in the overlay filesystem. The
// value lives in the commands package so extension-API wrappers can
// recognize stream operands.
const virtualPrefix = commands.VirtualStreamPrefix

func (ex *executor) run(ctx context.Context) (*Result, error) {
	defer ex.closeEverything()
	if err := ex.open(); err != nil {
		return nil, err
	}
	order := ex.g.Nodes
	if ex.sequential {
		order, _ = ex.g.TopoOrder() // open has validated the graph: acyclic
	}
	nodeTimes := make([]NodeTime, len(order))
	final := ex.finalNode()
	if ex.sequential {
		// One node at a time; the first failure ends the run.
		for i, n := range order {
			if nodeTimes[i] = ex.runNode(ctx, n, final); ex.firstErr != nil {
				break
			}
		}
	} else {
		// The caller waits for the region anyway: the node whose status is
		// the region's runs on this goroutine, and a one-node region
		// starts none at all.
		var wg sync.WaitGroup
		finalAt := -1
		for i, n := range order {
			if n == final {
				finalAt = i
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				nodeTimes[i] = ex.runNode(ctx, n, final)
			}()
		}
		if finalAt >= 0 {
			nodeTimes[finalAt] = ex.runNode(ctx, final, final)
		}
		wg.Wait()
	}
	if ex.firstErr != nil {
		return nil, ex.firstErr
	}
	return &Result{ExitCode: ex.finalStatus, NodeCount: len(ex.g.Nodes), NodeTimes: nodeTimes}, nil
}

// open validates the graph and materializes its edges: after it, every
// node finds its streams in readers/writers and every virtual name in
// the overlay.
func (ex *executor) open() error {
	if err := ex.g.Validate(); err != nil {
		return err
	}
	if ex.stdio.Stdout == nil {
		ex.stdio.Stdout = io.Discard
	}
	if ex.stdio.Stderr == nil {
		ex.stdio.Stderr = io.Discard
	}
	ids := ex.g.IDBound()
	ex.readers = make([]io.ReadCloser, ids)
	ex.writers = make([]io.WriteCloser, ids)
	ex.names = make([]string, ids)
	ex.meters = make([]int64, ids)
	ex.fs = commands.OSFS{Dir: ex.cfg.Dir, Jail: ex.cfg.Sandbox}
	if ex.overlay == nil {
		ex.overlay = &overlayFS{base: ex.fs}
	}
	for _, e := range ex.g.Edges {
		if err := ex.materialize(e); err != nil {
			return err
		}
	}
	// Only an input a command opens by name needs one: an operand, not
	// its stdin. A graph-input file keeps its real name — commands that
	// embed input names in their output (grep's file prefixes) behave as
	// in a real shell, and opening it hands the command the file opened
	// above (operandFS); any other edge gets a virtual name the overlay
	// resolves to its stream.
	for _, n := range ex.g.Nodes {
		for i, e := range n.In {
			switch {
			case i == n.StdinInput:
			case e.From == nil && e.Source.Kind == dfg.BindFile:
				ex.names[e.ID] = e.Source.Path
			default:
				name := virtualPrefix + strconv.Itoa(e.ID)
				ex.names[e.ID] = name
				if ex.overlay.streams == nil {
					ex.overlay.streams = map[string]io.ReadCloser{}
				}
				ex.overlay.streams[name] = ex.readers[e.ID]
			}
		}
	}
	return nil
}

// runNode runs one node to completion and settles its account: its
// times, its error or status, and its ends of every edge.
func (ex *executor) runNode(ctx context.Context, n, final *dfg.Node) NodeTime {
	start := time.Now()
	// Containment boundary: a panic anywhere in this node's execution — a
	// builtin bug, a user-registered extension kernel or aggregator, a
	// chain stage — fails this job alone; the process and every other job
	// survive.
	var stages []commands.StageTime
	err := func() (err error) {
		defer Contain("node "+n.Name, &err)
		stages, err = ex.dispatch(ctx, n)
		return err
	}()
	wall := time.Since(start)
	active := max(wall-time.Duration(atomic.LoadInt64(&ex.meters[n.ID])), 0)
	ex.mu.Lock()
	if err != nil && !isCleanTermination(err) && ex.firstErr == nil {
		ex.firstErr = fmt.Errorf("node %s: %w", n, err)
	}
	if n == final {
		ex.finalStatus = commands.ExitCode(err)
	}
	ex.mu.Unlock()
	// The node is done: close its ends of every edge. Closing unread
	// inputs delivers the SIGPIPE analog upstream — PaSh's cleanup logic
	// that prevents dangling-FIFO deadlocks (§5.2).
	ex.closeNodeEdges(n)
	return NodeTime{ID: n.ID, Name: n.Name, Wall: wall, Active: active, Stages: stages}
}

// isCleanTermination treats downstream-closed write failures and
// non-zero exit statuses as normal pipeline behaviour.
func isCleanTermination(err error) bool {
	if errors.Is(err, ErrDownstreamClosed) {
		return true
	}
	var ee *commands.ExitError
	return errors.As(err, &ee)
}

// finalNode picks the node feeding the primary output (stdout binding if
// present, else any graph output).
func (ex *executor) finalNode() *dfg.Node {
	var fallback *dfg.Node
	for _, e := range ex.g.Edges {
		if e.To != nil || e.From == nil {
			continue
		}
		if e.Sink.Kind == dfg.BindStdout {
			return e.From
		}
		fallback = e.From
	}
	return fallback
}

func (ex *executor) materialize(e *dfg.Edge) error {
	// Producer end.
	switch {
	case e.From != nil:
		// Internal producer: a stream. Created below together with the
		// consumer end.
	case e.Source.Kind == dfg.BindFile:
		// Opened before any node runs: a missing or jailed input fails the
		// region before it writes a byte.
		f, err := ex.overlay.base.Open(e.Source.Path)
		if err != nil {
			return fmt.Errorf("runtime: input %s: %w", e.Source.Path, err)
		}
		ex.readers[e.ID] = f
		ex.track(f)
	case e.Source.Kind == dfg.BindStdin:
		r := ex.stdio.Stdin
		if r == nil {
			r = strings.NewReader("")
		}
		ex.readers[e.ID] = io.NopCloser(r)
	case e.Source.Kind == dfg.BindLiteral:
		// Literal input (a heredoc body): the edge reads the carried
		// bytes directly, no file involved.
		ex.readers[e.ID] = io.NopCloser(strings.NewReader(e.Source.Data))
	default:
		// Unbound input: empty stream.
		ex.readers[e.ID] = io.NopCloser(strings.NewReader(""))
	}

	// Consumer end.
	switch {
	case e.To != nil && e.From == nil:
		// Reader already set above; nothing else to do.
	case e.To == nil && e.From != nil:
		switch e.Sink.Kind {
		case dfg.BindFile:
			var w io.WriteCloser
			var err error
			if e.Sink.Append {
				w, err = ex.fs.Append(e.Sink.Path)
			} else {
				w, err = ex.fs.Create(e.Sink.Path)
			}
			if err != nil {
				return fmt.Errorf("runtime: output %s: %w", e.Sink.Path, err)
			}
			ex.writers[e.ID] = w
			ex.track(w)
		case dfg.BindStdout:
			ex.writers[e.ID] = nopWriteCloser{ex.stdio.Stdout}
		case dfg.BindNone:
			// Explicitly discarded stream (a pipe whose consumer reads a
			// file instead, POSIX `a | b <f` semantics).
			ex.writers[e.ID] = nopWriteCloser{io.Discard}
		}
	case e.To != nil && e.From != nil:
		s := newEdgeStream(e.Eager, e.EagerBytes)
		if ex.sequential {
			// A producer must be able to finish before its consumer starts.
			s = newEdgeStream(true, 0)
		}
		s.p.readMeter = &ex.meters[e.To.ID]
		s.p.writeMeter = &ex.meters[e.From.ID]
		s.p.budget = ex.cfg.Budget
		s.p.traffic = ex.cfg.Traffic
		ex.readers[e.ID] = s.reader()
		ex.writers[e.ID] = s.writer()
	case e.To == nil && e.From == nil:
		return fmt.Errorf("runtime: edge %s is fully unbound", e)
	}
	return nil
}

func (ex *executor) track(c io.Closer) {
	ex.closeMu.Lock()
	ex.closers = append(ex.closers, c)
	ex.closeMu.Unlock()
}

func (ex *executor) closeEverything() {
	ex.closeMu.Lock()
	defer ex.closeMu.Unlock()
	for _, c := range ex.closers {
		c.Close()
	}
	ex.closers = nil
}

// closeNodeEdges closes the node's side of each of its edges.
func (ex *executor) closeNodeEdges(n *dfg.Node) {
	for _, e := range n.Out {
		if w := ex.writers[e.ID]; w != nil {
			w.Close()
		}
	}
	for _, e := range n.In {
		if r := ex.readers[e.ID]; r != nil {
			r.Close()
		}
	}
}

// dispatch executes one node by kind; a node that ran as a stage chain
// through kernels also reports its per-stage attribution.
func (ex *executor) dispatch(ctx context.Context, n *dfg.Node) ([]commands.StageTime, error) {
	args := n.ArgStrings(func(i int) string { return ex.names[n.In[i].ID] })
	switch {
	case n.Kind == dfg.KindSplit:
		return nil, ex.runSplit(n)
	case n.Kind == dfg.KindFused:
		return ex.runChain(ctx, n, n.Stages)
	case n.Kind == dfg.KindRemote:
		return nil, ex.runRemote(ctx, n)
	case n.Framed && len(n.In) == 1 && len(n.Out) == 1 && n.StdinInput == 0:
		return ex.runChain(ctx, n, []dfg.FusedStage{{Name: n.Name, Args: args}})
	}
	// Stdout: the (single) output edge; nodes with no outputs write to
	// the void.
	var stdout io.Writer = io.Discard
	if len(n.Out) > 0 {
		stdout = ex.writers[n.Out[0].ID]
	}
	var stdin io.Reader = strings.NewReader("")
	if n.StdinInput >= 0 {
		stdin = ex.readers[n.In[n.StdinInput].ID]
	}
	cctx := &commands.Context{
		Args:   args,
		Stdin:  stdin,
		Stdout: stdout,
		Stderr: ex.stdio.Stderr,
		FS:     ex.overlay,
		Env:    ex.cfg.Env,
		Limit:  n.Limit,
	}
	var files map[string][]io.ReadCloser
	for i, e := range n.In {
		if i != n.StdinInput && e.From == nil && e.Source.Kind == dfg.BindFile {
			if files == nil {
				files = map[string][]io.ReadCloser{}
			}
			files[e.Source.Path] = append(files[e.Source.Path], ex.readers[e.ID])
		}
	}
	if files != nil {
		cctx.FS = &operandFS{ex.overlay, files}
	}
	reg := ex.reg
	if n.Kind == dfg.KindCat || n.Kind == dfg.KindMerge {
		// Collector nodes are the runtime's own primitives,
		// inserted by the transformations: they always run the builtin
		// implementations, even when a session shadows "cat" with a
		// user command.
		reg = commands.Std()
	}
	return nil, reg.Run(n.Name, cctx)
}

// runChain executes a node that is a chain of stdin-to-stdout stages — a
// KindFused node's collapsed commands, a framed replica's one — through
// the one chain runner: once per chunk under the round-robin frame
// discipline, over the whole stream otherwise, the node's exit status
// being the last stage's.
func (ex *executor) runChain(ctx context.Context, n *dfg.Node, stages []dfg.FusedStage) ([]commands.StageTime, error) {
	chain, err := NewStageChain(ex.reg, stages, ex.overlay, ex.cfg.Env, ex.stdio.Stderr)
	if err != nil {
		return nil, err
	}
	if ex.cfg.DisableFusion {
		chain.kpool = nil
	}
	if chain.kpool != nil {
		chain.meters = make([]commands.StageTime, len(stages))
		for i, st := range stages {
			chain.meters[i].Name = st.Name
		}
	}
	r, w := ex.readers[n.In[0].ID], ex.writers[n.Out[0].ID]
	if n.Framed {
		cr, rok := r.(commands.ChunkReader)
		cw, wok := w.(commands.ChunkWriter)
		if rok && wok {
			return chain.meters, chain.PerChunk(ctx, cr, cw)
		}
		// No chunk framing on these edges: the stream is one frame.
	}
	status, err := chain.Stream(r, w)
	if err == nil && status != 0 {
		err = &commands.ExitError{Code: status}
	}
	return chain.meters, err
}

// runSplit runs the split implementation the planner put on the node.
func (ex *executor) runSplit(n *dfg.Node) error {
	ws := make([]io.WriteCloser, len(n.Out))
	for i, e := range n.Out {
		ws[i] = ex.writers[e.ID]
	}
	in := n.In[0]
	var err error
	switch n.Split {
	case dfg.RoundRobinSplit:
		err = roundRobinSplit(ex.readers[in.ID], ws)
	case dfg.FileRangeSplit:
		// Each range opens the file itself; the edge's reader goes unused.
		ex.readers[in.ID].Close()
		err = fileSplit(ex.fs, in.Source.Path, ws)
	default:
		err = GeneralSplit(ex.readers[in.ID], ws)
	}
	if err != nil {
		return fmt.Errorf("runtime: split node #%d: %w", n.ID, err)
	}
	return nil
}

type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

// overlayFS resolves virtual stream names to live streams and passes
// everything else through to the job's real filesystem. Commands are none
// the wiser that some of their "files" are pipes — mirroring how PaSh's
// generated scripts substitute FIFOs for files. The executor maps its
// edges here.
type overlayFS struct {
	base    commands.FS
	streams map[string]io.ReadCloser // fixed before any command runs
}

// operandFS is one node's view of the overlay: opening one of its file
// operands returns the file the executor already opened for that edge,
// so each operand is opened once per region (cat f f takes both of f's).
// Any other open goes to the overlay.
type operandFS struct {
	*overlayFS
	files map[string][]io.ReadCloser
}

func (o *operandFS) Open(path string) (io.ReadCloser, error) {
	if fs := o.files[path]; len(fs) > 0 {
		o.files[path] = fs[1:]
		return fs[0], nil
	}
	return o.overlayFS.Open(path)
}

// Open resolves virtual names to their streams.
func (o *overlayFS) Open(path string) (io.ReadCloser, error) {
	if r, ok := o.streams[path]; ok {
		return r, nil
	}
	if strings.HasPrefix(path, virtualPrefix) {
		return nil, fmt.Errorf("runtime: unknown stream %s", path)
	}
	return o.base.Open(path)
}

// Create passes through to the real filesystem.
func (o *overlayFS) Create(path string) (io.WriteCloser, error) {
	if strings.HasPrefix(path, virtualPrefix) {
		return nil, fmt.Errorf("runtime: cannot create stream %s", path)
	}
	return o.base.Create(path)
}

// Append passes through to the real filesystem.
func (o *overlayFS) Append(path string) (io.WriteCloser, error) {
	if strings.HasPrefix(path, virtualPrefix) {
		return nil, fmt.Errorf("runtime: cannot append to stream %s", path)
	}
	return o.base.Append(path)
}
