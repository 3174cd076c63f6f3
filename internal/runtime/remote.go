package runtime

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/commands"
	"repro/internal/dfg"
)

// This file is the runtime side of the distributed data plane: the
// KindRemote node executor, the RemoteExecutor hook a worker-pool
// client plugs into, and the local interpretation of remote specs that
// serves both the no-pool case and the pool's failover path. The wire
// transport itself lives in internal/dist; the runtime only sees chunk
// streams. See internal/runtime/README.md ("Distributed execution").

// RemoteExecutor ships one remote node's work to a worker. The executor
// calls it once per KindRemote node; implementations must preserve the
// node's stream contract (framed: exactly one output chunk per input
// chunk; file-range and streamed: the node's output bytes in order)
// even when a worker dies mid-stream — internal/dist does so by
// re-dispatching what the dead worker left unfinished to a surviving
// worker or, when none is left, through ExecRemoteLocal.
type RemoteExecutor interface {
	ExecRemote(ctx context.Context, req *RemoteRequest) error
}

// RemoteErrorClass partitions the errors a RemoteExecutor can hit into
// the two recovery behaviors. The runtime owns the taxonomy because
// the guarantee it encodes — a remote node's stream contract survives
// worker failure — is the runtime's, not the transport's; internal/dist
// supplies the stream-position knowledge by marking errors as it
// classifies them.
type RemoteErrorClass int

const (
	// RemoteErrFatal aborts the node with no retry and no failover:
	// the run was cancelled, the downstream consumer hung up (the
	// SIGPIPE analog), or the input side failed. Re-dispatching after
	// any of these would duplicate or fabricate work.
	RemoteErrFatal RemoteErrorClass = iota
	// RemoteErrMidStream is a worker or transport failure: what the
	// worker left unfinished must re-dispatch (to a surviving worker, or
	// locally) and the failed worker marks down. (A failure while the
	// request is still being opened needs no class of its own: the
	// transport retries it in place, by position, before it counts.)
	RemoteErrMidStream
)

// fatalError marks an error as RemoteErrFatal.
type fatalError struct{ err error }

func (f *fatalError) Error() string { return f.err.Error() }
func (f *fatalError) Unwrap() error { return f.err }

// MarkFatal tags err as non-recoverable for the remote node (input or
// downstream failure): no retry, no failover.
func MarkFatal(err error) error {
	if err == nil {
		return nil
	}
	return &fatalError{err}
}

// ClassifyRemoteError maps an error from a live remote stream onto its
// recovery behavior. Marked errors, cancellation, deadline expiry, and
// downstream hangup are fatal; everything else is a worker/transport
// death and re-dispatches.
func ClassifyRemoteError(err error) RemoteErrorClass {
	var f *fatalError
	if errors.As(err, &f) ||
		errors.Is(err, ErrDownstreamClosed) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) {
		return RemoteErrFatal
	}
	return RemoteErrMidStream
}

// RemoteRequest carries everything one remote node execution needs.
type RemoteRequest struct {
	Spec *dfg.RemoteSpec
	// Ins streams the node's inputs in operand order: none for a
	// file-range spec (the worker self-sources), one for a framed or
	// linear streamed chain, one per branch for a streamed aggregation
	// subtree.
	Ins []commands.ChunkReader
	// Out receives the node's output chunks in order.
	Out commands.ChunkWriter
	// Reg, Dir, Env, and Stderr configure local (fallback) execution of
	// the spec's stages.
	Reg    *commands.Registry
	Dir    string
	Env    map[string]string
	Stderr io.Writer
}

// runRemote executes a KindRemote node: through the configured remote
// executor when one is attached, locally otherwise (a plan distributed
// for a pool the run no longer has still computes the right bytes).
func (ex *executor) runRemote(ctx context.Context, n *dfg.Node) error {
	req := &RemoteRequest{
		Spec:   n.Remote,
		Out:    ex.writers[n.Out[0]].(commands.ChunkWriter),
		Reg:    ex.reg,
		Dir:    ex.cfg.Dir,
		Env:    ex.cfg.Env,
		Stderr: ex.stdio.Stderr,
	}
	for i, e := range n.In {
		cr, ok := ex.readers[e].(commands.ChunkReader)
		if !ok {
			return fmt.Errorf("runtime: remote node #%d input %d carries no chunk framing", n.ID, i)
		}
		req.Ins = append(req.Ins, cr)
	}
	if ex.cfg.Remote != nil {
		return ex.cfg.Remote.ExecRemote(ctx, req)
	}
	return ExecRemoteLocal(ctx, req)
}

// ExecRemoteLocal interprets a remote spec on the local machine: the
// exact computation a worker would perform, over the same chunk
// streams. It is the no-pool path and the bottom rung of the pool
// client's recovery ladder.
func ExecRemoteLocal(ctx context.Context, req *RemoteRequest) error {
	if req.Spec.Streamed {
		ins := make([]io.Reader, len(req.Ins))
		for i, cr := range req.Ins {
			ins[i] = ChunkReaderAsReader(cr)
		}
		return ExecStreamSpec(ctx, req.Reg, req.Spec, ins, chunkOnlyWriter{req.Out}, req.Dir, req.Env, req.Stderr)
	}
	chain, err := NewStageChain(req.Reg, req.Spec.Stages, req.Dir, req.Env, req.Stderr)
	if err != nil {
		return err
	}
	if req.Spec.Path != "" {
		r, err := OpenRange(req.Dir, req.Spec.Path, req.Spec.Slice, req.Spec.Of)
		if err != nil {
			return err
		}
		defer r.Close()
		return chain.Stream(r, chunkOnlyWriter{req.Out})
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		b, release, err := req.Ins[0].ReadChunk()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		out, err := chain.ApplyChunk(b)
		release()
		if err != nil {
			return err
		}
		if err := req.Out.WriteChunk(out); err != nil {
			return err
		}
	}
}

// chunkOnlyWriter adapts a ChunkWriter to io.Writer for streaming
// producers that do not transfer block ownership.
type chunkOnlyWriter struct{ cw commands.ChunkWriter }

func (w chunkOnlyWriter) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 {
		n := len(p)
		if n > commands.BlockSize {
			n = commands.BlockSize
		}
		blk := append(commands.GetBlock(), p[:n]...)
		if err := w.cw.WriteChunk(blk); err != nil {
			return total - len(p), err
		}
		p = p[n:]
	}
	return total, nil
}

func (w chunkOnlyWriter) WriteChunk(b []byte) error { return w.cw.WriteChunk(b) }

// StageChain executes a remote spec's linear stage chain: through
// composed kernels when every stage has one (the fused fast path), and
// through the full command implementations otherwise. It is shared by
// the local fallback path here and the dist worker's /exec handler.
type StageChain struct {
	reg    *commands.Registry
	stages []dfg.FusedStage
	stderr io.Writer
	env    map[string]string
	fs     commands.FS
	// kernelArgs pins the kernel construction inputs: kernels carry
	// per-stream state, so ApplyChunk builds a fresh set per chunk and
	// Stream one set per call.
	kernelCapable bool
	// kpool recycles kernel sets across chunks and requests. Finish
	// resets each kernel, so a set that completed cleanly is as good as
	// new; error paths drop the set instead of returning it. Shared
	// (same pointer) by WithEnv copies, so a cached chain template in
	// the dist worker amortizes kernel construction across requests.
	kpool *sync.Pool
}

// WithEnv returns a copy of the chain bound to env, sharing the
// validated stages and the kernel pool. The dist worker's plan cache
// stores an env-free chain template and binds each request's
// environment through this without re-validating the stages.
func (c *StageChain) WithEnv(env map[string]string) *StageChain {
	cp := *c
	cp.env = env
	return &cp
}

// NewStageChain validates the stages against the registry and prepares
// an executor for them.
func NewStageChain(reg *commands.Registry, stages []dfg.FusedStage, dir string, env map[string]string, stderr io.Writer) (*StageChain, error) {
	if len(stages) == 0 {
		return nil, errors.New("runtime: stage chain is empty")
	}
	if stderr == nil {
		stderr = io.Discard
	}
	c := &StageChain{
		reg: reg, stages: stages, stderr: stderr, env: env,
		fs: commands.OSFS{Dir: dir},
	}
	c.kernelCapable = true
	for _, st := range stages {
		if _, ok := reg.Lookup(st.Name); !ok {
			return nil, fmt.Errorf("runtime: stage chain: unknown command %q", st.Name)
		}
		if !reg.KernelCapable(st.Name, st.Args) {
			c.kernelCapable = false
		}
	}
	if c.kernelCapable {
		c.kpool = &sync.Pool{}
	}
	return c, nil
}

// buildKernels returns a kernel set for the chain: a pooled set when
// one is available, a freshly instantiated one otherwise.
func (c *StageChain) buildKernels() ([]commands.Kernel, bool) {
	if !c.kernelCapable {
		return nil, false
	}
	if v := c.kpool.Get(); v != nil {
		return v.([]commands.Kernel), true
	}
	ks := make([]commands.Kernel, len(c.stages))
	for i, st := range c.stages {
		k, ok := c.reg.NewKernel(st.Name, st.Args)
		if !ok {
			return nil, false
		}
		ks[i] = k
	}
	return ks, true
}

// releaseKernels returns a kernel set to the pool. Callers only release
// after a clean completion — Finish has reset every kernel — and drop
// the set on error paths, where kernel state is indeterminate.
func (c *StageChain) releaseKernels(ks []commands.Kernel) { c.kpool.Put(ks) }

// ApplyChunk runs the whole chain over one chunk as an independent
// stream (Apply + Finish per stage), returning a pooled output block
// the caller owns. The input chunk is not consumed. Per-chunk non-zero
// exit statuses (grep finding nothing) are normal and ignored.
func (c *StageChain) ApplyChunk(chunk []byte) ([]byte, error) {
	if ks, ok := c.buildKernels(); ok {
		cur := chunk
		owned := false
		for _, k := range ks {
			if _, id := k.(interface{ IsPassThrough() }); id {
				continue
			}
			next := k.Apply(commands.GetBlock(), cur)
			next = k.Finish(next)
			if owned {
				commands.PutBlock(cur)
			}
			cur = next
			owned = true
		}
		if !owned {
			cur = append(commands.GetBlock(), chunk...)
		}
		c.releaseKernels(ks)
		return cur, nil
	}
	cur := chunk
	owned := false
	for _, st := range c.stages {
		col := &chunkCollector{buf: commands.GetBlock()}
		cctx := &commands.Context{
			Args:   st.Args,
			Stdin:  bytes.NewReader(cur),
			Stdout: col,
			Stderr: c.stderr,
			FS:     c.fs,
			Env:    c.env,
		}
		runErr := c.reg.Run(st.Name, cctx)
		if owned {
			commands.PutBlock(cur)
		}
		if runErr != nil {
			var ee *commands.ExitError
			if !errors.As(runErr, &ee) {
				commands.PutBlock(col.buf)
				return nil, runErr
			}
		}
		cur = col.buf
		owned = true
	}
	return cur, nil
}

// Stream runs the chain over a whole byte stream: the kernel streaming
// loop when possible, a pipe-connected goroutine per stage otherwise.
// Per-stream non-zero exit statuses are normal and ignored; transport
// and usage failures propagate.
func (c *StageChain) Stream(r io.Reader, w io.Writer) error {
	if ks, ok := c.buildKernels(); ok {
		meters := make([]StageTime, len(ks))
		err := runFusedStreaming(r, w, ks, meters)
		if err == nil {
			c.releaseKernels(ks)
			return nil
		}
		var ee *commands.ExitError
		if errors.As(err, &ee) {
			return nil
		}
		return err
	}
	stdin := r
	errs := make([]error, len(c.stages))
	var wg sync.WaitGroup
	type closing struct {
		out io.WriteCloser
		in  io.Closer
	}
	ios := make([]closing, len(c.stages))
	for i := range c.stages {
		var stageIn io.Reader = stdin
		if i == len(c.stages)-1 {
			ios[i].out = nopWriteCloser{w}
		} else {
			s := newEdgeStream(false, 0)
			ios[i].out = s.writer()
			stdin = s.reader()
			ios[i+1].in = s.reader()
		}
		i, st, stageIn := i, c.stages[i], stageIn
		wg.Add(1)
		go func() {
			defer wg.Done()
			cctx := &commands.Context{
				Args:   st.Args,
				Stdin:  stageIn,
				Stdout: ios[i].out,
				Stderr: c.stderr,
				FS:     c.fs,
				Env:    c.env,
			}
			errs[i] = func() (err error) {
				defer Contain("chain stage "+st.Name, &err)
				return c.reg.Run(st.Name, cctx)
			}()
			ios[i].out.Close()
			if ios[i].in != nil {
				ios[i].in.Close()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && !isCleanTermination(err) {
			return err
		}
	}
	return nil
}

// OpenRange opens the slice-th of n newline-aligned byte ranges of the
// file at path (resolved against dir), using the same alignment rule as
// the seek-based fileSplit: a range starts right after the first
// newline at or before its nominal byte offset, so every line lands in
// exactly one range and the concatenation of all ranges is the file.
// Workers and coordinator compute boundaries independently but
// identically — the file-range wire plan ships offsets as (slice, of),
// never as absolute positions.
func OpenRange(dir, path string, slice, of int) (io.ReadCloser, error) {
	if of < 1 || slice < 0 || slice >= of {
		return nil, fmt.Errorf("runtime: range %d/%d invalid", slice, of)
	}
	if !filepath.IsAbs(path) && dir != "" {
		path = filepath.Join(dir, path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := st.Size()
	lo, err := alignedOffset(f, size, slice, of)
	if err != nil {
		f.Close()
		return nil, err
	}
	hi, err := alignedOffset(f, size, slice+1, of)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &rangeReader{f: f, pos: lo, hi: hi}, nil
}

// alignedOffset computes the aligned start of range i of n.
func alignedOffset(f *os.File, size int64, i, n int) (int64, error) {
	if i <= 0 {
		return 0, nil
	}
	if i >= n {
		return size, nil
	}
	return alignToLineStart(f, size*int64(i)/int64(n))
}

// rangeReader reads [pos, hi) of f via ReadAt.
type rangeReader struct {
	f   *os.File
	pos int64
	hi  int64
}

func (r *rangeReader) Read(p []byte) (int, error) {
	if r.pos >= r.hi {
		return 0, io.EOF
	}
	if max := r.hi - r.pos; int64(len(p)) > max {
		p = p[:max]
	}
	n, err := r.f.ReadAt(p, r.pos)
	r.pos += int64(n)
	if err == io.EOF && r.pos < r.hi {
		err = io.ErrUnexpectedEOF
	}
	if err == io.EOF {
		err = nil
	}
	if n > 0 {
		return n, nil
	}
	return n, err
}

func (r *rangeReader) Close() error { return r.f.Close() }
