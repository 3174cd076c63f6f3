package runtime

import (
	"context"
	"errors"
	"fmt"
	"io"

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
	// Reg, FS, Env, and Stderr configure local (fallback) execution of
	// the spec's stages. FS is the job's filesystem: its Jail bit rides
	// the wire so a worker confines a sandboxed job's chain to its own
	// directory.
	Reg    *commands.Registry
	FS     commands.OSFS
	Env    map[string]string
	Stderr io.Writer
}

// runRemote executes a KindRemote node: through the configured remote
// executor when one is attached, locally otherwise (a plan distributed
// for a pool the run no longer has still computes the right bytes).
func (ex *executor) runRemote(ctx context.Context, n *dfg.Node) error {
	req := &RemoteRequest{
		Spec:   n.Remote,
		Out:    ex.writers[n.Out[0].ID].(commands.ChunkWriter),
		Reg:    ex.reg,
		FS:     ex.fs,
		Env:    ex.cfg.Env,
		Stderr: ex.stdio.Stderr,
	}
	if n.Remote.Path != "" {
		// A file range names a file for someone else to open: resolve it
		// through the job's filesystem first, so a path that escapes a
		// sandbox is refused here and never shipped.
		if _, err := ex.fs.Resolve(n.Remote.Path); err != nil {
			return err
		}
	}
	for i, e := range n.In {
		cr, ok := ex.readers[e.ID].(commands.ChunkReader)
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
// client's recovery ladder. Per-stream exit statuses are not the node's
// (a collector follows every remote node) and are dropped.
func ExecRemoteLocal(ctx context.Context, req *RemoteRequest) error {
	spec, out := req.Spec, chunkOnlyWriter{req.Out}
	if spec.Agg != nil {
		ins := make([]io.Reader, len(req.Ins))
		for i, cr := range req.Ins {
			ins[i] = ChunkReaderAsReader(cr)
		}
		return ExecStreamTree(ctx, req.Reg, spec, ins, out, req.FS, req.Env, req.Stderr)
	}
	chain, err := NewStageChain(req.Reg, spec.Stages, req.FS, req.Env, req.Stderr)
	if err != nil {
		return err
	}
	switch {
	case spec.Path != "":
		r, err := OpenRange(req.FS, spec.Path, spec.Slice, spec.Of)
		if err != nil {
			return err
		}
		defer r.Close()
		_, err = chain.Stream(r, out)
		return err
	case spec.Streamed:
		_, err = chain.Stream(ChunkReaderAsReader(req.Ins[0]), out)
		return err
	}
	return chain.PerChunk(ctx, req.Ins[0], req.Out)
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
