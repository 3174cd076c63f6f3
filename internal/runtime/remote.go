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
// streams. internal/runtime/README.md states the wire format and the
// failure model.

// RemoteExecutor ships one remote node's work to a worker. The executor
// calls it once per KindRemote node; implementations must preserve the
// node's stream contract (the node's output bytes in order) even when
// a worker dies mid-stream — internal/dist does so by re-dispatching
// what the dead worker left unfinished to a surviving worker or, when
// none is left, through ExecRemoteLocal.
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
	// In streams the node's input: nil for a file-range spec (the
	// worker self-sources), the one input of a streamed chain otherwise.
	In commands.ChunkReader
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
	// Budget is the job's resource accounting (nil = unlimited): the
	// input chunks a remote session keeps for replay are charged to its
	// pipe memory like chunks queued in a pipe.
	Budget *Budget
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
		Budget: ex.cfg.Budget,
	}
	if n.Remote.Path != "" {
		// A file range names a file for someone else to open: resolve it
		// through the job's filesystem first, so a path that escapes a
		// sandbox is refused here and never shipped.
		if _, err := ex.fs.Resolve(n.Remote.Path); err != nil {
			return err
		}
	}
	if len(n.In) > 0 {
		cr, ok := ex.readers[n.In[0].ID].(commands.ChunkReader)
		if !ok {
			return fmt.Errorf("runtime: remote node #%d input carries no chunk framing", n.ID)
		}
		req.In = cr
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
	chain, err := NewStageChain(req.Reg, req.Spec.Stages, req.FS, req.Env, req.Stderr)
	if err != nil {
		return err
	}
	var in io.Reader
	if req.In != nil {
		in = ChunkReaderAsReader(req.In)
	}
	return RunRemoteSpec(chain, req.Spec, req.FS, in, chunkOnlyWriter{req.Out})
}

// RunRemoteSpec runs a remote spec over a prepared stage chain: a file
// range reads its slice of spec.Path through fs, a streamed spec reads
// in. A worker (with its cached chain, rebound per request) and
// ExecRemoteLocal both run a spec through it. Per-stream exit statuses
// are not the node's (a collector follows every remote node) and are
// dropped.
func RunRemoteSpec(chain *StageChain, spec *dfg.RemoteSpec, fs commands.OSFS, in io.Reader, out io.Writer) error {
	if spec.Path != "" {
		r, err := OpenRange(fs, spec.Path, spec.Slice, spec.Of)
		if err != nil {
			return err
		}
		defer r.Close()
		in = r
	}
	_, err := chain.Stream(in, out)
	return err
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

// ChunkReaderAsReader adapts a chunk-framed stream to a plain
// io.Reader for the streamed local-interpretation paths. When the
// source already reads bytes (the executor's edge streams do), it is
// returned as-is so chunk framing survives for the fused fast path;
// otherwise the adapter buffers partial chunks and still exposes
// ReadChunk for consumers that probe for it.
func ChunkReaderAsReader(cr commands.ChunkReader) io.Reader {
	if r, ok := cr.(io.Reader); ok {
		return r
	}
	return &chunkStreamReader{cr: cr}
}

type chunkStreamReader struct {
	cr      commands.ChunkReader
	buf     []byte
	release func()
}

func (r *chunkStreamReader) Read(p []byte) (int, error) {
	for len(r.buf) == 0 {
		r.drop()
		b, rel, err := r.cr.ReadChunk()
		if err != nil {
			return 0, err
		}
		r.buf, r.release = b, rel
	}
	n := copy(p, r.buf)
	r.buf = r.buf[n:]
	if len(r.buf) == 0 {
		r.drop()
	}
	return n, nil
}

// ReadChunk passes framing through when no partial chunk is buffered;
// a buffered remainder is handed off as one owned chunk.
func (r *chunkStreamReader) ReadChunk() ([]byte, func(), error) {
	if len(r.buf) > 0 {
		blk := append(commands.GetBlock(), r.buf...)
		r.buf = nil
		r.drop()
		return blk, func() { commands.PutBlock(blk) }, nil
	}
	return r.cr.ReadChunk()
}

func (r *chunkStreamReader) drop() {
	if r.release != nil {
		r.release()
		r.release = nil
	}
}
