package runtime

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/commands"
	"repro/internal/dfg"
)

// This file interprets the streamed aggregation-subtree shape of a remote
// spec (see dfg.RemoteSpec.Streamed) over plain byte streams. It is
// shared by the dist worker's /exec handler — which demultiplexes wire
// frames into one io.Reader per input — and ExecRemoteLocal, through
// which the pool's local rung replays retained input, so the bytes match
// whatever the dead worker would have produced.

// ExecStreamTree runs a streamed aggregation subtree: branch i's stage
// chain consumes ins[i] into an eager in-process edge stream, and the
// aggregate stage combines the branch outputs as ordered virtual-file
// operands — through the same overlay filesystem by which a local
// KindAgg node consumes its inputs, so the worker-side and
// coordinator-side interpretations are byte-identical. Branch buffers
// are eager (unbounded) because the wire delivers input streams
// sequentially: branch 0 may finish before branch 1 has a single byte,
// and a blocking buffer would deadlock the aggregate against the
// demultiplexer. Per-stream non-zero exit statuses are normal and
// dropped.
func ExecStreamTree(ctx context.Context, reg *commands.Registry, spec *dfg.RemoteSpec, ins []io.Reader, out io.Writer, fs commands.OSFS, env map[string]string, stderr io.Writer) error {
	if len(ins) != len(spec.Branches) {
		return fmt.Errorf("runtime: streamed tree wants %d inputs, got %d", len(spec.Branches), len(ins))
	}
	if spec.Agg == nil || spec.Agg.Name == "" {
		return errors.New("runtime: streamed tree has no aggregate stage")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if stderr == nil {
		stderr = io.Discard
	}
	overlay := &overlayFS{base: fs, streams: make(map[string]io.ReadCloser, len(ins))}
	args := append(make([]string, 0, len(spec.Agg.Args)+len(ins)), spec.Agg.Args...)
	streams := make([]*edgeStream, len(ins))
	for i := range ins {
		streams[i] = newEdgeStream(true, 0)
		name := fmt.Sprintf("%stree/%d", virtualPrefix, i)
		overlay.streams[name] = streams[i].reader()
		args = append(args, name)
	}
	errs := make([]error, len(ins))
	var wg sync.WaitGroup
	for i, in := range ins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := streams[i].writer()
			defer w.Close()
			defer Contain(fmt.Sprintf("stream branch %d", i), &errs[i])
			if len(spec.Branches[i]) == 0 {
				_, errs[i] = io.Copy(w, in)
				return
			}
			chain, err := NewStageChain(reg, spec.Branches[i], fs, env, stderr)
			if err == nil {
				_, err = chain.Stream(in, w)
			}
			errs[i] = err
		}()
	}
	cctx := &commands.Context{
		Args:   args,
		Stdin:  bytes.NewReader(nil),
		Stdout: out,
		Stderr: stderr,
		FS:     overlay,
		Env:    env,
	}
	aggErr := func() (err error) {
		defer Contain("stream agg "+spec.Agg.Name, &err)
		return reg.Run(spec.Agg.Name, cctx)
	}()
	// Hang up on any branch still writing (the aggregate may have
	// stopped early); downstream-closed terminations are clean.
	for _, s := range streams {
		s.reader().Close()
	}
	wg.Wait()
	if _, err := exitStatus(aggErr); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil && !isCleanTermination(err) {
			return err
		}
	}
	return nil
}

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
