package commands

import (
	"fmt"
	"io"
	"strings"
)

func init() { register("pash-rr-merge", rrMerge) }

// rrMerge is the inverse of the runtime's streaming round-robin split:
// it reads one chunk per input per rotation, starting from input 0, and
// concatenates the chunks in rotation order. Because the round-robin
// splitter dealt chunk k to consumer k mod n — and every framed stage in
// between preserves the one-chunk-in, one-chunk-out discipline (empty
// chunks act as ordering tokens) — the rotation reproduces the original
// byte order exactly.
//
// An input that does not support chunk reads carries no frame
// boundaries, so a multi-input merge over it cannot restore order; that
// is reported as an error rather than silently concatenating out of
// rotation. A single unframed input degrades safely to plain copy.
func rrMerge(ctx *Context) error {
	var operands []string
	for _, a := range ctx.Args {
		if strings.HasPrefix(a, "-") && a != "-" {
			return ctx.Errorf("unsupported flag %q", a)
		}
		operands = append(operands, a)
	}
	readers, cleanup, err := ctx.OpenInputs(operands)
	if err != nil {
		return err
	}
	defer cleanup()
	return MergeChunksRoundRobin(readers, ctx.Stdout)
}

// MergeChunksRoundRobin drains the readers one chunk at a time in strict
// rotation, handing each chunk to w (WriteBlock). Exported so the
// runtime and tests can reassemble round-robin-split streams directly.
func MergeChunksRoundRobin(readers []io.Reader, w io.Writer) error {
	open := make([]bool, len(readers))
	remaining := len(readers)
	for i := range open {
		open[i] = true
	}
	for remaining > 0 {
		for i, r := range readers {
			if !open[i] {
				continue
			}
			cr, ok := r.(ChunkReader)
			if !ok {
				if len(readers) > 1 {
					return fmt.Errorf("pash-rr-merge: input %d carries no chunk frames; cannot restore round-robin order", i)
				}
				// A single unframed input is trivially in order.
				if _, err := CopyChunks(w, r); err != nil {
					return err
				}
				open[i] = false
				remaining--
				continue
			}
			b, release, err := cr.ReadChunk()
			if err == io.EOF {
				open[i] = false
				remaining--
				continue
			}
			if err != nil {
				return err
			}
			if err := WriteBlock(w, b, release); err != nil {
				return err
			}
		}
	}
	return nil
}
