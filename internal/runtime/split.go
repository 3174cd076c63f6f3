package runtime

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"repro/internal/commands"
)

// This file implements the three split strategies (§5.2 Splitting
// Challenges, plus the streaming refinement this reproduction adds):
//
//   - generalSplit consumes its complete input as blocks, counts lines,
//     and then distributes the blocks evenly — correct for any upstream
//     producer and any consumer, but a task-parallelism barrier with
//     O(input) memory.
//   - fileSplit (the "input-aware" variant) knows its input is a regular
//     file of known size: each output streams one line-aligned byte range
//     (OpenRange) concurrently, never reading the input twice.
//   - roundRobinSplit streams ~64 KiB newline-aligned blocks and deals
//     them to consumers as they arrive: no full-input barrier, O(1)
//     memory, first block flowing downstream as soon as it is read. Its
//     outputs interleave the input, so it is only used where the planner
//     paired it with framed consumers and a pash-rr-merge that restores
//     byte order (see internal/dfg/transform.go).

// generalSplit reads everything from r, then deals line-balanced
// contiguous partitions to the writers in order: partition i is lines
// [i*per, (i+1)*per) with per = ceil(lines/len(ws)). It holds the pooled
// blocks it read and counts their newlines; whole blocks change hands by
// ownership, and only a block that straddles a partition boundary is cut
// (in place: the two sides share its array, each capped to its own
// bytes). A final unterminated line gets its newline, as every line
// consumer would have given it.
func generalSplit(r io.Reader, ws []io.WriteCloser) error {
	var blocks [][]byte
	var counts []int // newlines per block
	total := 0
	recycle := func() {
		for _, b := range blocks {
			commands.PutBlock(b)
		}
	}
	err := commands.EachLineBlock(r, func(b []byte) error {
		c := bytes.Count(b, newline)
		blocks, counts = append(blocks, b), append(counts, c)
		total += c
		return nil
	})
	if err != nil {
		recycle()
		closeAll(ws)
		return err
	}
	if n := len(blocks); n > 0 {
		if last := blocks[n-1]; last[len(last)-1] != '\n' {
			blocks[n-1] = append(last, '\n')
			counts[n-1]++
			total++
		}
	}
	per := (total + len(ws) - 1) / len(ws)
	next := 0 // first block not yet handed over whole
	for i, w := range ws {
		hungUp := false
		for quota := per; quota > 0 && next < len(blocks); {
			piece := blocks[next]
			if counts[next] <= quota {
				quota -= counts[next]
				blocks[next] = nil
				next++
			} else {
				cut := nthNewline(piece, quota) + 1
				piece, blocks[next] = piece[:cut:cut], piece[cut:]
				counts[next] -= quota
				quota = 0
			}
			if hungUp {
				commands.PutBlock(piece)
				continue
			}
			if err := writeChunkTo(w, piece); err == ErrDownstreamClosed {
				// This consumer hung up; the rest of its partition has
				// nowhere to go, the other partitions are unaffected.
				hungUp = true
			} else if err != nil {
				recycle()
				closeAll(ws[i:])
				return err
			}
		}
		w.Close()
	}
	return nil
}

var newline = []byte{'\n'}

// nthNewline returns the index of the n-th (1-based) newline in b, which
// must contain at least n.
func nthNewline(b []byte, n int) int {
	pos := -1
	for ; n > 0; n-- {
		pos += 1 + bytes.IndexByte(b[pos+1:], '\n')
	}
	return pos
}

// roundRobinSplit streams newline-aligned blocks from r, transferring
// ownership of block k to ws[k mod len(ws)]. Consumers start receiving
// data after the first block read — the split is no longer a pipeline
// barrier — and memory stays O(blocks in flight). Writers that close
// early (SIGPIPE analog) drop out of the rotation; the rotation position
// still advances past them so surviving streams keep their frame
// arithmetic.
func roundRobinSplit(r io.Reader, ws []io.WriteCloser) error {
	n := len(ws)
	closed := make([]bool, n)
	alive := n
	k := 0
	err := commands.EachLineBlock(r, func(block []byte) error {
		i := k % n
		k++
		if closed[i] {
			commands.PutBlock(block)
			return nil
		}
		werr := writeChunkTo(ws[i], block)
		if werr == ErrDownstreamClosed {
			closed[i] = true
			if alive--; alive == 0 {
				return ErrDownstreamClosed
			}
			return nil
		}
		return werr
	})
	closeAll(ws)
	if err == ErrDownstreamClosed {
		// Every consumer hung up: clean termination, like a command
		// killed by SIGPIPE.
		return nil
	}
	return err
}

// writeChunkTo hands block ownership to w, copying only when w does not
// speak the chunk protocol.
func writeChunkTo(w io.Writer, block []byte) error {
	if cw, ok := w.(commands.ChunkWriter); ok {
		return cw.WriteChunk(block)
	}
	_, err := w.Write(block)
	commands.PutBlock(block)
	return err
}

// fileSplit streams the len(ws) line-aligned byte ranges of the file at
// path to their writers concurrently: output i is OpenRange slice i, the
// very bytes a file-range worker shard reads.
func fileSplit(fs commands.OSFS, path string, ws []io.WriteCloser) error {
	errc := make(chan error, len(ws))
	for i, w := range ws {
		go func() {
			errc <- func() (err error) {
				defer Contain("split range writer", &err)
				defer w.Close()
				r, err := OpenRange(fs, path, i, len(ws))
				if err != nil {
					return err
				}
				defer r.Close()
				if _, err = commands.CopyChunks(w, r); err == ErrDownstreamClosed {
					err = nil // this consumer hung up; the others are unaffected
				}
				return err
			}()
		}()
	}
	var first error
	for range ws {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// OpenRange opens the slice-th of n line-aligned byte ranges of the file
// at path, resolved through the job's filesystem (a jailed one refuses
// paths outside its directory). Range i nominally starts at byte
// size*i/n; alignedOffset moves that to a line start, so every line lands
// in exactly one range and the ranges concatenate to the file. The
// coordinator's file split and every worker compute the boundaries
// independently but identically — the file-range wire plan ships
// (slice, of), never absolute positions.
func OpenRange(fs commands.OSFS, path string, slice, of int) (io.ReadCloser, error) {
	if of < 1 || slice < 0 || slice >= of {
		return nil, fmt.Errorf("runtime: range %d/%d invalid", slice, of)
	}
	path, err := fs.Resolve(path)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var lo, hi int64
	st, err := f.Stat()
	if err == nil {
		lo, err = alignedOffset(f, st.Size(), slice, of)
	}
	if err == nil {
		hi, err = alignedOffset(f, st.Size(), slice+1, of)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &rangeReader{f: f, pos: lo, hi: hi}, nil
}

// alignedOffset is the one statement of the file-range alignment rule:
// range i of n starts at the first line start at or after its nominal
// offset size*i/n — position 0, or one past a newline, found by scanning
// forward from the byte before the nominal offset (that byte may be the
// newline) — and at the end of the file when no later line starts.
func alignedOffset(f *os.File, size int64, i, n int) (int64, error) {
	if i <= 0 {
		return 0, nil
	}
	if i >= n {
		return size, nil
	}
	buf := make([]byte, 4096)
	pos := size*int64(i)/int64(n) - 1
	if pos < 0 {
		return 0, nil
	}
	for {
		k, err := f.ReadAt(buf, pos)
		if j := bytes.IndexByte(buf[:k], '\n'); j >= 0 {
			return pos + int64(j) + 1, nil
		}
		pos += int64(k)
		if err == io.EOF {
			return pos, nil
		}
		if err != nil {
			return 0, err
		}
	}
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
	if n > 0 {
		return n, nil // an error with data is met again, alone, by the next Read
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF // the file ends inside the range: it shrank
	}
	return 0, err
}

func (r *rangeReader) Close() error { return r.f.Close() }

func closeAll(ws []io.WriteCloser) {
	for _, w := range ws {
		w.Close()
	}
}
