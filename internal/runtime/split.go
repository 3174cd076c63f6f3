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
//     file of known size: it seeks to newline-aligned byte offsets and
//     streams each chunk concurrently, never reading the input twice.
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

// fileSplit divides the file [path] into len(ws) byte ranges aligned to
// line boundaries and streams each range to its writer concurrently.
// Alignment rule: each chunk starts right after the first newline at or
// before its nominal offset (chunk 0 starts at 0), so every line lands in
// exactly one chunk. A single file descriptor serves both the alignment
// probes and the concurrent range reads (ReadAt is goroutine-safe).
func fileSplit(path string, ws []io.WriteCloser) error {
	f, err := os.Open(path)
	if err != nil {
		closeAll(ws)
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		closeAll(ws)
		return err
	}
	size := st.Size()
	n := int64(len(ws))
	nominal := make([]int64, n+1)
	for i := int64(0); i <= n; i++ {
		nominal[i] = size * i / n
	}
	// Align offsets to line starts.
	starts := make([]int64, n+1)
	starts[0] = 0
	starts[n] = size
	for i := int64(1); i < n; i++ {
		off, err := alignToLineStart(f, nominal[i])
		if err != nil {
			closeAll(ws)
			return err
		}
		starts[i] = off
	}
	errc := make(chan error, n)
	for i := int64(0); i < n; i++ {
		go func(lo, hi int64, w io.WriteCloser) {
			errc <- func() (err error) {
				defer Contain("split range writer", &err)
				return streamRange(f, lo, hi, w)
			}()
		}(starts[i], starts[i+1], ws[i])
	}
	var first error
	for i := int64(0); i < n; i++ {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// alignToLineStart finds the first byte position >= off that begins a
// line (position 0 or one past a newline), scanning forward with ReadAt
// on the already-open file.
func alignToLineStart(f *os.File, off int64) (int64, error) {
	if off == 0 {
		return 0, nil
	}
	buf := make([]byte, 4096)
	pos := off - 1 // include the byte before off: it may be the newline
	for {
		n, err := f.ReadAt(buf, pos)
		for i := 0; i < n; i++ {
			if buf[i] == '\n' {
				return pos + int64(i) + 1, nil
			}
		}
		pos += int64(n)
		if err == io.EOF {
			return pos, nil
		}
		if err != nil {
			return 0, err
		}
	}
}

// streamRange copies f[lo:hi) to w in pooled blocks, transferring block
// ownership when w speaks the chunk protocol. ReadAt keeps the shared
// descriptor position-independent across the concurrent ranges.
func streamRange(f *os.File, lo, hi int64, w io.WriteCloser) error {
	defer w.Close()
	pos := lo
	for pos < hi {
		want := hi - pos
		if want > commands.BlockSize {
			want = commands.BlockSize
		}
		block := commands.GetBlock()
		n, err := f.ReadAt(block[:want], pos)
		if n > 0 {
			pos += int64(n)
			if werr := writeChunkTo(w, block[:n]); werr != nil {
				if werr == ErrDownstreamClosed {
					return nil
				}
				return werr
			}
		} else {
			commands.PutBlock(block)
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func closeAll(ws []io.WriteCloser) {
	for _, w := range ws {
		w.Close()
	}
}

// splitError annotates split failures with the node for diagnostics.
func splitError(nodeID int, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("runtime: split node #%d: %w", nodeID, err)
}
