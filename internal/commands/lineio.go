package commands

import (
	"bytes"
	"io"
	"slices"
	"sync"
)

// Line and block IO helpers. The data quantum throughout PaSh is the
// newline-terminated line (§3.1); these helpers give every command the
// same treatment of the final unterminated line (processed as a line, and
// re-emitted newline-terminated, which is what GNU text utilities do).
//
// Underneath the line abstraction, bytes move in blocks: fixed-capacity
// []byte chunks recycled through a pool and — when both ends support it —
// handed between pipeline stages by ownership transfer instead of
// copying. See ChunkReader/ChunkWriter for the ownership contract.

// BlockSize is the unit of bulk data movement: pooled blocks have this
// capacity, and the runtime's pipes queue blocks of roughly this size.
// It matches the Linux pipe default of 64 KiB.
const BlockSize = 64 * 1024

// blockPool holds the blocks as array pointers, which go in and out of
// the pool's interface values without a slice header allocated per Put.
var blockPool = sync.Pool{
	New: func() interface{} { return new([BlockSize]byte) },
}

// GetBlock returns an empty block with BlockSize capacity from the
// shared pool.
func GetBlock() []byte {
	return blockPool.Get().(*[BlockSize]byte)[:0]
}

// PutBlock recycles a block obtained from GetBlock (or grown elsewhere).
// Only blocks whose capacity still equals BlockSize are pooled; oversized
// or sub-sliced blocks are left for the garbage collector. Callers must
// not touch b after PutBlock returns.
func PutBlock(b []byte) {
	if cap(b) != BlockSize {
		return
	}
	blockPool.Put((*[BlockSize]byte)(b[:BlockSize]))
}

// ChunkWriter is implemented by sinks that accept whole blocks by
// ownership transfer: after WriteChunk returns, the caller must not
// read, write, or recycle b — the consumer owns it (and typically
// recycles it through PutBlock once drained). A zero-length chunk is a
// legal write; chunk-preserving sinks (the runtime's pipes) deliver it
// as a distinct empty chunk, which the framed round-robin protocol uses
// as an ordering token.
type ChunkWriter interface {
	WriteChunk(b []byte) error
}

// ChunkReader is implemented by sources that yield whole blocks with
// their ownership. The returned release function recycles the block; the
// caller must either call it exactly once when done with b, or not at
// all if it passes ownership onward (e.g. into a ChunkWriter). err is
// io.EOF at end of stream, in which case b is nil and release is a
// no-op.
type ChunkReader interface {
	ReadChunk() (b []byte, release func(), err error)
}

// CopyChunks streams src to dst moving whole blocks, transferring
// ownership end to end when both sides support it (zero copies), and
// degrading gracefully to pooled-buffer copies otherwise. It returns the
// number of bytes moved.
func CopyChunks(dst io.Writer, src io.Reader) (int64, error) {
	cr, rok := src.(ChunkReader)
	cw, wok := dst.(ChunkWriter)
	var n int64
	switch {
	case rok && wok:
		for {
			b, _, err := cr.ReadChunk()
			if err == io.EOF {
				return n, nil
			}
			if err != nil {
				return n, err
			}
			n += int64(len(b))
			if err := cw.WriteChunk(b); err != nil {
				return n, err
			}
		}
	case rok:
		for {
			b, release, err := cr.ReadChunk()
			if err == io.EOF {
				return n, nil
			}
			if err != nil {
				return n, err
			}
			_, werr := dst.Write(b)
			release()
			if werr != nil {
				return n, werr
			}
			n += int64(len(b))
		}
	case wok:
		for {
			b := GetBlock()
			r, err := src.Read(b[:BlockSize])
			if r > 0 {
				n += int64(r)
				if werr := cw.WriteChunk(b[:r]); werr != nil {
					return n, werr
				}
			} else {
				PutBlock(b)
			}
			if err == io.EOF {
				return n, nil
			}
			if err != nil {
				return n, err
			}
		}
	default:
		return io.Copy(dst, src)
	}
}

// NextBlock returns the next block of r with its ownership: a
// ChunkReader's next chunk, or one Read's worth of any other reader in a
// pooled block. It is the one block reader under the line helpers, the
// kernel driver and the runtime's fused loop. A single Read fills a block,
// never ReadFull — waiting for a full block would stall line delivery on
// slow streaming sources — and a chunk source's empty framing tokens are
// not data and are dropped, so b is never empty. release follows the
// ChunkReader contract; err is io.EOF at end of stream. A read error that
// arrives together with bytes is reported by the following call.
func NextBlock(r io.Reader) (b []byte, release func(), err error) {
	if cr, ok := r.(ChunkReader); ok {
		for {
			b, release, err = cr.ReadChunk()
			if err != nil || len(b) > 0 {
				return b, release, err
			}
			release()
		}
	}
	b = GetBlock()
	n := 0
	for n == 0 && err == nil {
		n, err = r.Read(b[:BlockSize])
	}
	if n == 0 {
		PutBlock(b)
		return nil, func() {}, err
	}
	b = b[:n]
	return b, func() { PutBlock(b) }, nil
}

// EachLineBlock streams r as newline-aligned blocks: every block handed
// to fn ends with '\n' except possibly the last (a final unterminated
// line is delivered as-is). Ownership of each block transfers to fn,
// which must recycle it with PutBlock or pass it onward (e.g. through a
// ChunkWriter). This is the entry point for near-memcpy stages: combined
// with chunk-capable pipes, a block can travel producer → consumer
// without its bytes ever being copied.
//
// Over a plain reader every block handed to fn is a pool block
// (cap == BlockSize) unless one line is longer than that: the partial
// line a Read ended in is moved to the front of the next pool block and
// the next Read lands behind it, so per block only that tail is copied
// and nothing is allocated. Over a chunk source whole line-aligned chunks
// pass through untouched, and a chunk that ends mid-line is completed by
// copying.
func EachLineBlock(r io.Reader, fn func(block []byte) error) error {
	if _, ok := r.(ChunkReader); ok {
		return eachLineBlockChunks(r, fn)
	}
	b := GetBlock() // starts with the partial line the last Read ended in
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, BlockSize) // one line longer than the block
		}
		// NextBlock's rule: a single Read per block, never ReadFull.
		n, err := r.Read(b[len(b):cap(b)])
		fresh := b[len(b) : len(b)+n]
		b = b[:len(b)+n]
		if cut := bytes.LastIndexByte(fresh, '\n'); cut >= 0 {
			cut += len(b) - n + 1
			next := append(GetBlock(), b[cut:]...)
			if ferr := fn(b[:cut]); ferr != nil {
				PutBlock(next)
				return ferr
			}
			b = next
		}
		if err != nil {
			if err == io.EOF && len(b) > 0 {
				return fn(b)
			}
			PutBlock(b)
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// eachLineBlockChunks is EachLineBlock over a chunk source.
func eachLineBlockChunks(r io.Reader, fn func(block []byte) error) error {
	var carry []byte // partial trailing line awaiting its newline
	emit := func(b []byte) error {
		if len(carry) == 0 {
			return fn(b)
		}
		merged := append(carry, b...)
		PutBlock(b)
		carry = nil
		return fn(merged)
	}
	for {
		b, release, err := NextBlock(r)
		if err == io.EOF {
			if carry == nil {
				return nil
			}
			b, carry = carry, nil
			return fn(b)
		}
		if err != nil {
			if carry != nil {
				PutBlock(carry)
			}
			return err
		}
		// The source hands us the block's ownership; fold release into
		// PutBlock semantics by copying out of sub-sliced blocks.
		cut := bytes.LastIndexByte(b, '\n')
		switch {
		case cut == len(b)-1:
			if ferr := emitOwned(b, release, emit); ferr != nil {
				return ferr
			}
		case cut < 0:
			carry = append(carryOrNew(carry), b...)
			release()
		default:
			nc := append(GetBlock(), b[cut+1:]...)
			if ferr := emitHead(b[:cut+1], b, release, emit); ferr != nil {
				PutBlock(nc)
				return ferr
			}
			carry = nc
		}
	}
}

func carryOrNew(carry []byte) []byte {
	if carry == nil {
		return GetBlock()
	}
	return carry
}

// emitOwned forwards a whole chunk-reader block to fn. The pipe's
// release is dropped in favor of fn's PutBlock obligation when the block
// is a full (poolable) block; sub-sliced blocks are forwarded and the
// original released by the eventual PutBlock being a no-op.
func emitOwned(b []byte, release func(), emit func([]byte) error) error {
	if cap(b) == BlockSize {
		return emit(b) // fn recycles via PutBlock; release never called
	}
	// Sub-sliced or oversized: copy into a pooled block so downstream
	// PutBlock keeps working, then release the original.
	nb := append(GetBlock(), b...)
	release()
	return emit(nb)
}

// emitHead forwards the newline-terminated prefix of a block whose tail
// was copied into the carry buffer.
func emitHead(head, orig []byte, release func(), emit func([]byte) error) error {
	if cap(orig) == BlockSize && &orig[0] == &head[0] {
		// head shares orig's backing array from index 0: hand it over and
		// let PutBlock(orig-capacity slice) recycle it. PutBlock checks
		// capacity, and cap(head) == cap(orig) when they share a start.
		return emit(head)
	}
	nb := append(GetBlock(), head...)
	release()
	return emit(nb)
}

// blockScanner pulls newline-delimited lines out of a stream block by
// block (NextBlock). It is the engine behind EachLine and LineIter.
type blockScanner struct {
	r       io.Reader
	blk     []byte // current block (owned)
	release func() // recycles blk
	off     int
	pending []byte // partial line spanning blocks
	err     error
	eof     bool
}

func newBlockScanner(r io.Reader) *blockScanner { return &blockScanner{r: r} }

// dropBlock recycles the current block.
func (s *blockScanner) dropBlock() {
	if s.blk != nil {
		s.release()
		s.blk, s.off = nil, 0
	}
}

// fill loads the next block. It reports false at EOF or on error.
func (s *blockScanner) fill() bool {
	s.dropBlock()
	if s.eof {
		return false
	}
	b, release, err := NextBlock(s.r)
	if err != nil {
		s.eof = true
		if err != io.EOF {
			s.err = err
		}
		return false
	}
	s.blk, s.release, s.off = b, release, 0
	return true
}

// next returns the next line (newline stripped) and true, or nil and
// false at end of input. The line is valid until the following next
// call.
func (s *blockScanner) next() ([]byte, bool) {
	s.pending = s.pending[:0]
	for {
		if s.blk == nil || s.off >= len(s.blk) {
			if !s.fill() {
				if s.err == nil && len(s.pending) > 0 {
					// Final unterminated line.
					return s.pending, true
				}
				return nil, false
			}
		}
		rest := s.blk[s.off:]
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			s.off += i + 1
			if len(s.pending) == 0 {
				return rest[:i], true
			}
			s.pending = append(s.pending, rest[:i]...)
			return s.pending, true
		}
		s.pending = append(s.pending, rest...)
		s.off = len(s.blk)
	}
}

// EachLine calls fn for each input line with the newline stripped. Lines
// of arbitrary length are supported. fn must not retain the slice: line
// memory lives in pooled blocks that are recycled (and re-used by other
// goroutines) as the scan advances.
func EachLine(r io.Reader, fn func(line []byte) error) error {
	s := newBlockScanner(r)
	defer s.dropBlock()
	for {
		line, ok := s.next()
		if !ok {
			return s.err
		}
		if err := fn(line); err != nil {
			return err
		}
	}
}

// EachLineReaders runs EachLine over several readers in order, as if
// their contents were concatenated.
func EachLineReaders(rs []io.Reader, fn func(line []byte) error) error {
	for _, r := range rs {
		if err := EachLine(r, fn); err != nil {
			return err
		}
	}
	return nil
}

// LineWriter buffers line-oriented output in a pooled block. When the
// underlying writer is a ChunkWriter, a full block is handed over by
// ownership transfer — the bytes are staged once and never copied again.
//
// The block's lifetime is the writer's use of it: taken from the pool by
// the first write, handed downstream (ChunkWriter) or rewound in place
// (plain writer) when it fills, and given up by Flush — handed downstream
// if it holds anything a ChunkWriter will take, returned to the pool
// otherwise. A LineWriter that is never written to takes no block, and
// one that is flushed keeps none, so a command whose output fits in a
// block costs the pool nothing once it is warm. Always Flush before
// returning from the command.
type LineWriter struct {
	w   io.Writer
	cw  ChunkWriter // non-nil when w supports chunk handoff
	buf []byte      // pooled staging block; nil before the first write and after Flush
}

// NewLineWriter wraps w.
func NewLineWriter(w io.Writer) *LineWriter {
	lw := &LineWriter{w: w}
	lw.cw, _ = w.(ChunkWriter)
	return lw
}

// flushFull ships the staged bytes downstream.
func (lw *LineWriter) flushFull() error {
	if len(lw.buf) == 0 {
		return nil
	}
	if lw.cw != nil {
		err := lw.cw.WriteChunk(lw.buf)
		lw.buf = nil
		return err
	}
	_, err := lw.w.Write(lw.buf)
	lw.buf = lw.buf[:0]
	return err
}

// room is the space left in the staging block, taking one if none is held.
func (lw *LineWriter) room() int {
	if lw.buf == nil {
		lw.buf = GetBlock()
	}
	return cap(lw.buf) - len(lw.buf)
}

// WriteLine writes line plus a newline.
func (lw *LineWriter) WriteLine(line []byte) error {
	if len(line)+1 > lw.room() {
		if err := lw.flushFull(); err != nil {
			return err
		}
	}
	if len(line)+1 <= lw.room() {
		lw.buf = append(lw.buf, line...)
		lw.buf = append(lw.buf, '\n')
		return nil
	}
	// Oversized line: stage in block-sized pieces.
	if _, err := lw.Write(line); err != nil {
		return err
	}
	return lw.writeByte('\n')
}

func (lw *LineWriter) writeByte(c byte) error {
	if lw.room() == 0 {
		if err := lw.flushFull(); err != nil {
			return err
		}
	}
	lw.buf = append(lw.buf, c)
	return nil
}

// WriteString writes raw text.
func (lw *LineWriter) WriteString(s string) error {
	for len(s) > 0 {
		if lw.room() == 0 {
			if err := lw.flushFull(); err != nil {
				return err
			}
		}
		n := lw.room()
		if n > len(s) {
			n = len(s)
		}
		lw.buf = append(lw.buf, s[:n]...)
		s = s[n:]
	}
	return nil
}

// Write implements io.Writer.
func (lw *LineWriter) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 {
		if lw.room() == 0 {
			if err := lw.flushFull(); err != nil {
				return total - len(p), err
			}
		}
		n := lw.room()
		if n > len(p) {
			n = len(p)
		}
		lw.buf = append(lw.buf, p[:n]...)
		p = p[n:]
	}
	return total, nil
}

// WriteChunk implements ChunkWriter: pending staged output is flushed,
// then ownership of b passes straight through to the underlying writer
// (or its bytes are written and the block recycled).
func (lw *LineWriter) WriteChunk(b []byte) error {
	if err := lw.flushFull(); err != nil {
		PutBlock(b)
		return err
	}
	return writeBlock(lw.w, b)
}

// writeBlock hands an owned block to w: by ownership transfer when w
// takes chunks, else its bytes are written and the block recycled.
func writeBlock(w io.Writer, b []byte) error {
	if cw, ok := w.(ChunkWriter); ok {
		return cw.WriteChunk(b)
	}
	_, err := w.Write(b)
	PutBlock(b)
	return err
}

// Flush flushes buffered output and gives up the staging block.
func (lw *LineWriter) Flush() error {
	err := lw.flushFull()
	if lw.buf != nil {
		PutBlock(lw.buf)
		lw.buf = nil
	}
	return err
}

var newline = []byte{'\n'}

// arenaMinRead is the least spare capacity readArena reads into. It is
// also where an arena starts: commands that block on their whole input
// run once per region, and a loop of tiny regions must not pay for a
// large first slab — growth beyond this is geometric in what was read.
const arenaMinRead = 4 << 10

// readArena appends the whole of r to arena and returns it. A final
// unterminated line gets its newline, so every line in the arena ends in
// '\n'. Chunk-capable sources are drained block by block (one memcpy
// each, the block recycled at once); plain readers read straight into
// the arena's spare capacity.
func readArena(r io.Reader, arena []byte) ([]byte, error) {
	start := len(arena)
	if cr, ok := r.(ChunkReader); ok {
		for {
			b, release, err := cr.ReadChunk()
			if err == io.EOF {
				break
			}
			if err != nil {
				return arena, err
			}
			arena = append(arenaRoom(arena, len(b)), b...)
			release()
		}
	} else {
		for {
			arena = arenaRoom(arena, arenaMinRead)
			n, err := r.Read(arena[len(arena):cap(arena)])
			arena = arena[:len(arena)+n]
			if err == io.EOF {
				break
			}
			if err != nil {
				return arena, err
			}
		}
	}
	if len(arena) > start && arena[len(arena)-1] != '\n' {
		arena = append(arena, '\n')
	}
	return arena, nil
}

// arenaRoom returns arena with at least n spare bytes. When it must grow
// it doubles: append's own 1.25x policy for large slices would copy the
// input five times over and leave as much garbage behind.
func arenaRoom(arena []byte, n int) []byte {
	if cap(arena)-len(arena) >= n {
		return arena
	}
	return slices.Grow(arena, max(n, cap(arena)))
}

// ReadAllLines collects all lines (newline stripped) from r, for
// commands that must block on their whole input (tac, shuf, diff). The
// lines are slices of one arena: two allocations that grow with the
// input, not one per line.
func ReadAllLines(r io.Reader) ([][]byte, error) {
	arena, err := readArena(r, nil)
	if err != nil {
		return nil, err
	}
	lines := make([][]byte, 0, bytes.Count(arena, newline))
	for len(arena) > 0 {
		i := bytes.IndexByte(arena, '\n')
		lines = append(lines, arena[:i:i])
		arena = arena[i+1:]
	}
	return lines, nil
}

// LineIter is a pull-based line iterator. Unlike EachLine it lets callers
// interleave reads from several inputs (k-way merge, comm, join, paste).
type LineIter struct {
	s    *blockScanner
	done bool
}

// NewLineIter returns an iterator over r's lines.
func NewLineIter(r io.Reader) *LineIter {
	return &LineIter{s: newBlockScanner(r)}
}

// Next returns the next line (newline stripped) and true, or nil and
// false at end of input. The returned slice is valid until the following
// Next call. Err reports any read error after Next returns false.
func (it *LineIter) Next() ([]byte, bool) {
	if it.done {
		return nil, false
	}
	line, ok := it.s.next()
	if !ok {
		it.done = true
		it.s.dropBlock()
		return nil, false
	}
	return line, ok
}

// Err returns the first read error encountered, if any.
func (it *LineIter) Err() error { return it.s.err }
