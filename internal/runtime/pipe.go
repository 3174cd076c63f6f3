// Package runtime executes PaSh dataflow graphs in-process: one
// goroutine per node (the analog of one process per command), bounded
// in-memory FIFOs for edges (the analog of OS pipes), unbounded eager
// buffers implementing the paper's eager relay nodes (§5.2), and the
// split implementations (§5.2 Splitting Challenges).
//
// Edges move data as whole blocks. A pipe is a bounded (or unbounded)
// queue of []byte chunks recycled through the shared block pool: the
// fast path (WriteChunk/ReadChunk) transfers ownership of a block from
// producer to consumer without copying a byte, while the io.Writer and
// io.Reader faces stage bytes into pooled blocks for commands that speak
// plain streams. See internal/runtime/README.md for the ownership
// contract.
package runtime

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/commands"
)

// ErrDownstreamClosed is returned by Edge writes after the reader has
// gone away — the in-process analog of SIGPIPE/EPIPE. Node failures with
// this cause are treated as clean termination, exactly like a command
// killed by a PIPE signal in a shell pipeline.
var ErrDownstreamClosed = errors.New("runtime: downstream closed the stream")

// pipeBufSize is the default FIFO capacity, matching the Linux pipe
// default of 64 KiB.
const pipeBufSize = 64 * 1024

// pipe is a byte stream carried as a bounded (or unbounded) FIFO of
// blocks. A bounded pipe blocks writers when the queued payload reaches
// max — lazy, like a UNIX FIFO. max = 0 means unbounded: writes never
// block, which is what the paper's eager relay achieves by buffering in
// the relay process.
//
// Chunk boundaries are preserved: a block enqueued with WriteChunk is
// dequeued whole by ReadChunk, including zero-length blocks (the framing
// tokens of the round-robin split protocol). The byte-oriented Read
// simply skips empty blocks, so byte consumers never observe frames.
//
// Each end can carry a meter: nanoseconds spent blocked waiting are
// accumulated there, so the executor can compute every node's *active*
// work (wall time minus blocked time) — the input to the multicore
// scheduling simulator.
type pipe struct {
	mu    sync.Mutex
	rwait sync.Cond // readers wait here while the queue is empty
	wwait sync.Cond // writers wait here while a bounded queue is full

	blocks  [][]byte
	off     int // read offset into blocks[0]
	size    int // unread payload bytes across all blocks
	max     int // 0 = unbounded
	closedW bool
	closedR bool

	// array is blocks' backing array from its first element, with no
	// length: the queue drifts along it as blocks pop and append.
	array [][]byte

	readMeter  *int64 // atomic ns blocked in reads
	writeMeter *int64 // atomic ns blocked in writes

	// budget, when set, charges queued payload against the owning job's
	// pipe-memory ceiling: enqueues charge, consumption releases. This
	// is what bounds a job's eager (unbounded) buffers — the global
	// block pool no longer is the only line of defense.
	budget *Budget

	// traffic, when set, counts every byte and block enqueued into the
	// owning job's live meter.
	traffic *Traffic
}

func newPipe(max int) *pipe {
	p := &pipe{max: max}
	p.rwait.L = &p.mu
	p.wwait.L = &p.mu
	return p
}

// metered waits on the given condition, charging the blocked time to the
// meter when one is attached.
func (p *pipe) metered(c *sync.Cond, meter *int64) {
	if meter == nil {
		c.Wait()
		return
	}
	start := time.Now()
	c.Wait()
	atomic.AddInt64(meter, int64(time.Since(start)))
}

// enqueue appends an owned block and wakes one reader. A queue that
// has drifted to the end of its array, popped at the front and appended
// at the back, moves back to the array's start when at most half of the
// array is queued, so a queue that never drains allocates only when it
// grows. Callers hold mu.
func (p *pipe) enqueue(b []byte) {
	if len(p.blocks) == cap(p.blocks) && 2*len(p.blocks) <= cap(p.array) {
		n := copy(p.array[:cap(p.array)], p.blocks)
		clear(p.array[n:cap(p.array)])
		p.blocks = p.array[:n]
	}
	p.blocks = append(p.blocks, b)
	if cap(p.blocks) > cap(p.array) {
		p.array = p.blocks[:0] // append moved the queue to a larger array
	}
	p.size += len(b)
	p.traffic.note(len(b), 1)
	p.rwait.Signal()
}

// waitWritable blocks until a bounded pipe has room (or either end is
// closed). Callers hold mu.
func (p *pipe) waitWritable() error {
	for {
		if p.closedR {
			return ErrDownstreamClosed
		}
		if p.closedW {
			return errors.New("runtime: write after close")
		}
		if p.max == 0 || p.size < p.max {
			return nil
		}
		p.metered(&p.wwait, p.writeMeter)
	}
}

// WriteChunk transfers ownership of b into the pipe without copying.
// After it returns the caller must not touch b. Zero-length chunks are
// enqueued as distinct framing tokens. On error the block has been
// recycled.
func (p *pipe) WriteChunk(b []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.waitWritable(); err != nil {
		commands.PutBlock(b)
		return err
	}
	if err := p.budget.ChargePipe(len(b)); err != nil {
		commands.PutBlock(b)
		return err
	}
	p.enqueue(b)
	return nil
}

// Write copies b into pooled blocks, blocking while a bounded buffer is
// full. Small writes coalesce into the queue's tail block.
func (p *pipe) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	written := 0
	for {
		// Coalesce into the tail block when it has room; the tail is
		// owned by the queue until dequeued, so appending under mu is
		// safe.
		if len(b) > 0 && len(p.blocks) > 0 && !p.closedR && !p.closedW {
			tail := p.blocks[len(p.blocks)-1]
			if room := cap(tail) - len(tail); room > 0 && (p.max == 0 || p.size < p.max) {
				n := len(b)
				if n > room {
					n = room
				}
				if err := p.budget.ChargePipe(n); err != nil {
					return written, err
				}
				p.blocks[len(p.blocks)-1] = append(tail, b[:n]...)
				p.size += n
				p.traffic.note(n, 0)
				b = b[n:]
				written += n
				p.rwait.Signal()
			}
		}
		if len(b) == 0 {
			return written, nil
		}
		if err := p.waitWritable(); err != nil {
			return written, err
		}
		n := len(b)
		if n > commands.BlockSize {
			n = commands.BlockSize
		}
		if p.max > 0 {
			if free := p.max - p.size; n > free {
				n = free
			}
		}
		if err := p.budget.ChargePipe(n); err != nil {
			return written, err
		}
		blk := append(commands.GetBlock(), b[:n]...)
		p.enqueue(blk)
		b = b[n:]
		written += n
	}
}

// popHead removes the head block and returns it; the queue drifts along
// its array until enqueue moves it back. Callers hold mu.
func (p *pipe) popHead() []byte {
	head := p.blocks[0]
	p.blocks[0] = nil
	p.blocks = p.blocks[1:]
	p.off = 0
	return head
}

// Read consumes buffered bytes, blocking while the pipe is open and
// empty. A single call drains as many queued blocks as fit in b.
func (p *pipe) Read(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closedR {
			return 0, io.ErrClosedPipe
		}
		// Skip framing tokens so byte consumers never see them.
		for len(p.blocks) > 0 && p.off >= len(p.blocks[0]) {
			commands.PutBlock(p.popHead())
		}
		if p.size > 0 && len(b) > 0 {
			read := 0
			for read < len(b) && len(p.blocks) > 0 {
				head := p.blocks[0]
				c := copy(b[read:], head[p.off:])
				read += c
				p.off += c
				p.size -= c
				if p.off >= len(head) {
					commands.PutBlock(p.popHead())
				}
			}
			p.budget.ReleasePipe(read)
			p.wwait.Signal()
			return read, nil
		}
		if p.closedW {
			return 0, io.EOF
		}
		p.metered(&p.rwait, p.readMeter)
	}
}

// ReadChunk dequeues the next whole block, transferring its ownership to
// the caller, who passes it on or gives it back with PutBlock. A head
// block that Read has consumed part of has its unread tail moved to its
// front first, so every chunk is a whole block. Returns io.EOF after the
// writer closes and the queue drains.
func (p *pipe) ReadChunk() ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closedR {
			return nil, io.ErrClosedPipe
		}
		if len(p.blocks) > 0 {
			off := p.off
			head := p.popHead()
			if off > 0 {
				head = head[:copy(head, head[off:])]
			}
			p.size -= len(head)
			p.budget.ReleasePipe(len(head))
			p.wwait.Signal()
			return head, nil
		}
		if p.closedW {
			return nil, io.EOF
		}
		p.metered(&p.rwait, p.readMeter)
	}
}

// CloseWrite signals EOF to the reader.
func (p *pipe) CloseWrite() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closedW = true
	p.rwait.Broadcast()
	p.wwait.Broadcast()
}

// CloseRead abandons the stream: subsequent writes fail with
// ErrDownstreamClosed (the SIGPIPE analog) and buffered blocks are
// recycled.
func (p *pipe) CloseRead() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closedR = true
	for _, b := range p.blocks {
		commands.PutBlock(b)
	}
	p.budget.ReleasePipe(p.size)
	p.blocks, p.array = nil, nil
	p.off = 0
	p.size = 0
	p.rwait.Broadcast()
	p.wwait.Broadcast()
}

// Eager copies r to w through the buffer an in-process eager edge gets,
// an unbounded pipe: one goroutine fills it from r as fast as r delivers,
// while the caller drains it to w at w's pace. It is the eager relay of an
// emitted script (§5.2), so a producer never waits on a lazy consumer.
// When w fails, Eager returns at once; the filler stops at its next write
// or when r ends.
func Eager(w io.Writer, r io.Reader) error {
	p := newPipe(0)
	filled := make(chan error, 1)
	go func() {
		_, err := commands.CopyChunks(writeEnd{p}, r)
		p.CloseWrite()
		filled <- err
	}()
	if _, err := commands.CopyChunks(w, readEnd{p}); err != nil {
		p.CloseRead()
		return err
	}
	return <-filled
}

// edgeStream packages the two ends of an edge.
type edgeStream struct {
	p *pipe
}

func newEdgeStream(eager bool, blockingEagerMax int) *edgeStream {
	switch {
	case blockingEagerMax > 0:
		return &edgeStream{p: newPipe(blockingEagerMax)}
	case eager:
		return &edgeStream{p: newPipe(0)}
	default:
		return &edgeStream{p: newPipe(pipeBufSize)}
	}
}

// writer returns the write end (Close = CloseWrite).
func (s *edgeStream) writer() io.WriteCloser { return writeEnd{s.p} }

// reader returns the read end (Close = CloseRead).
func (s *edgeStream) reader() io.ReadCloser { return readEnd{s.p} }

type writeEnd struct{ p *pipe }

func (w writeEnd) Write(b []byte) (int, error) { return w.p.Write(b) }
func (w writeEnd) WriteChunk(b []byte) error   { return w.p.WriteChunk(b) }
func (w writeEnd) Close() error                { w.p.CloseWrite(); return nil }

type readEnd struct{ p *pipe }

func (r readEnd) Read(b []byte) (int, error) { return r.p.Read(b) }
func (r readEnd) ReadChunk() ([]byte, error) { return r.p.ReadChunk() }
func (r readEnd) Close() error               { r.p.CloseRead(); return nil }

// Compile-time checks: the edge ends speak the chunk protocol.
var (
	_ commands.ChunkWriter = writeEnd{}
	_ commands.ChunkReader = readEnd{}
)
