// Package stream is the streaming execution subsystem: it runs a
// compiled pipeline continuously over an unbounded input by chopping
// the input into newline-aligned windows and executing each window as
// a normal finite batch region. The package owns the unbounded side of
// the problem — sources that never EOF (tail -f semantics, sockets),
// the windower's trigger policy and pause-the-source backpressure, and
// checkpointed failover — and delegates every window's execution to
// the batch stack through a narrow Executor interface, so the plan
// cache, scheduler, fusion, agg trees, and the distributed worker
// plane serve streaming jobs without modification.
package stream

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Source is an unbounded input: a ReadCloser that additionally reports
// how many bytes of the logical stream have been consumed so far. The
// offset is what checkpoints record; a resumable source (FollowSource)
// can be reopened at a checkpointed offset so a restarted job re-reads
// only the post-checkpoint suffix.
//
// Contract: Read may block indefinitely waiting for data (that is the
// point); Close must unblock any in-flight Read. A Read returning
// io.EOF means the stream ended cleanly (possible for reader-backed
// sources, never for a follow source that isn't closed).
type Source interface {
	io.ReadCloser
	Offset() int64
}

// DefaultPollInterval is how often a FollowSource re-checks a file
// that has no new data (and whether it was rotated).
const DefaultPollInterval = 50 * time.Millisecond

// FollowSource tails a file the way `tail -F` does: it blocks at the
// current end waiting for appends, and detects rotation — the path
// re-pointing at a different inode, or the file shrinking below the
// read offset — by reopening from the start of the new file. It never
// returns io.EOF on its own; only Close ends the stream.
type FollowSource struct {
	path      string
	poll      time.Duration
	off       atomic.Int64
	rotations atomic.Int64
	done      chan struct{} // closed by Close: wakes a parked poll

	// mu hands the open file between Read (which replaces it on
	// rotation) and Close.
	mu       sync.Mutex
	f        *os.File
	closed   bool
	closeErr error
}

// NewFollowSource opens path for following, starting at offset (a
// checkpointed position; pass 0 to start at the beginning). If the
// file is currently shorter than offset — it was rotated since the
// checkpoint — the source starts at 0 of the current file, which is
// the same choice tail -F makes.
func NewFollowSource(path string, offset int64, poll time.Duration) (*FollowSource, error) {
	if poll <= 0 {
		poll = DefaultPollInterval
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
	if offset < 0 || offset > st.Size() {
		offset = 0
	}
	if offset > 0 {
		if _, err := f.Seek(offset, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
	}
	s := &FollowSource{path: path, poll: poll, f: f, done: make(chan struct{})}
	s.off.Store(offset)
	return s, nil
}

// Read returns appended bytes, blocking (polling) while the file has
// no new data. On rotation it reopens the path and continues from the
// new file's start. After Close it returns io.EOF, whatever the closed
// file made the read in flight fail with.
func (s *FollowSource) Read(p []byte) (int, error) {
	for {
		f := s.file()
		if f == nil {
			return 0, io.EOF
		}
		n, err := f.Read(p)
		if n > 0 {
			s.off.Add(int64(n))
			return n, nil
		}
		if err != nil && err != io.EOF {
			return 0, s.closedOr(err)
		}
		// At end of file (or a zero-length read): check for rotation,
		// then wait for more data.
		if rotated, rerr := s.checkRotation(f); rerr != nil {
			return 0, s.closedOr(rerr)
		} else if rotated {
			continue
		}
		select {
		case <-s.done:
			return 0, io.EOF
		case <-time.After(s.poll):
		}
	}
}

// file returns the open file, nil once the source is closed.
func (s *FollowSource) file() *os.File {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.f
}

// closedOr returns io.EOF once the source is closed, err before.
func (s *FollowSource) closedOr(err error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return io.EOF
	}
	return err
}

// checkRotation reopens the path when it no longer names f, the open
// file, or the file shrank below our offset (copytruncate-style
// rotation).
func (s *FollowSource) checkRotation(f *os.File) (bool, error) {
	cur, err := f.Stat()
	if err != nil {
		return false, err
	}
	now, err := os.Stat(s.path)
	if err != nil {
		// The new file may not exist yet mid-rotation; poll again.
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	if os.SameFile(cur, now) && now.Size() >= s.off.Load() {
		return false, nil
	}
	nf, err := os.Open(s.path)
	if err != nil {
		return false, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		nf.Close()
		return false, io.EOF
	}
	s.f = nf
	s.mu.Unlock()
	f.Close()
	s.off.Store(0)
	s.rotations.Add(1)
	return true, nil
}

// Offset reports bytes consumed in the current file (checkpoint
// position). Safe to call concurrently with Read.
func (s *FollowSource) Offset() int64 { return s.off.Load() }

// Rotations reports how many times the followed path was rotated.
func (s *FollowSource) Rotations() int64 { return s.rotations.Load() }

// Close ends the stream: any blocked Read returns io.EOF.
func (s *FollowSource) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.done)
		s.closeErr = s.f.Close()
	}
	return s.closeErr
}

// ReaderSource adapts an ordinary reader — a socket, an HTTP request
// body, a pipe — into a Source. Its io.EOF is a clean end of stream
// (the runner flushes a final window, including any unterminated last
// line, and the job exits 0). ReaderSource offsets are informational
// only: a plain reader cannot be reopened, so checkpoint resume with a
// ReaderSource replays nothing and simply continues from wherever the
// reader is.
type ReaderSource struct {
	r   io.Reader
	off atomic.Int64
}

// NewReaderSource wraps r. If r is also an io.Closer, Close closes it.
func NewReaderSource(r io.Reader) *ReaderSource { return &ReaderSource{r: r} }

func (s *ReaderSource) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if n > 0 {
		s.off.Add(int64(n))
	}
	return n, err
}

// Offset reports bytes consumed from the wrapped reader.
func (s *ReaderSource) Offset() int64 { return s.off.Load() }

// Close closes the wrapped reader when it supports closing.
func (s *ReaderSource) Close() error {
	if c, ok := s.r.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

var _ Source = (*FollowSource)(nil)
var _ Source = (*ReaderSource)(nil)

// errSourceGone wraps a source read failure so the runner can tell it
// apart from execution failures.
func errSourceGone(err error) error { return fmt.Errorf("stream: source: %w", err) }
