package stream

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// windower chops a Source into newline-aligned windows under two
// triggers: a size trigger (deterministic — window boundaries depend
// only on the input bytes, which replay-exact failover tests rely on)
// and a time trigger (a window closes after Interval if it holds at
// least one complete line).
//
// A reader goroutine reads the Source straight into the spare capacity
// of the array that windows are cut from, and cuts each size-triggered
// window in place as a capped subslice, so a byte is copied once, by the
// read. The bytes not yet in a window (the tail) move to another array
// only when the spare capacity falls below one read. The arrays are
// recycled: one may take the tail again once no queued window and no
// handed-out window lies in it, and the runner is done with a window
// when it asks Next for the next one. A steady stream of size-triggered
// windows lives in two arrays.
//
// The reader reads ahead while the runner executes a window. It parks
// only once a cut window is waiting and the bytes it holds (queued
// windows plus the tail) reach the bound: MaxBuffer when set, else one
// window. A time-only stream cuts no window ahead, so its reader parks
// at the bound whenever the runner is not waiting in Next. Parking
// under MaxBuffer is the streaming meaning of MaxPipeMemory: a batch
// job breaching the pipe-memory budget is killed (the input is finite,
// the job is wedged); a streaming job's input is endless by design, so
// the bound pauses the source instead, and each pause is counted.
type windower struct {
	src       Source
	interval  time.Duration
	maxBytes  int64
	maxBuffer int64
	bound     int64 // the read-ahead bound: maxBuffer, else one window

	wake chan struct{} // capacity 1: the reader cut a window or ended

	mu      sync.Mutex
	cond    *sync.Cond // the parked reader waits here
	ready   [][]byte   // cut windows, oldest first
	queued  int64      // bytes in ready
	tail    []byte     // read but in no window; its spare capacity is the reader's
	scan    int        // tail[maxBytes-1:scan] holds no '\n'
	array   []byte     // the whole array the tail lies in
	left    []retired  // arrays the tail has left, oldest first
	cuts    int64      // windows cut so far
	given   int64      // windows Next has handed out
	done    int64      // windows the runner is done with
	waiting bool       // the consumer is inside Next
	ended   bool
	stopped bool
	readErr error

	pauses atomic.Int64
	// boundary is the source offset at the end of the last window Next
	// handed out. Checkpoints record it: resuming re-reads the queued
	// windows and the tail, which no emitted window covered.
	boundary atomic.Int64
}

// retired is an array the tail has left, and the number of windows cut
// before it did: it is free once the runner is done with that many.
type retired struct {
	array []byte
	cuts  int64
}

const readChunk = 32 << 10

func newWindower(src Source, interval time.Duration, maxBytes, maxBuffer int64, startOffset int64) *windower {
	if interval <= 0 {
		interval = time.Second
	}
	w := &windower{
		src:       src,
		interval:  interval,
		maxBytes:  maxBytes,
		maxBuffer: maxBuffer,
		bound:     maxBuffer,
		wake:      make(chan struct{}, 1),
	}
	if w.bound <= 0 {
		w.bound = max(maxBytes, readChunk)
	}
	w.cond = sync.NewCond(&w.mu)
	w.boundary.Store(startOffset)
	go w.read()
	return w
}

// read is the source-side goroutine: it owns every Source.Read call and
// every reallocation of the tail.
func (w *windower) read() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if w.parks() && w.maxBuffer > 0 {
			w.pauses.Add(1)
		}
		for w.parks() {
			w.cond.Wait()
		}
		if w.stopped {
			return
		}
		if cap(w.tail)-len(w.tail) < readChunk {
			w.move()
		}
		dst := w.tail[len(w.tail) : len(w.tail)+readChunk]
		w.mu.Unlock()
		n, err := w.src.Read(dst)
		w.mu.Lock()
		w.tail = w.tail[:len(w.tail)+n]
		cut := w.cut()
		if err != nil {
			w.ended, w.readErr = true, err
		}
		if cut || err != nil {
			select {
			case w.wake <- struct{}{}:
			default:
			}
		}
		if err != nil {
			return
		}
	}
}

// move gives the tail an array of at least a window and four reads, and
// of twice the tail and a read: the first free array that size, else a
// new one; it drops the other free arrays. A window that starts at the
// front of an array fits in it, so for windows larger than a read what
// moves is the few reads past a window's end, not the window.
func (w *windower) move() {
	size := max(int(w.maxBytes)+4*readChunk, 2*len(w.tail)+readChunk)
	if w.array != nil {
		w.left = append(w.left, retired{w.array, w.cuts})
	}
	var next []byte
	kept := w.left[:0]
	for _, r := range w.left {
		switch {
		case r.cuts > w.done:
			kept = append(kept, r)
		case next == nil && cap(r.array) >= size:
			next = r.array[:0]
		}
	}
	clear(w.left[len(kept):])
	w.left = kept
	if next == nil {
		next = make([]byte, 0, size)
	}
	// The tail may lie in next itself, further on: copy handles that.
	w.array = next[:cap(next)]
	w.tail = append(next, w.tail...)
}

// parks reports whether the reader must wait before its next read.
func (w *windower) parks() bool {
	if w.stopped || w.queued+int64(len(w.tail)) < w.bound {
		return false
	}
	return len(w.ready) > 0 || (w.maxBytes <= 0 && !w.waiting)
}

// cut moves every size-triggered window at the front of the tail to
// ready. A window ends at the first line end at or past maxBytes, so
// for a given input the windows are the same however reads chunked it.
func (w *windower) cut() bool {
	cut := false
	for w.maxBytes > 0 && int64(len(w.tail)) >= w.maxBytes {
		from := max(w.scan, int(w.maxBytes)-1)
		i := bytes.IndexByte(w.tail[from:], '\n')
		if i < 0 {
			w.scan = len(w.tail)
			break
		}
		end := from + i + 1
		w.ready = append(w.ready, w.tail[:end:end])
		w.queued += int64(end)
		w.tail, w.scan = w.tail[end:], 0
		w.cuts++
		cut = true
	}
	return cut
}

// Next blocks until a window closes. It returns the window payload and
// final=true when the source ended (clean EOF or error — Err()
// distinguishes them); the final window may be empty. The source
// offset of the window's end is recorded in boundary. The caller is
// done with every window Next returned before: their bytes may be
// overwritten.
func (w *windower) Next(ctx context.Context) (win []byte, final bool, err error) {
	timer := time.NewTimer(w.interval)
	defer timer.Stop()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.done = w.given
	w.waiting = true
	defer func() { w.waiting = false }()
	w.cond.Signal()
	fired := false
	for {
		switch {
		case len(w.ready) > 0:
			win = w.ready[0]
			w.ready[0], w.ready = nil, w.ready[1:]
			w.queued -= int64(len(win))
			w.cond.Signal()
			return w.emit(win), false, nil
		case w.ended:
			// Flush everything, including an unterminated last line.
			win, w.tail = w.tail, nil
			return w.emit(win), true, w.errLocked()
		case fired:
			fired = false
			if i := bytes.LastIndexByte(w.tail, '\n'); i >= 0 {
				win = w.tail[: i+1 : i+1]
				w.tail, w.scan = w.tail[i+1:], 0
				w.cuts++
				w.cond.Signal()
				return w.emit(win), false, nil
			}
			timer.Reset(w.interval)
		}
		w.mu.Unlock()
		select {
		case <-ctx.Done():
			w.mu.Lock()
			return nil, true, ctx.Err()
		case <-timer.C:
			fired = true
		case <-w.wake:
		}
		w.mu.Lock()
	}
}

func (w *windower) emit(win []byte) []byte {
	w.given++
	w.boundary.Add(int64(len(win)))
	return win
}

// Boundary is the source offset at the last emitted window's end — the
// checkpointable position.
func (w *windower) Boundary() int64 { return w.boundary.Load() }

// Pauses reports how many times MaxBuffer paused the source.
func (w *windower) Pauses() int64 { return w.pauses.Load() }

// Buffered reports bytes read but not yet handed out: the queued
// windows plus the tail.
func (w *windower) Buffered() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.queued + int64(len(w.tail))
}

// Err reports the source's terminal error, with io.EOF mapped to nil
// (clean end of stream).
func (w *windower) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.errLocked()
}

func (w *windower) errLocked() error {
	if w.readErr == nil || errors.Is(w.readErr, io.EOF) {
		return nil
	}
	return errSourceGone(w.readErr)
}

// stop tears the windower down: it unparks a paused reader and detaches
// it from the source (the caller closes the Source itself, which
// unblocks a blocked Read).
func (w *windower) stop() {
	w.mu.Lock()
	w.stopped = true
	w.mu.Unlock()
	w.cond.Signal()
}
