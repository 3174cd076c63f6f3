package dist

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/commands"
	"repro/internal/dfg"
	"repro/internal/runtime"
)

// This file is the coordinator's whole dispatch path. Every KindRemote
// node, whatever its shape, runs as one session that Pool.run walks
// down one recovery ladder, one Pool.attempt at a time: the assigned
// worker, then each alive worker not yet tried, then the coordinator
// itself through runtime.ExecRemoteLocal. internal/runtime/README.md
// ("One session, one recovery ladder") draws it.

// pendingChunk is one input chunk the session has read and still owns:
// release recycles it exactly once, when an output frame acknowledges
// it, when the local rung consumes it, or when the session ends.
type pendingChunk struct {
	b       []byte
	release func()
}

// session is one remote node's dispatch state, carried across attempts.
// The three wire shapes differ only in how many inputs they ship and in
// what an output frame proves:
//
//	file range   0 inputs   one output stream, reproducible from byte 0
//	framed       1 input    output frame k acknowledges input chunk k
//	streamed     k inputs   one output stream, reproducible from byte 0
//
// A framed session (acked) therefore retains only its unacknowledged
// window and forwards every output frame whole. The other two have no
// per-chunk proof — output is not 1:1 with input — so they retain every
// chunk sent, replay all of it to the next rung, and discard the output
// prefix already delivered: the chains are deterministic, so a re-run
// reproduces it byte for byte. That retention is bounded by the shard's
// input (1/width of the job), the price of shipping barrier-split
// consumers.
type session struct {
	req   *runtime.RemoteRequest
	acked bool

	// mu guards retained: during an attempt the sender appends while
	// the receiver of an acked session releases from the front.
	mu sync.Mutex
	// retained holds, per input, the chunks read from req.Ins[i] and not
	// yet released, in order. Every new rung replays them before it
	// reads live.
	retained [][]pendingChunk
	// consumed counts the inputs read to EOF; a later rung serves those
	// from retained alone and resumes live reading at index consumed.
	// Written by the single in-flight sender, read after it has finished.
	consumed int
	// delivered counts the output bytes already forwarded downstream,
	// which a later rung skips. Unused when acked.
	delivered int64
}

// ExecRemote ships one remote node's work to its assigned worker and
// sees it through the recovery ladder. It implements
// runtime.RemoteExecutor.
func (p *Pool) ExecRemote(ctx context.Context, req *runtime.RemoteRequest) error {
	if req.Spec.Worker == "" {
		return runtime.ExecRemoteLocal(ctx, req)
	}
	s := &session{
		req:      req,
		acked:    req.Spec.Path == "" && !req.Spec.Streamed,
		retained: make([][]pendingChunk, len(req.Ins)),
	}
	defer s.release()
	return p.run(ctx, s)
}

// run is the recovery ladder. A worker already known to be down is
// stepped over without an attempt, so a plan built against a stale
// membership epoch prefers a surviving peer over the coordinator just
// like a mid-stream death does.
func (p *Pool) run(ctx context.Context, s *session) error {
	tried := map[string]bool{}
	cur := s.req.Spec.Worker
	for {
		tried[cur] = true
		if p.alive(cur) {
			death, err := p.attempt(ctx, cur, s)
			if !death {
				return err
			}
			// An observed transport failure is definitive, unlike a
			// missed probe: no hysteresis.
			p.markDown(cur)
			p.note(cur, func(st *WorkerStats) { st.Failures++ })
		}
		next := p.pickSurvivor(tried)
		if next == "" {
			p.note(cur, func(st *WorkerStats) { st.Redispatched++ })
			return s.local(ctx)
		}
		p.note(cur, func(st *WorkerStats) { st.RedispatchedRemote++ })
		cur = next
	}
}

func (s *session) retain(i int, pc pendingChunk) {
	s.mu.Lock()
	s.retained[i] = append(s.retained[i], pc)
	s.mu.Unlock()
}

// snapshot returns input i's retained chunks as of now. Elements are
// never overwritten — pop only advances the head — so the sender can
// replay the snapshot while the receiver acknowledges its front.
func (s *session) snapshot(i int) []pendingChunk {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retained[i]
}

// pop hands over input i's oldest retained chunk.
func (s *session) pop(i int) (pendingChunk, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.retained[i]) == 0 {
		return pendingChunk{}, false
	}
	pc := s.retained[i][0]
	s.retained[i] = s.retained[i][1:]
	return pc, true
}

// release recycles whatever is still retained; it runs on every exit
// path of the session.
func (s *session) release() {
	for i := range s.retained {
		for _, pc := range s.retained[i] {
			pc.release()
		}
		s.retained[i] = nil
	}
}

// output is where a rung writes the node's output: straight downstream
// for an acked session, through the delivered-prefix skip otherwise.
func (s *session) output() commands.ChunkWriter {
	if s.acked {
		return s.req.Out
	}
	return &skipWriter{out: s.req.Out, skip: s.delivered, delivered: &s.delivered}
}

// local is the bottom rung: the coordinator interprets the spec itself,
// each input being the retained replay followed by whatever is still
// unread.
func (s *session) local(ctx context.Context) error {
	req := *s.req
	req.Ins = make([]commands.ChunkReader, len(s.req.Ins))
	for i := range req.Ins {
		req.Ins[i] = replayReader{s: s, i: i}
	}
	req.Out = s.output()
	return runtime.ExecRemoteLocal(ctx, &req)
}

// replayReader is input i as the local rung reads it. Ownership of each
// retained chunk passes to the consumer; anything it leaves unread stays
// with the session and is released there.
type replayReader struct {
	s *session
	i int
}

func (r replayReader) ReadChunk() ([]byte, func(), error) {
	if pc, ok := r.s.pop(r.i); ok {
		return pc.b, pc.release, nil
	}
	if r.i < r.s.consumed {
		return nil, func() {}, io.EOF
	}
	return r.s.req.Ins[r.i].ReadChunk()
}

// skipWriter forwards an output stream minus the prefix an earlier rung
// already delivered, advancing the session's delivered count as bytes go
// downstream.
type skipWriter struct {
	out       commands.ChunkWriter
	skip      int64 // reproduced prefix still to discard
	delivered *int64
}

func (w *skipWriter) Write(p []byte) (int, error) {
	total := len(p)
	if int64(total) <= w.skip {
		w.skip -= int64(total)
		return total, nil
	}
	p = p[w.skip:]
	w.skip = 0
	if err := w.out.WriteChunk(append(commands.GetBlock(), p...)); err != nil {
		return 0, err
	}
	*w.delivered += int64(len(p))
	return total, nil
}

func (w *skipWriter) WriteChunk(b []byte) error {
	if w.skip > 0 {
		_, err := w.Write(b)
		commands.PutBlock(b)
		return err
	}
	n := int64(len(b))
	if err := w.out.WriteChunk(b); err != nil {
		return err
	}
	*w.delivered += n
	return nil
}

// wirePlan builds frame 0 for one attempt: the handshake carrying the
// env-free plan (cached templates are run-independent, so this run's
// environment snapshot and sandbox bit ride beside it), the worker
// plan-cache key, and
// the lz4 offer, which depends on the worker's transport. It returns
// the frame and whether lz4 was offered.
func (p *Pool) wirePlan(req *runtime.RemoteRequest, name string) ([]byte, bool, error) {
	spec := *req.Spec
	spec.Env = nil
	planRaw, err := dfg.EncodePlan(&spec)
	if err != nil {
		return nil, false, err
	}
	hs := wireHandshake{Wire: wireVersion, Key: req.Spec.Key, Env: req.Env, Sandbox: req.FS.Jail, Plan: planRaw}
	lz4On := p.compressFor(name)
	if lz4On {
		hs.Features = []string{featureLZ4}
	}
	b, err := json.Marshal(&hs)
	return b, lz4On, err
}

// noteResponse digests a worker's /exec response headers: the
// plan-cache verdict feeds the stats row, and the echoed feature list
// decides how response frames are decoded. It returns whether response
// payloads are tagged (the lz4 feature was accepted).
func (p *Pool) noteResponse(name string, h http.Header) bool {
	switch h.Get("X-Pash-Plan-Cache") {
	case "hit":
		p.note(name, func(st *WorkerStats) { st.PlanCacheHits++ })
	case "miss":
		p.note(name, func(st *WorkerStats) { st.PlanCacheMisses++ })
	}
	for _, f := range strings.Split(h.Get("X-Pash-Features"), ",") {
		if strings.TrimSpace(f) == featureLZ4 {
			return true
		}
	}
	return false
}

// openExec opens one /exec request: dial, request head, handshake
// frame. The whole exchange runs under the dial timeout, so a
// partitioned worker fails fast instead of hanging the dispatch.
func (p *Pool) openExec(ctx context.Context, name string, plan []byte) (net.Conn, *bufio.Writer, io.WriteCloser, error) {
	conn, err := p.dial(ctx, name)
	if err != nil {
		return nil, nil, nil, err
	}
	conn.SetDeadline(time.Now().Add(p.tuned().dialTimeout))
	bw := bufio.NewWriter(conn)
	fmt.Fprintf(bw, "POST /exec HTTP/1.1\r\nHost: pash-worker\r\n"+
		"Content-Type: application/x-pash-frames\r\n"+
		"Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n")
	cw := httputil.NewChunkedWriter(bw)
	err = writeFrame(cw, plan)
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		conn.Close()
		return nil, nil, nil, err
	}
	conn.SetDeadline(time.Time{})
	return conn, bw, cw, nil
}

// dispatchConn is openExec under the retry policy. A failure in there
// is transient by position — no output byte was consumed, so nothing
// needs undoing — and retries the same worker, bounded, with capped
// exponential backoff; a cancelled run does not retry.
func (p *Pool) dispatchConn(ctx context.Context, name string, plan []byte) (net.Conn, *bufio.Writer, io.WriteCloser, error) {
	attempts := p.tuned().retryAttempts
	for attempt := 0; ; attempt++ {
		conn, bw, cw, err := p.openExec(ctx, name, plan)
		if err == nil {
			return conn, bw, cw, nil
		}
		if attempt+1 >= attempts || ctx.Err() != nil {
			return nil, nil, nil, err
		}
		p.note(name, func(st *WorkerStats) { st.Retries++ })
		if berr := p.backoffWait(ctx, attempt); berr != nil {
			return nil, nil, nil, err
		}
	}
}

// streamWatch is the per-attempt inactivity watchdog: when frames stop
// moving in either direction for the chunk timeout while the worker
// still owes something, it kills the connection — turning a silent
// partition or wedged worker into an ordinary detected death the ladder
// already handles.
type streamWatch struct {
	lastNano atomic.Int64
	waiting  atomic.Int64 // things the worker currently owes: acks, a blocked write, the rest of the response
	done     chan struct{}
}

func newStreamWatch(timeout time.Duration, conn net.Conn) *streamWatch {
	w := &streamWatch{done: make(chan struct{})}
	w.touch()
	if timeout <= 0 {
		return w
	}
	go func() {
		// A watchdog panic must not take the process down, and must not
		// leave the stream unwatched either: record it and sever the
		// connection so the ladder takes over.
		defer func() {
			if r := recover(); r != nil {
				runtime.AsPanicError("stream watchdog", r)
				conn.Close()
			}
		}()
		tick := timeout / 4
		if tick < time.Millisecond {
			tick = time.Millisecond
		}
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-w.done:
				return
			case <-t.C:
				idle := time.Since(time.Unix(0, w.lastNano.Load()))
				if idle >= timeout && w.waiting.Load() > 0 {
					conn.Close()
					return
				}
			}
		}
	}()
	return w
}

func (w *streamWatch) touch()     { w.lastNano.Store(time.Now().UnixNano()) }
func (w *streamWatch) stop()      { close(w.done) }
func (w *streamWatch) expect()    { w.waiting.Add(1) }
func (w *streamWatch) fulfilled() { w.waiting.Add(-1) }

// link is one attempt's connection state, shared by its sender
// goroutine and its receiver.
type link struct {
	p     *Pool
	name  string
	s     *session
	bw    *bufio.Writer
	cw    io.WriteCloser
	comp  *compressor
	watch *streamWatch
	// slots is an acked session's in-flight window: one token per chunk
	// on the wire whose output frame has not arrived. The sender blocks
	// on it — the backpressure — and the receiver frees one per
	// acknowledgement, so the window also bounds what a death can strand.
	// Nil for the other shapes.
	slots chan struct{}
	// abort is closed once the receiver has returned, releasing a sender
	// parked on slots.
	abort chan struct{}
}

// errAbandoned ends a sender whose receiver has already returned.
var errAbandoned = errors.New("dist: attempt abandoned")

// attempt drives the session against one worker: replay what is
// retained, continue live, forward the output. It reports whether a
// failure was a worker death — the session can move to the next rung —
// as opposed to an input-side, downstream or cancellation error, which
// aborts the node like any local node.
func (p *Pool) attempt(ctx context.Context, name string, s *session) (death bool, err error) {
	plan, lz4On, err := p.wirePlan(s.req, name)
	if err != nil {
		return false, err
	}
	p.note(name, func(st *WorkerStats) { st.Requests++ })
	conn, bw, cw, err := p.dispatchConn(ctx, name, plan)
	if err != nil {
		// The worker could not be reached within the retry policy: a
		// death, unless it is the run itself that was cancelled. (Not
		// ClassifyRemoteError's call: a dial timeout is a deadline error
		// too.)
		return ctx.Err() == nil, err
	}
	defer conn.Close()

	tune := p.tuned()
	l := &link{
		p: p, name: name, s: s, bw: bw, cw: cw,
		comp:  &compressor{enabled: lz4On},
		watch: newStreamWatch(tune.chunkTimeout, conn),
		abort: make(chan struct{}),
	}
	defer l.watch.stop()
	if s.acked {
		l.slots = make(chan struct{}, tune.window)
	}
	start := time.Now()

	sendc := make(chan error, 1)
	go func() {
		// A panic in the sender must still produce a result, or the
		// wait below would hang forever.
		var err error
		defer func() { sendc <- err }()
		defer runtime.Contain("dispatch sender", &err)
		err = l.send(ctx)
	}()
	frames, recvErr := l.receive(conn)
	close(l.abort)
	// Sever the connection before waiting for the sender: one blocked
	// on a dead or abandoned socket unblocks with a write error, which
	// the classification below subsumes.
	conn.Close()
	sendErr := <-sendc

	fatal := func(err error) bool {
		return err != nil && runtime.ClassifyRemoteError(err) == runtime.RemoteErrFatal
	}
	switch {
	case fatal(sendErr):
		// The input side failed or the run was cancelled: no worker is
		// at fault, so neither retry nor failover applies.
		return false, sendErr
	case fatal(recvErr):
		return false, recvErr
	case recvErr != nil:
		return true, recvErr
	case s.acked && len(s.retained[0]) > 0:
		return true, fmt.Errorf("dist: worker %s closed with unacknowledged chunks", name)
	case s.acked && sendErr != nil:
		return true, sendErr
	}
	// The worker delivered its complete output and trailers. For a
	// stream or a range, a late sender-side transport hiccup cannot
	// change those bytes.
	if frames > 0 {
		p.noteService(name, float64(time.Since(start).Milliseconds())/float64(frames))
	}
	return false, nil
}

// send is the attempt's request body: per input, the retained replay,
// then live chunks from where the last rung stopped, then — streamed
// shapes only — the zero-length separator that ends the stream. A file
// range has no inputs and sends just the end of the body.
func (l *link) send(ctx context.Context) error {
	s := l.s
	for i, in := range s.req.Ins {
		for _, pc := range s.snapshot(i) {
			if err := l.sendChunk(ctx, pc.b); err != nil {
				return err
			}
		}
		for i >= s.consumed {
			b, release, err := in.ReadChunk()
			if err == io.EOF {
				s.consumed = i + 1
				break
			}
			if err != nil {
				return runtime.MarkFatal(err)
			}
			if len(b) == 0 && s.req.Spec.Streamed {
				// A byte stream carries no framing tokens, and on this
				// shape's wire a zero-length frame ends the stream.
				release()
				continue
			}
			// Retain before sending: once the chunk is on the wire it
			// must survive for replay whatever happens next.
			s.retain(i, pendingChunk{b: b, release: release})
			if err := l.sendChunk(ctx, b); err != nil {
				return err
			}
		}
		if s.req.Spec.Streamed {
			if err := l.guarded(func() error { return writeFrame(l.cw, nil) }); err != nil {
				return err
			}
		}
	}
	// The body is complete, so the worker owes the rest of the response
	// unconditionally from here: the watchdog stays armed until the
	// attempt ends, or a partition engaging now would hang the receiver.
	l.watch.expect()
	return l.guarded(func() error {
		if err := l.cw.Close(); err != nil {
			return err
		}
		_, err := io.WriteString(l.bw, "\r\n")
		return err
	})
}

// guarded runs one wire write and its flush with the watchdog armed: a
// worker that stops reading wedges the writer, and nothing else would
// notice. The watchdog is deliberately NOT armed while the sender merely
// waits for upstream input — a streamed shard's input legitimately
// idles, because the coordinator's split fills its outputs one after
// another and a sibling's stall starves this shard with nothing wrong
// at its worker.
func (l *link) guarded(write func() error) error {
	l.watch.expect()
	err := write()
	if err == nil {
		err = l.bw.Flush()
	}
	l.watch.fulfilled()
	l.watch.touch()
	return err
}

// sendChunk puts one input chunk on the wire. In an acked session it
// first takes a window slot, and the chunk stays owed to the watchdog
// until its output frame arrives.
func (l *link) sendChunk(ctx context.Context, b []byte) error {
	if l.slots != nil {
		select {
		case l.slots <- struct{}{}:
		case <-l.abort:
			return errAbandoned
		case <-ctx.Done():
			return ctx.Err()
		}
		l.watch.expect()
	}
	var wireN int
	err := l.guarded(func() (err error) {
		wireN, err = l.comp.writeDataFrame(l.cw, b)
		return err
	})
	if err != nil {
		return err
	}
	l.p.note(l.name, func(st *WorkerStats) {
		st.ChunksOut++
		st.BytesOut += int64(len(b))
		st.WireBytesOut += int64(wireN)
	})
	return nil
}

// receive parses the worker's response and forwards its output frames
// until the stream ends, returning how many arrived. A clean end is an
// EOF at a frame boundary followed by trailers without X-Pash-Error;
// everything else is an error naming the worker.
func (l *link) receive(conn net.Conn) (frames int, err error) {
	blame := func(err error) error { return fmt.Errorf("dist: worker %s: %w", l.name, err) }
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		return 0, blame(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, blame(fmt.Errorf("%d: %s", resp.StatusCode, strings.TrimSpace(string(msg))))
	}
	tagged := l.p.noteResponse(l.name, resp.Header)
	out := l.s.output()
	for {
		raw, err := readFrame(resp.Body)
		if err == io.EOF {
			if msg := resp.Trailer.Get("X-Pash-Error"); msg != "" {
				return frames, blame(errors.New(msg))
			}
			return frames, nil
		}
		if err != nil {
			return frames, blame(err)
		}
		fr, wireN, err := decodeDataPayload(raw, tagged)
		if err != nil {
			return frames, blame(err)
		}
		l.watch.touch()
		frames++
		l.p.note(l.name, func(st *WorkerStats) {
			st.ChunksIn++
			st.BytesIn += int64(len(fr))
			st.WireBytesIn += int64(wireN)
		})
		if l.s.acked && !l.ack() {
			commands.PutBlock(fr)
			return frames, blame(errors.New("sent more frames than it was given"))
		}
		if werr := out.WriteChunk(fr); werr != nil {
			return frames, runtime.MarkFatal(fmt.Errorf("downstream: %w", werr))
		}
	}
}

// ack releases the oldest chunk on the wire against one output frame,
// reporting false when the worker answered a chunk it was never sent.
func (l *link) ack() bool {
	select {
	case <-l.slots:
	default:
		return false
	}
	// A slot is only ever taken for a chunk already retained, so the
	// front of the window exists.
	pc, _ := l.s.pop(0)
	pc.release()
	l.watch.fulfilled()
	return true
}
