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
// ("Failure model") states the ladder's contract.

// session is one remote node's dispatch state, carried across attempts.
// The two wire shapes differ only in whether they ship an input:
//
//	file range   no input   one output stream, reproducible from byte 0
//	streamed     one input  one output stream, reproducible from byte 0
//
// Neither has a per-chunk proof of progress — output is not 1:1 with
// input — so a session retains every chunk sent, replays all of it to
// the next rung, and discards the output prefix already delivered: the
// chains are deterministic, so a re-run reproduces it byte for byte.
// That retention, up to the shard's input, is charged to the job's pipe
// budget like any queued chunk.
type session struct {
	req *runtime.RemoteRequest

	// retained holds the chunks read from req.In that the session still
	// owns, in order. Every new rung replays them before it reads live.
	retained [][]byte
	// consumed records that req.In was read to EOF; a later rung then
	// serves the input from retained alone. Written by the single
	// in-flight sender, read after it has finished.
	consumed bool
	// delivered counts the output bytes already forwarded downstream,
	// which a later rung skips.
	delivered int64
}

// ExecRemote ships one remote node's work to its assigned worker and
// sees it through the recovery ladder. It implements
// runtime.RemoteExecutor.
func (p *Pool) ExecRemote(ctx context.Context, req *runtime.RemoteRequest) error {
	if req.Spec.Worker == "" {
		return runtime.ExecRemoteLocal(ctx, req)
	}
	s := &session{req: req}
	defer s.discard()
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

// retain keeps one input chunk for replay, charged to the job's pipe
// budget while the session holds it. A refused charge fails the run: no
// worker is at fault.
func (s *session) retain(b []byte) error {
	if err := s.req.Budget.ChargePipe(len(b)); err != nil {
		commands.PutBlock(b)
		return runtime.MarkFatal(err)
	}
	s.retained = append(s.retained, b)
	return nil
}

// discard gives back whatever is still retained; it runs on every exit
// path of the session.
func (s *session) discard() {
	for _, b := range s.retained {
		s.req.Budget.ReleasePipe(len(b))
		commands.PutBlock(b)
	}
	s.retained = nil
}

// output is where a rung writes the node's output: downstream, through
// the skip of the prefix an earlier rung already delivered.
func (s *session) output() commands.ChunkWriter {
	return &skipWriter{out: s.req.Out, skip: s.delivered, delivered: &s.delivered}
}

// local is the bottom rung: the coordinator interprets the spec itself,
// its input being the retained replay followed by whatever is still
// unread.
func (s *session) local(ctx context.Context) error {
	req := *s.req
	if req.In != nil {
		req.In = replayReader{s}
	}
	req.Out = s.output()
	return runtime.ExecRemoteLocal(ctx, &req)
}

// replayReader is the input as the local rung reads it. Each retained
// chunk passes to the consumer, oldest first, and its budget charge with
// it; anything it leaves unread stays with the session and is given back
// there.
type replayReader struct{ s *session }

func (r replayReader) ReadChunk() ([]byte, error) {
	s := r.s
	if len(s.retained) > 0 {
		b := s.retained[0]
		s.retained = s.retained[1:]
		s.req.Budget.ReleasePipe(len(b))
		return b, nil
	}
	if s.consumed {
		return nil, io.EOF
	}
	return s.req.In.ReadChunk()
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
// environment snapshot and sandbox bit ride beside it) and the worker
// plan-cache key.
func wirePlan(req *runtime.RemoteRequest) ([]byte, error) {
	spec := *req.Spec
	spec.Env = nil
	planRaw, err := dfg.EncodePlan(&spec)
	if err != nil {
		return nil, err
	}
	return json.Marshal(&wireHandshake{Wire: wireVersion, Key: req.Spec.Key, Env: req.Env, Sandbox: req.FS.Jail, Plan: planRaw})
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
	waiting  atomic.Int64 // things the worker currently owes: a blocked write, the rest of the response
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
	watch *streamWatch
}

// attempt drives the session against one worker: replay what is
// retained, continue live, forward the output. It reports whether a
// failure was a worker death — the session can move to the next rung —
// as opposed to an input-side, downstream or cancellation error, which
// aborts the node like any local node.
func (p *Pool) attempt(ctx context.Context, name string, s *session) (death bool, err error) {
	plan, err := wirePlan(s.req)
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

	l := &link{
		p: p, name: name, s: s, bw: bw, cw: cw,
		watch: newStreamWatch(p.tuned().chunkTimeout, conn),
	}
	defer l.watch.stop()
	fatal := func(err error) bool {
		return err != nil && runtime.ClassifyRemoteError(err) == runtime.RemoteErrFatal
	}
	sendc := make(chan error, 1)
	go func() {
		// A panic in the sender must still produce a result, or the
		// wait below would hang forever.
		var err error
		defer func() { sendc <- err }()
		defer runtime.Contain("dispatch sender", &err)
		if err = l.send(); fatal(err) {
			// The receiver may be waiting on a worker that waits for
			// input that will never come: cut it loose.
			conn.Close()
		}
	}()
	recvErr := l.receive(conn)
	// Sever the connection before waiting for the sender: one blocked
	// on a dead or abandoned socket unblocks with a write error, which
	// the classification below subsumes.
	conn.Close()
	sendErr := <-sendc

	switch {
	case fatal(sendErr):
		// The input side failed or the run was cancelled: no worker is
		// at fault, so neither retry nor failover applies.
		return false, sendErr
	case fatal(recvErr):
		return false, recvErr
	case recvErr != nil:
		return true, recvErr
	}
	// The worker delivered its complete output and trailers: a late
	// sender-side transport hiccup cannot change those bytes.
	return false, nil
}

// send is the attempt's request body: the retained replay, then live
// chunks from where the last rung stopped, then the zero-length
// separator that ends the stream. A file range has no input and sends
// just the end of the body.
func (l *link) send() error {
	if err := l.sendInput(); err != nil {
		return err
	}
	// The body is complete, so the worker owes the rest of the response
	// unconditionally from here: the watchdog stays armed until the
	// attempt ends, or a partition engaging now would hang the receiver.
	l.watch.expect()
	return l.guarded(func() error {
		if err := l.cw.Close(); err != nil {
			return err
		}
		if _, err := io.WriteString(l.bw, "\r\n"); err != nil {
			return err
		}
		return l.bw.Flush()
	})
}

// sendInput sends the input stream, if the shard has one.
func (l *link) sendInput() error {
	s := l.s
	if s.req.In == nil {
		return nil
	}
	for _, b := range s.retained {
		if err := l.sendChunk(b); err != nil {
			return err
		}
	}
	for !s.consumed {
		b, err := s.req.In.ReadChunk()
		if err == io.EOF {
			s.consumed = true
			break
		}
		if err != nil {
			return runtime.MarkFatal(err)
		}
		if len(b) == 0 {
			// A byte stream carries no empty chunks, and on the wire a
			// zero-length frame ends the stream.
			commands.PutBlock(b)
			continue
		}
		// Retain before sending: once the chunk is on the wire it must
		// survive for replay whatever happens next.
		if err := s.retain(b); err != nil {
			return err
		}
		if err := l.sendChunk(b); err != nil {
			return err
		}
	}
	return l.guarded(func() error { return sendFrame(l.cw, l.bw.Flush, nil) })
}

// guarded runs one wire write, flush included, with the watchdog armed:
// a worker that stops reading wedges the writer, and nothing else would
// notice. The watchdog is deliberately NOT armed while the sender merely
// waits for upstream input — a streamed shard's input legitimately
// idles, because the coordinator's split fills its outputs one after
// another and a sibling's stall starves this shard with nothing wrong
// at its worker.
func (l *link) guarded(write func() error) error {
	l.watch.expect()
	err := write()
	l.watch.fulfilled()
	l.watch.touch()
	return err
}

// sendChunk puts one input chunk on the wire.
func (l *link) sendChunk(b []byte) error {
	if err := l.guarded(func() error { return sendFrame(l.cw, l.bw.Flush, b) }); err != nil {
		return err
	}
	l.p.note(l.name, func(st *WorkerStats) {
		st.ChunksOut++
		st.BytesOut += int64(len(b))
		st.WireBytesOut += int64(frameHeader + len(b))
	})
	return nil
}

// receive parses the worker's response and forwards its output frames
// until the stream ends. A clean end is an EOF at a frame boundary
// followed by trailers without X-Pash-Error; everything else is an
// error naming the worker.
func (l *link) receive(conn net.Conn) error {
	blame := func(err error) error { return fmt.Errorf("dist: worker %s: %w", l.name, err) }
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		return blame(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return blame(fmt.Errorf("%d: %s", resp.StatusCode, strings.TrimSpace(string(msg))))
	}
	switch resp.Header.Get("X-Pash-Plan-Cache") {
	case "hit":
		l.p.note(l.name, func(st *WorkerStats) { st.PlanCacheHits++ })
	case "miss":
		l.p.note(l.name, func(st *WorkerStats) { st.PlanCacheMisses++ })
	}
	out := l.s.output()
	for {
		fr, err := readFrame(resp.Body)
		if err == io.EOF {
			if msg := resp.Trailer.Get("X-Pash-Error"); msg != "" {
				return blame(errors.New(msg))
			}
			return nil
		}
		if err != nil {
			return blame(err)
		}
		l.watch.touch()
		l.p.note(l.name, func(st *WorkerStats) {
			st.ChunksIn++
			st.BytesIn += int64(len(fr))
			st.WireBytesIn += int64(frameHeader + len(fr))
		})
		if werr := out.WriteChunk(fr); werr != nil {
			return runtime.MarkFatal(fmt.Errorf("downstream: %w", werr))
		}
	}
}
