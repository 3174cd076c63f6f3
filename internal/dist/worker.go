package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/agg"
	"repro/internal/commands"
	"repro/internal/dfg"
	"repro/internal/runtime"
)

// Worker executes shipped remote plans: the data-plane half of
// `pash-serve -worker`. It is deliberately session-less — no shell, no
// scheduler — just a command registry, a working directory, and a
// plan-keyed cache of decoded specs, because a worker only ever sees
// straight-line stateless stage chains and their aggregation subtrees.
type Worker struct {
	reg   *commands.Registry
	dir   string
	start time.Time
	plans *planCache

	// mu guards the meters.
	mu sync.Mutex
	m  WorkerMetrics
}

// meter applies one update to the worker's meters.
func (w *Worker) meter(fn func(*WorkerMetrics)) {
	w.mu.Lock()
	fn(&w.m)
	w.mu.Unlock()
}

// NewWorker builds a worker over the standard command registry (with
// aggregators installed) rooted at dir. A nil registry selects the
// standard one.
func NewWorker(reg *commands.Registry, dir string) *Worker {
	if reg == nil {
		reg = commands.NewStd()
		agg.Install(reg)
	}
	return &Worker{reg: reg, dir: dir, start: time.Now(), plans: newPlanCache()}
}

// Handler returns the worker's HTTP handler: POST /exec runs one
// remote plan over the framed wire protocol; GET /healthz and
// GET /metrics serve liveness and counters.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/exec", w.handleExec)
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(rw, "ok")
	})
	mux.HandleFunc("/metrics", w.handleMetrics)
	return mux
}

func (w *Worker) handleExec(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(rw, "POST only", http.StatusMethodNotAllowed)
		return
	}
	w.meter(func(m *WorkerMetrics) { m.Requests++; m.Active++ })
	defer w.meter(func(m *WorkerMetrics) { m.Active-- })

	// Frame 0 is the handshake; anything wrong with it is rejected
	// here, before the response commits and before any input frame is
	// read.
	reject := func(msg string) {
		w.meter(func(m *WorkerMetrics) { m.Failures++ })
		http.Error(rw, msg, http.StatusBadRequest)
	}
	frame0, err := readFrame(r.Body)
	if err != nil {
		reject(fmt.Sprintf("reading handshake: %v", err))
		return
	}
	hs, ok := decodeHandshake(frame0)
	commands.PutBlock(frame0)
	if !ok {
		reject("frame 0 is not a pash handshake")
		return
	}
	var (
		spec      *dfg.RemoteSpec
		chain     *runtime.StageChain
		cacheNote string
	)
	gen := w.reg.Generation()
	if ent := w.plans.get(hs.Key, gen); ent != nil {
		spec, chain = ent.spec, ent.chain
		w.meter(func(m *WorkerMetrics) { m.PlanCacheHits++ })
		cacheNote = "hit"
	} else {
		spec, chain, err = w.decodePlan([]byte(hs.Plan))
		if err != nil {
			reject(err.Error())
			return
		}
		w.meter(func(m *WorkerMetrics) { m.PlanCacheMisses++ })
		cacheNote = "miss"
		w.plans.put(hs.Key, gen, spec, chain)
	}
	// A sandboxed job's plan opens files through a filesystem jailed to
	// this worker's directory, whatever paths the plan names.
	fs := commands.OSFS{Dir: w.dir, Jail: hs.Sandbox}
	if chain != nil {
		chain = chain.Bind(fs, hs.Env)
	}

	// The worker streams output frames while still reading input
	// frames: full duplex, which HTTP/1 handlers must opt into.
	rc := http.NewResponseController(rw)
	rc.EnableFullDuplex()
	rw.Header().Set("Trailer", "X-Pash-Exit-Code, X-Pash-Error")
	rw.Header().Set("Content-Type", "application/x-pash-frames")
	rw.Header().Set("X-Pash-Plan-Cache", cacheNote)
	rw.WriteHeader(http.StatusOK)
	// Commit the response as chunked now: trailers only travel on
	// chunked responses, and output may flow before input ends.
	rc.Flush()

	out := &frameStreamWriter{w: w, rw: rw, flush: rc.Flush}
	// The recover boundary keeps one request's panic — a bug in a stage
	// implementation, a malformed plan the decoder let through — from
	// taking the worker process (and every other tenant's chains) down.
	execErr := func() (err error) {
		defer runtime.Contain("worker exec", &err)
		if spec.Path != "" {
			return w.execRange(chain, spec, fs, out)
		}
		return w.execStreamed(r.Context(), chain, spec, fs, hs.Env, r.Body, out)
	}()
	code := 0
	if execErr != nil {
		w.meter(func(m *WorkerMetrics) { m.Failures++ })
		code = 1
		rw.Header().Set("X-Pash-Error", execErr.Error())
	}
	rw.Header().Set("X-Pash-Exit-Code", fmt.Sprintf("%d", code))
}

// decodePlan decodes and validates one plan, returning the spec and —
// for shapes with a linear stage chain — the env-free chain template.
// Tree shapes return a nil chain but still have every branch and
// aggregate command name validated here, so a bad plan fails the
// request before the response commits.
func (w *Worker) decodePlan(raw []byte) (*dfg.RemoteSpec, *runtime.StageChain, error) {
	spec, err := dfg.DecodePlan(raw)
	if err != nil {
		return nil, nil, err
	}
	if len(spec.Stages) > 0 {
		// The template is jailed; every request rebinds its own filesystem.
		chain, err := runtime.NewStageChain(w.reg, spec.Stages, commands.OSFS{Dir: w.dir, Jail: true}, nil, io.Discard)
		if err != nil {
			return nil, nil, err
		}
		return spec, chain, nil
	}
	for _, br := range spec.Branches {
		for _, st := range br {
			if _, ok := w.reg.Lookup(st.Name); !ok {
				return nil, nil, fmt.Errorf("dist: plan branch: unknown command %q", st.Name)
			}
		}
	}
	if spec.Agg != nil {
		if _, ok := w.reg.Lookup(spec.Agg.Name); !ok {
			return nil, nil, fmt.Errorf("dist: plan aggregate: unknown command %q", spec.Agg.Name)
		}
	}
	return spec, nil, nil
}

// execRange self-sources the plan's file slice and streams the
// transformed bytes back as frames.
func (w *Worker) execRange(chain *runtime.StageChain, spec *dfg.RemoteSpec, fs commands.OSFS, out *frameStreamWriter) error {
	r, err := runtime.OpenRange(fs, spec.Path, spec.Slice, spec.Of)
	if err != nil {
		return err
	}
	defer r.Close()
	_, err = chain.Stream(r, out)
	return err
}

// execStreamed runs a contiguous-stream plan: the request body carries
// each input stream's chunks in input order with a zero-length
// separator frame ending each, and the response is the node's single
// output stream. A feeder goroutine demultiplexes the wire into one
// in-process pipe per input while the chain (or aggregation tree)
// consumes them.
func (w *Worker) execStreamed(ctx context.Context, chain *runtime.StageChain, spec *dfg.RemoteSpec, fs commands.OSFS, env map[string]string, body io.Reader, out *frameStreamWriter) error {
	k := 1
	if spec.Agg != nil {
		k = len(spec.Branches)
	}
	prs := make([]*io.PipeReader, k)
	pws := make([]*io.PipeWriter, k)
	ins := make([]io.Reader, k)
	for i := range ins {
		prs[i], pws[i] = io.Pipe()
		ins[i] = prs[i]
	}
	feedDone := make(chan error, 1)
	go func() {
		cur := 0
		discard := false // consumer hung up on the current stream
		fail := func(err error) {
			for ; cur < k; cur++ {
				pws[cur].CloseWithError(err)
			}
			feedDone <- err
		}
		for cur < k {
			raw, err := readFrame(body)
			if err == io.EOF {
				// The body ended before every stream's separator: the
				// missing bytes must not masquerade as stream end.
				fail(fmt.Errorf("%w: input ended inside stream %d of %d", ErrTruncatedFrame, cur, k))
				return
			}
			if err != nil {
				fail(err)
				return
			}
			if len(raw) == 0 {
				commands.PutBlock(raw)
				pws[cur].Close()
				cur++
				discard = false
				continue
			}
			w.meter(func(m *WorkerMetrics) {
				m.ChunksIn++
				m.BytesIn += int64(len(raw))
				m.WireBytesIn += int64(frameHeader + len(raw))
			})
			if !discard {
				if _, werr := pws[cur].Write(raw); werr != nil {
					// The consumer stopped early; swallow the rest of
					// this stream so later streams still line up.
					discard = true
				}
			}
			commands.PutBlock(raw)
		}
		feedDone <- nil
	}()

	var execErr error
	if spec.Agg != nil {
		execErr = runtime.ExecStreamTree(ctx, w.reg, spec, ins, out, fs, env, io.Discard)
	} else {
		_, execErr = chain.Stream(ins[0], out)
	}
	// Unblock the feeder whatever state it is in, then wait for it: it
	// reads the request body, which the handler must own again before
	// returning.
	for _, pr := range prs {
		pr.CloseWithError(io.ErrClosedPipe)
	}
	feedErr := <-feedDone
	if execErr != nil {
		return execErr
	}
	return feedErr
}

// frameStreamWriter frames a plain output stream for the wire, one
// flushed frame per write, adopting whole chunks when the producer
// hands them over.
type frameStreamWriter struct {
	w     *Worker
	rw    io.Writer
	flush func() error
}

func (f *frameStreamWriter) Write(p []byte) (int, error) {
	if err := f.emit(p); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (f *frameStreamWriter) WriteChunk(b []byte) error {
	err := f.emit(b)
	commands.PutBlock(b)
	return err
}

func (f *frameStreamWriter) emit(p []byte) error {
	if len(p) == 0 {
		// A zero-length frame is a separator on the wire; plain
		// streams have none to convey.
		return nil
	}
	err := sendFrame(f.rw, f.flush, p)
	f.w.meter(func(m *WorkerMetrics) {
		m.BytesOut += int64(len(p))
		m.WireBytesOut += int64(frameHeader + len(p))
	})
	return err
}

// WorkerMetrics is the worker's /metrics JSON document. BytesIn and
// BytesOut count chunk bytes; the WireBytes pair counts the same
// traffic as transmitted, each chunk plus its 8-byte frame header.
type WorkerMetrics struct {
	UptimeSeconds   float64 `json:"uptime_seconds"`
	Requests        int64   `json:"requests"`
	Active          int64   `json:"active"`
	Failures        int64   `json:"failures"`
	ChunksIn        int64   `json:"chunks_in"`
	BytesIn         int64   `json:"bytes_in"`
	BytesOut        int64   `json:"bytes_out"`
	WireBytesIn     int64   `json:"bytes_in_wire"`
	WireBytesOut    int64   `json:"bytes_out_wire"`
	PlanCacheHits   int64   `json:"plan_cache_hits"`
	PlanCacheMisses int64   `json:"plan_cache_misses"`
}

func (w *Worker) handleMetrics(rw http.ResponseWriter, r *http.Request) {
	w.mu.Lock()
	m := w.m
	w.mu.Unlock()
	m.UptimeSeconds = time.Since(w.start).Seconds()
	rw.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(rw)
	enc.SetIndent("", "  ")
	enc.Encode(m)
}
