package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync/atomic"
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

	requests     atomic.Int64
	active       atomic.Int64
	failures     atomic.Int64
	chunksIn     atomic.Int64
	bytesIn      atomic.Int64
	bytesOut     atomic.Int64
	wireBytesIn  atomic.Int64
	wireBytesOut atomic.Int64
	planHits     atomic.Int64
	planMisses   atomic.Int64
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
	w.requests.Add(1)
	w.active.Add(1)
	defer w.active.Add(-1)

	// Frame 0 is the handshake; anything wrong with it is rejected
	// here, before the response commits and before any input frame is
	// read.
	reject := func(msg string) {
		w.failures.Add(1)
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
	for _, f := range hs.Features {
		if f != featureLZ4 {
			reject(fmt.Sprintf("unsupported wire feature %q", f))
			return
		}
	}
	lz4On := slices.Contains(hs.Features, featureLZ4)
	var (
		spec      *dfg.RemoteSpec
		chain     *runtime.StageChain
		cacheNote string
	)
	gen := w.reg.Generation()
	if ent := w.plans.get(hs.Key, gen); ent != nil {
		spec, chain = ent.spec, ent.chain
		w.planHits.Add(1)
		cacheNote = "hit"
	} else {
		spec, chain, err = w.decodePlan([]byte(hs.Plan))
		if err != nil {
			reject(err.Error())
			return
		}
		w.planMisses.Add(1)
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
	http.NewResponseController(rw).EnableFullDuplex()
	flusher, _ := rw.(http.Flusher)
	rw.Header().Set("Trailer", "X-Pash-Exit-Code, X-Pash-Error")
	rw.Header().Set("Content-Type", "application/x-pash-frames")
	if lz4On {
		rw.Header().Set("X-Pash-Features", featureLZ4)
	}
	rw.Header().Set("X-Pash-Plan-Cache", cacheNote)
	rw.WriteHeader(http.StatusOK)
	if flusher != nil {
		// Commit the response as chunked now: trailers only travel on
		// chunked responses, and acks must flow before input ends.
		flusher.Flush()
	}

	comp := &compressor{enabled: lz4On}
	// The recover boundary keeps one request's panic — a bug in a stage
	// implementation, a malformed plan the decoder let through — from
	// taking the worker process (and every other tenant's chains) down.
	execErr := func() (err error) {
		defer runtime.Contain("worker exec", &err)
		switch {
		case spec.Path != "":
			return w.execRange(rw, flusher, chain, spec, fs, comp)
		case spec.Streamed:
			return w.execStreamed(r.Context(), rw, flusher, chain, spec, fs, hs.Env, r.Body, lz4On, comp)
		default:
			return w.execFramed(rw, flusher, chain, r.Body, lz4On, comp)
		}
	}()
	code := 0
	if execErr != nil {
		w.failures.Add(1)
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

// execFramed is the chunk-relay loop: one output frame per input
// frame, flushed eagerly so the coordinator's acknowledgement window
// keeps moving.
func (w *Worker) execFramed(rw io.Writer, flusher http.Flusher, chain *runtime.StageChain, body io.Reader, tagged bool, comp *compressor) error {
	for {
		fr, err := readFrame(body)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		in, wire, err := decodeDataPayload(fr, tagged)
		if err != nil {
			return err
		}
		w.chunksIn.Add(1)
		w.bytesIn.Add(int64(len(in)))
		w.wireBytesIn.Add(int64(wire))
		out, err := chain.ApplyChunk(in)
		commands.PutBlock(in)
		if err != nil {
			return err
		}
		w.bytesOut.Add(int64(len(out)))
		wireOut, werr := comp.writeDataFrame(rw, out)
		commands.PutBlock(out)
		if werr != nil {
			return werr
		}
		w.wireBytesOut.Add(int64(wireOut))
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// execRange self-sources the plan's file slice and streams the
// transformed bytes back as frames.
func (w *Worker) execRange(rw io.Writer, flusher http.Flusher, chain *runtime.StageChain, spec *dfg.RemoteSpec, fs commands.OSFS, comp *compressor) error {
	r, err := runtime.OpenRange(fs, spec.Path, spec.Slice, spec.Of)
	if err != nil {
		return err
	}
	defer r.Close()
	_, err = chain.Stream(r, w.outputWriter(rw, flusher, comp))
	return err
}

// execStreamed runs a contiguous-stream plan: the request body carries
// each input stream's chunks in input order with a zero-length
// separator frame ending each, and the response is the node's single
// output stream. A feeder goroutine demultiplexes the wire into one
// in-process pipe per input while the chain (or aggregation tree)
// consumes them.
func (w *Worker) execStreamed(ctx context.Context, rw io.Writer, flusher http.Flusher, chain *runtime.StageChain, spec *dfg.RemoteSpec, fs commands.OSFS, env map[string]string, body io.Reader, tagged bool, comp *compressor) error {
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
			fr, err := readFrame(body)
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
			if len(fr) == 0 {
				commands.PutBlock(fr)
				pws[cur].Close()
				cur++
				discard = false
				continue
			}
			raw, wire, err := decodeDataPayload(fr, tagged)
			if err != nil {
				fail(err)
				return
			}
			w.chunksIn.Add(1)
			w.bytesIn.Add(int64(len(raw)))
			w.wireBytesIn.Add(int64(wire))
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

	fw := w.outputWriter(rw, flusher, comp)
	var execErr error
	if spec.Agg != nil {
		execErr = runtime.ExecStreamTree(ctx, w.reg, spec, ins, fw, fs, env, io.Discard)
	} else {
		_, execErr = chain.Stream(ins[0], fw)
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

// outputWriter builds the response-side frame writer with the
// connection's compressor and the worker's meters attached.
func (w *Worker) outputWriter(rw io.Writer, flusher http.Flusher, comp *compressor) *frameStreamWriter {
	return &frameStreamWriter{
		w: rw, flusher: flusher, comp: comp,
		bytesOut: &w.bytesOut, wireOut: &w.wireBytesOut,
	}
}

// frameStreamWriter frames a plain output stream for the wire,
// adopting whole chunks when the producer hands them over and
// compressing payloads when the connection negotiated it.
type frameStreamWriter struct {
	w        io.Writer
	flusher  http.Flusher
	comp     *compressor
	bytesOut *atomic.Int64
	wireOut  *atomic.Int64
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
		// A zero-length frame is a framing token on the wire; plain
		// streams have no tokens to convey.
		return nil
	}
	f.bytesOut.Add(int64(len(p)))
	wire, err := f.comp.writeDataFrame(f.w, p)
	if err != nil {
		return err
	}
	f.wireOut.Add(int64(wire))
	if f.flusher != nil {
		f.flusher.Flush()
	}
	return nil
}

// WorkerMetrics is the worker's /metrics JSON document. BytesIn and
// BytesOut count decoded chunk bytes; the WireBytes pair counts the
// same traffic as transmitted (tags and lz4 blocks included), so
// WireBytesOut/BytesOut is the worker's outbound compression ratio.
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
	rw.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(rw)
	enc.SetIndent("", "  ")
	enc.Encode(WorkerMetrics{
		UptimeSeconds:   time.Since(w.start).Seconds(),
		Requests:        w.requests.Load(),
		Active:          w.active.Load(),
		Failures:        w.failures.Load(),
		ChunksIn:        w.chunksIn.Load(),
		BytesIn:         w.bytesIn.Load(),
		BytesOut:        w.bytesOut.Load(),
		WireBytesIn:     w.wireBytesIn.Load(),
		WireBytesOut:    w.wireBytesOut.Load(),
		PlanCacheHits:   w.planHits.Load(),
		PlanCacheMisses: w.planMisses.Load(),
	})
}
