package dist

import (
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
// straight-line stateless stage chains over at most one input stream.
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
	chain = chain.Bind(fs, hs.Env)

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
			return runtime.RunRemoteSpec(chain, spec, fs, nil, out)
		}
		in := &frameSource{w: w, body: r.Body}
		return in.drain(runtime.RunRemoteSpec(chain, spec, fs, runtime.ChunkReaderAsReader(in), out))
	}()
	code := 0
	if execErr != nil {
		w.meter(func(m *WorkerMetrics) { m.Failures++ })
		code = 1
		rw.Header().Set("X-Pash-Error", execErr.Error())
	}
	rw.Header().Set("X-Pash-Exit-Code", fmt.Sprintf("%d", code))
}

// decodePlan decodes and validates one plan, returning the spec and
// its env-free stage chain template, so a bad plan fails the request
// before the response commits.
func (w *Worker) decodePlan(raw []byte) (*dfg.RemoteSpec, *runtime.StageChain, error) {
	spec, err := dfg.DecodePlan(raw)
	if err != nil {
		return nil, nil, err
	}
	// The template is jailed; every request rebinds its own filesystem.
	chain, err := runtime.NewStageChain(w.reg, spec.Stages, commands.OSFS{Dir: w.dir, Jail: true}, nil, io.Discard)
	if err != nil {
		return nil, nil, err
	}
	return spec, chain, nil
}

// frameSource reads a streamed plan's one input off the request body:
// its data frames, up to the zero-length separator. The end it reaches,
// clean or not, sticks.
type frameSource struct {
	w    *Worker
	body io.Reader
	err  error
}

func (f *frameSource) ReadChunk() ([]byte, func(), error) {
	if f.err != nil {
		return nil, func() {}, f.err
	}
	raw, err := readFrame(f.body)
	switch {
	case err == io.EOF:
		// The body ended before the separator: the missing bytes must
		// not masquerade as stream end.
		err = fmt.Errorf("%w: input ended before its separator", ErrTruncatedFrame)
	case err == nil && len(raw) == 0:
		commands.PutBlock(raw)
		err = io.EOF
	}
	if err != nil {
		f.err = err
		return nil, func() {}, err
	}
	f.w.meter(func(m *WorkerMetrics) {
		m.ChunksIn++
		m.BytesIn += int64(len(raw))
		m.WireBytesIn += int64(frameHeader + len(raw))
	})
	return raw, func() { commands.PutBlock(raw) }, nil
}

// drain reads whatever input the chain left unread (a head that stopped
// early), so the coordinator's sender completes, and returns the
// chain's error, else the input's.
func (f *frameSource) drain(execErr error) error {
	for {
		_, release, err := f.ReadChunk()
		if err == io.EOF {
			return execErr
		}
		if err != nil {
			if execErr != nil {
				return execErr
			}
			return err
		}
		release()
	}
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
