// Package serve is the pash-serve daemon core: it multiplexes many
// clients over one shared session — one plan cache, one machine
// scheduler — turning the parallelizing interpreter into a long-lived
// multi-tenant service. The compiler cost the plan cache amortizes
// within one script amortizes across *clients* here: a thousand
// requests running the same pipeline shape compile it once.
//
// Each request runs as one pash.Job: cancellation rides the request
// context (a client hanging up stops its script at the next statement
// boundary), and /metrics exposes a live row per in-flight job.
//
// Protocol (HTTP, over TCP or a unix socket):
//
//	POST /run?script=<urlencoded script>   body = stdin stream
//	POST /run                              body = script, stdin empty
//
// A request may ask for its own parallelism width, as a query parameter
// or the X-Pash-Width header, overriding the session default for that
// request only:
//
//	width=N        region parallelism width (1..256)
//
// An invalid value is rejected with 400 before execution starts. How a
// region is split, fused and buffered is the planner's business, not a
// tenant's: the daemon exposes no knob for it.
//
// The response body streams the script's stdout as it is produced.
// Because the status line is sent before the script finishes, the exit
// status and any execution error arrive in HTTP trailers:
//
//	X-Pash-Exit-Code: <int>
//	X-Pash-Error:     <message, only on error>
//
// Scripts that fail to parse are rejected with 400 (the Job API
// validates syntax synchronously, before the response commits).
//
// POST /stream runs a script windowed over the body or a followed file
// (stream.go). It shares /run's request→job→trailers lifecycle; its
// follow= and checkpoint= paths are relative to the session directory
// (-dir), and a sandboxed daemon refuses those that leave it.
//
// Requests carry a tenant identity (X-Pash-Tenant header or tenant=
// parameter; a configurable default otherwise). With a meter attached
// the identity is governed — per-tenant job quota and rate limit —
// and with a scheduler it is the admission key: slots are granted
// round-robin across tenants with queued work, so one tenant's burst
// cannot starve another's. Refusals are distinguishable by status and
// the X-Pash-Shed-Cause header:
//
//	403 quota     the tenant's job quota is exhausted (no Retry-After;
//	              waiting will not help)
//	429 rate      the tenant's rate limit refused the request;
//	              Retry-After says when the bucket next conforms
//	503 capacity  the machine is saturated or draining; Retry-After is
//	              derived from live scheduler state (queue depth × EWMA
//	              slot-hold time, clamped)
//
// GET /metrics returns a JSON snapshot of plan-cache, scheduler,
// throughput, and per-job counters; GET /healthz returns 200 "ok".
//
// A daemon with an attached worker pool (AttachWorkers; `pash-serve
// -workers`) is a distribution coordinator: every request's stateless
// chains shard across the pool's `pash-serve -worker` processes, and
// two more endpoints appear — GET /workers (per-worker meter rows, read
// only) and POST /workers/register?url=ADDR (runtime membership; a new
// worker is probed before admission, a known one left to the prober).
// The same rows ride /metrics as "workers".
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/meter"
	"repro/pash"
)

// Server multiplexes script executions over one shared pash.Session.
type Server struct {
	sess  *pash.Session
	sched *pash.Scheduler
	pool  *pash.WorkerPool
	mtr   *meter.Meter
	start time.Time

	// limits is the default per-job resource budget applied to every
	// request (zero = unlimited). Set with SetDefaultLimits before
	// serving.
	limits pash.JobLimits
	// retryAfter is the fallback Retry-After hint (seconds) for shed
	// responses when no scheduler state is available to derive one.
	retryAfter int
	// tenantDefault is the identity assigned to requests that carry no
	// X-Pash-Tenant header or tenant= parameter.
	tenantDefault string

	draining  atomic.Bool
	drainOnce sync.Once
	drainCh   chan struct{}

	requests   atomic.Int64
	active     atomic.Int64
	failures   atomic.Int64
	cancelled  atomic.Int64
	sheds      atomic.Int64
	bytesOut   atomic.Int64
	streamJobs atomic.Int64
}

// New builds a server over the given session. If sched is non-nil it is
// attached to the session; every request then passes admission control
// and draws region widths from the shared pool.
func New(sess *pash.Session, sched *pash.Scheduler) *Server {
	if sched != nil {
		sess.UseScheduler(sched)
	}
	return &Server{
		sess:          sess,
		sched:         sched,
		start:         time.Now(),
		retryAfter:    1,
		tenantDefault: "anonymous",
		drainCh:       make(chan struct{}),
	}
}

// SetDefaultLimits installs the per-job resource budget every request
// runs under (zero = unlimited). Call before serving.
func (s *Server) SetDefaultLimits(l pash.JobLimits) { s.limits = l }

// SetMeter attaches the tenant governance plane: every request passes
// its tenant's quota and rate gates before scheduler admission, and
// /metrics grows per-tenant rows. Call before serving.
func (s *Server) SetMeter(m *meter.Meter) { s.mtr = m }

// SetDefaultTenant names the identity assigned to requests that carry
// no X-Pash-Tenant header or tenant= parameter (default "anonymous").
func (s *Server) SetDefaultTenant(name string) {
	if name != "" {
		s.tenantDefault = name
	}
}

// tenantFor resolves a request's tenant identity: X-Pash-Tenant header
// first, tenant= query parameter second, the configured default last.
func (s *Server) tenantFor(r *http.Request) string {
	if t := r.Header.Get("X-Pash-Tenant"); t != "" {
		return t
	}
	if t := r.URL.Query().Get("tenant"); t != "" {
		return t
	}
	return s.tenantDefault
}

// retryAfterSeconds derives the Retry-After hint from live scheduler
// state — estimated admission wait under the current queue depth and
// EWMA slot-hold time, clamped — falling back to the static default
// when the daemon runs without a scheduler.
func (s *Server) retryAfterSeconds() int {
	if s.sched != nil {
		d := s.sched.EstimateWait()
		secs := int((d + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		return secs
	}
	return s.retryAfter
}

// Drain flips the server into drain mode: new /run requests are shed
// with 503 while in-flight jobs run to completion. It is idempotent;
// the returned channel (also via Draining) is closed on first call so
// the process's accept loop can begin its shutdown.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.drainOnce.Do(func() { close(s.drainCh) })
}

// DrainRequested returns a channel closed once Drain has been called
// (by signal or by POST /drain).
func (s *Server) DrainRequested() <-chan struct{} { return s.drainCh }

// shed refuses a request, counting it and stamping the cause so
// clients can tell "you are over quota" (403, no retry will help) from
// "slow down" (429) from "the machine is saturated" (503). Rate and
// capacity sheds carry a Retry-After hint; for capacity it is derived
// from live scheduler state, not a constant.
func (s *Server) shed(w http.ResponseWriter, cause meter.Cause, status, retryAfter int, reason string) {
	s.sheds.Add(1)
	w.Header().Set("X-Pash-Shed-Cause", string(cause))
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	http.Error(w, reason, status)
}

// shedCapacity refuses with 503 + derived Retry-After (saturation and
// drain sheds both: a draining daemon's clients should retry elsewhere
// or later, so the hint stays present).
func (s *Server) shedCapacity(w http.ResponseWriter, reason string) {
	s.shed(w, meter.CauseCapacity, http.StatusServiceUnavailable, s.retryAfterSeconds(), reason)
}

// admitFrontDoor runs the request through the tenant quota/rate gates
// and scheduler admission, in that order — governance refusals are
// cheap and must not consume a queue slot, width token, or plan-cache
// entry. It answers the request itself on refusal (ok=false). On
// ok=true the caller owns release (nil without a scheduler) and must
// hand it to the job or call it; trow (nil without a meter) has been
// charged one job, which every no-run path below refunds.
func (s *Server) admitFrontDoor(w http.ResponseWriter, r *http.Request) (tenant string, trow *meter.Tenant, release func(), ok bool) {
	tenant = s.tenantFor(r)
	if s.mtr != nil {
		trow = s.mtr.Tenant(tenant)
		cause, retry := trow.Admit()
		switch cause {
		case meter.CauseQuota:
			s.shed(w, cause, http.StatusForbidden, 0,
				fmt.Sprintf("tenant %q quota exhausted", tenant))
			return "", nil, nil, false
		case meter.CauseRate:
			secs := int((retry + time.Second - 1) / time.Second)
			if secs < 1 {
				secs = 1
			}
			s.shed(w, cause, http.StatusTooManyRequests, secs,
				fmt.Sprintf("tenant %q rate limited", tenant))
			return "", nil, nil, false
		}
	}
	if s.sched != nil {
		rel, err := s.sched.AdmitKey(r.Context(), tenant)
		if err != nil {
			if trow != nil {
				trow.NoteCapacityShed()
			}
			if errors.Is(err, pash.ErrAdmissionShed) {
				s.shedCapacity(w, err.Error())
			} else {
				// The client hung up while queued; nothing to answer.
				s.cancelled.Add(1)
			}
			return "", nil, nil, false
		}
		// Double drain check: a drain begun while this request was
		// queued must not start new work.
		if s.draining.Load() {
			rel()
			if trow != nil {
				trow.NoteCapacityShed()
			}
			s.shedCapacity(w, "draining")
			return "", nil, nil, false
		}
		release = rel
	}
	return tenant, trow, release, true
}

// chargeJob meters a finished job's wall time and data-plane bytes to
// its tenant (the job itself was charged at admission).
func chargeJob(trow *meter.Tenant, job *pash.Job) {
	if trow == nil {
		return
	}
	st := job.Stats()
	trow.Charge(int64(st.WallSeconds*float64(time.Second)), st.Interp.BytesMoved)
}

// Session exposes the shared session (test hook).
func (s *Server) Session() *pash.Session { return s.sess }

// AttachWorkers turns the daemon into a distribution coordinator: the
// pool is attached to the shared session (every request's stateless
// chains shard across it), /metrics grows per-worker rows, and the
// /workers endpoints manage membership at runtime.
func (s *Server) AttachWorkers(pool *pash.WorkerPool) {
	s.pool = pool
	s.sess.UseWorkers(pool)
}

// StartProber launches the attached pool's background health prober
// (no-op without a pool) and returns its stop function. The prober is
// what makes membership self-healing: a dead worker drains out of
// planning after the hysteresis threshold and a restarted one rejoins,
// with no daemon restart and no /workers poke.
func (s *Server) StartProber(ctx context.Context) (stop func()) {
	if s.pool == nil {
		return func() {}
	}
	return s.pool.StartProber(ctx)
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/stream", s.handleStream)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/workers", s.handleWorkers)
	mux.HandleFunc("/workers/register", s.handleRegisterWorker)
	mux.HandleFunc("/workers/deregister", s.handleDeregisterWorker)
	mux.HandleFunc("/drain", s.handleDrain)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// handleWorkers lists the pool's per-worker meter rows. It only reads:
// the prober and observed deaths are what move a worker's state.
func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	if s.pool == nil {
		http.Error(w, "no worker pool attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.pool.Stats())
}

// handleRegisterWorker adds a worker to the pool: POST with url=<addr>
// (form or query). A newcomer is probed before admission, so a typo'd
// address is rejected instead of poisoning future plans; a known member
// is left to the prober (Pool.Join).
func (s *Server) handleRegisterWorker(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.pool == nil {
		http.Error(w, "no worker pool attached", http.StatusNotFound)
		return
	}
	url := strings.TrimSuffix(r.FormValue("url"), "/")
	if url == "" {
		http.Error(w, "missing url", http.StatusBadRequest)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()
	if err := s.pool.Join(ctx, url); err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	fmt.Fprintf(w, "registered %s\n", url)
}

// handleDeregisterWorker removes a worker from the pool: POST with
// url=<addr>. A draining worker calls this on itself so the coordinator
// stops planning onto it before the worker's listener goes away.
func (s *Server) handleDeregisterWorker(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.pool == nil {
		http.Error(w, "no worker pool attached", http.StatusNotFound)
		return
	}
	url := strings.TrimSuffix(r.FormValue("url"), "/")
	if url == "" {
		http.Error(w, "missing url", http.StatusBadRequest)
		return
	}
	s.pool.Remove(url)
	fmt.Fprintf(w, "deregistered %s\n", url)
}

// handleDrain begins a graceful shutdown: admission stops (new runs are
// shed with 503) while in-flight jobs finish. The process's main loop
// watches DrainRequested to close the listener and exit.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.Drain()
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintln(w, "draining")
}

// countingWriter streams stdout to the client, flushing eagerly so
// long-running scripts deliver output as they produce it. Writes block
// on ready until the handler has committed the response headers (the
// job goroutine may produce output before the handler reaches
// WriteHeader).
type countingWriter struct {
	w     http.ResponseWriter
	flush http.Flusher
	n     *atomic.Int64
	ready <-chan struct{}
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	<-cw.ready
	n, err := cw.w.Write(p)
	cw.n.Add(int64(n))
	if cw.flush != nil {
		cw.flush.Flush()
	}
	return n, err
}

// sizedBody is a request body that knows how much of it is left to read:
// the request's Content-Length less what the script has consumed. A
// background command may be reading while the next region is planned,
// hence the atomic.
type sizedBody struct {
	r    io.Reader
	left atomic.Int64
}

func (b *sizedBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.left.Add(int64(-n))
	return n, err
}

// Len is what the planner asks (core.RegionInput): bytes not yet read.
func (b *sizedBody) Len() int { return int(max(b.left.Load(), 0)) }

// requestOptions derives this request's planning options — the session
// defaults at the width it asks for (width= or X-Pash-Width). It returns
// nil when the request overrides nothing.
func requestOptions(sess *pash.Session, r *http.Request) (*pash.Options, error) {
	v := r.URL.Query().Get("width")
	if v == "" {
		v = r.Header.Get("X-Pash-Width")
	}
	if v == "" {
		return nil, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 || n > 256 {
		return nil, fmt.Errorf("invalid width %q (want 1..256)", v)
	}
	o := sess.Options()
	o.Width = n
	return &o, nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.serveJob(w, r, runRequest, nil)
}

// runRequest is what /run takes from a request. With the script in the
// query, the body is the script's stdin, with the size the request
// declared, so the planner can size the region that reads it (a chunked
// body declares none). With the script in the body, stdin is empty.
func runRequest(w http.ResponseWriter, r *http.Request) (string, io.Reader, []pash.StartOption, bool) {
	if script := r.URL.Query().Get("script"); script != "" {
		if r.ContentLength < 0 {
			return script, r.Body, nil, true
		}
		sb := &sizedBody{r: r.Body}
		sb.left.Store(r.ContentLength)
		return script, sb, nil, true
	}
	// Read one byte past the limit so an oversized script is rejected,
	// not truncated to a prefix that might still parse and run.
	const maxScript = 1 << 20
	body, err := io.ReadAll(io.LimitReader(r.Body, maxScript+1))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return "", nil, nil, false
	}
	if len(body) > maxScript {
		http.Error(w, "script exceeds 1 MiB", http.StatusRequestEntityTooLarge)
		return "", nil, nil, false
	}
	if len(body) == 0 {
		http.Error(w, "empty script", http.StatusBadRequest)
		return "", nil, nil, false
	}
	return string(body), nil, nil, true
}

// A jobRequest is what one endpoint takes from a request: the script,
// the job's stdin and the endpoint's own Start options. It answers a
// request it refuses itself (ok=false).
type jobRequest func(w http.ResponseWriter, r *http.Request) (script string, stdin io.Reader, opts []pash.StartOption, ok bool)

// serveJob is the request→job→trailers lifecycle /run and /stream
// share. Everything that can refuse the request — drain, the endpoint's
// own reading, width, tenant gates, admission, and Start's parse and
// plan — happens before the response commits, and every refusal after
// admission hands back the slot and the tenant's job. jobs, when set,
// counts the jobs started.
func (s *Server) serveJob(w http.ResponseWriter, r *http.Request, read jobRequest, jobs *atomic.Int64) {
	// A job may leave its stdin unread (echo hi), and a refusal reads
	// none. Under full duplex the server does not drain what is left
	// before it reads the next request on a keep-alive connection; the
	// drain it does when it closes the body afterwards starts a read
	// that races that next one (net/http panics "invalid concurrent
	// Body.Read call"). Closing the body while the handler still owns
	// the connection drains it first.
	defer r.Body.Close()
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.requests.Add(1)
	if s.draining.Load() {
		s.shedCapacity(w, "draining")
		return
	}
	s.active.Add(1)
	defer s.active.Add(-1)

	script, stdin, startOpts, ok := read(w, r)
	if !ok {
		return
	}
	if o, err := requestOptions(s.sess, r); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	} else if o != nil {
		startOpts = append(startOpts, pash.WithOptions(*o))
	}
	if !s.limits.Zero() {
		startOpts = append(startOpts, pash.WithLimits(s.limits))
	}

	// Admission happens here, before the response commits: tenant quota
	// and rate gates first (403/429 — governance refusals never touch
	// the scheduler queue, width pool, or plan cache), then scheduler
	// admission under the tenant's key (503 + derived Retry-After on
	// saturation). The job inherits the slot (WithAdmitted) instead of
	// admitting a second time; a stream holds it for its whole life, and
	// width tokens only while a window runs.
	tenant, trow, admitRelease, ok := s.admitFrontDoor(w, r)
	if !ok {
		return
	}
	startOpts = append(startOpts, pash.WithTenant(tenant))
	if admitRelease != nil {
		startOpts = append(startOpts, pash.WithAdmitted(admitRelease))
	}

	// The script reads the request body (stdin, or a stream's source)
	// while streaming the response body (stdout): full duplex, which
	// HTTP/1 handlers must opt into.
	http.NewResponseController(w).EnableFullDuplex()

	flusher, _ := w.(http.Flusher)
	ready := make(chan struct{})
	stdout := &countingWriter{w: w, flush: flusher, n: &s.bytesOut, ready: ready}

	// One job per request: r.Context() cancels it when the client
	// disconnects. Start parses the script and plans a stream
	// synchronously, so either failing still gets a clean 400 (nothing
	// streamed yet).
	job, err := s.sess.Start(r.Context(), script, pash.JobIO{Stdin: stdin, Stdout: stdout}, startOpts...)
	if err != nil {
		if admitRelease != nil {
			// The job never started, so it cannot release the slot.
			admitRelease()
		}
		if trow != nil {
			// Nor did it consume the tenant's quota reserve.
			trow.RefundJob()
		}
		s.failures.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if jobs != nil {
		jobs.Add(1)
	}

	// Trailers must be declared before the body starts streaming.
	w.Header().Set("Trailer", "X-Pash-Exit-Code, X-Pash-Error")
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		// Commit the response as chunked now: trailers only travel on
		// chunked responses, and a script may produce no output at all.
		flusher.Flush()
	}
	close(ready)

	code, err := job.Wait()
	chargeJob(trow, job)
	w.Header().Set("X-Pash-Exit-Code", fmt.Sprintf("%d", code))
	if err != nil {
		if r.Context().Err() != nil {
			s.cancelled.Add(1)
		} else {
			s.failures.Add(1)
		}
		w.Header().Set("X-Pash-Error", err.Error())
	}
}

// Metrics is the /metrics JSON document.
type Metrics struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Requests      int64   `json:"requests"`
	Active        int64   `json:"active"`
	Failures      int64   `json:"failures"`
	Cancelled     int64   `json:"cancelled"`
	// Sheds counts all refused requests across causes — quota (403),
	// rate (429), and capacity/drain (503); the per-tenant rows under
	// Meter break them out by cause. Draining reports drain mode.
	Sheds    int64 `json:"sheds"`
	Draining bool  `json:"draining"`
	BytesOut int64 `json:"bytes_out"`
	// Streams counts streaming jobs started via /stream (lifetime).
	Streams int64 `json:"streams,omitempty"`
	// Panics is the process-wide containment ring: panics absorbed and
	// converted into job-scoped errors.
	Panics pash.PanicStats `json:"panics"`
	// ThroughputBPS is lifetime bytes_out / uptime.
	ThroughputBPS float64              `json:"throughput_bps"`
	PlanCache     pash.PlanCacheStats  `json:"plan_cache"`
	Scheduler     *pash.SchedulerStats `json:"scheduler,omitempty"`
	// Meter carries the tenant governance rows: per-tenant admitted,
	// sheds by cause, usage vs quota, and commit counts (only when a
	// meter is attached).
	Meter *meter.Stats `json:"meter,omitempty"`
	// Jobs lists the in-flight jobs, one live row each.
	Jobs []pash.JobStats `json:"jobs,omitempty"`
	// Workers lists the distribution pool's per-worker meter rows (only
	// when the daemon coordinates a pool).
	Workers []pash.WorkerStats `json:"workers,omitempty"`
	// WorkerTransitions counts worker state transitions (down /
	// rejoined) — the prober's visible output.
	WorkerTransitions *dist.Transitions `json:"worker_transitions,omitempty"`
	// Wire aggregates the pool's wire-level meters across all workers:
	// chunk bytes vs bytes as transmitted (frame headers included, both
	// directions summed) and the fleet-wide plan-cache verdicts.
	Wire *WireTotals `json:"wire,omitempty"`
}

// WireTotals is the fleet-wide wire summary in /metrics.
type WireTotals struct {
	BytesRaw        int64 `json:"bytes_raw"`
	BytesWire       int64 `json:"bytes_wire"`
	PlanCacheHits   int64 `json:"plan_cache_hits"`
	PlanCacheMisses int64 `json:"plan_cache_misses"`
}

// Snapshot gathers the current metrics.
func (s *Server) Snapshot() Metrics {
	up := time.Since(s.start).Seconds()
	m := Metrics{
		UptimeSeconds: up,
		Requests:      s.requests.Load(),
		Active:        s.active.Load(),
		Failures:      s.failures.Load(),
		Cancelled:     s.cancelled.Load(),
		Sheds:         s.sheds.Load(),
		Draining:      s.draining.Load(),
		BytesOut:      s.bytesOut.Load(),
		Streams:       s.streamJobs.Load(),
		Panics:        pash.Panics(),
		PlanCache:     s.sess.PlanCacheStats(),
		Jobs:          s.sess.Jobs(),
	}
	if up > 0 {
		m.ThroughputBPS = float64(m.BytesOut) / up
	}
	if s.sched != nil {
		st := s.sched.Stats()
		m.Scheduler = &st
	}
	if s.mtr != nil {
		ms := s.mtr.Snapshot()
		m.Meter = &ms
	}
	if s.pool != nil {
		m.Workers = s.pool.Stats()
		t := s.pool.Transitions()
		m.WorkerTransitions = &t
		var wt WireTotals
		for _, ws := range m.Workers {
			wt.BytesRaw += ws.BytesOut + ws.BytesIn
			wt.BytesWire += ws.WireBytesOut + ws.WireBytesIn
			wt.PlanCacheHits += ws.PlanCacheHits
			wt.PlanCacheMisses += ws.PlanCacheMisses
		}
		m.Wire = &wt
	}
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Snapshot())
}
