package dist

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// Dispatch-robustness defaults. Retry is capped exponential backoff
// against the same worker for pre-stream (retryable) failures; the
// chunk timeout arms the per-stream inactivity watchdog that turns a
// silent partition into a detected mid-stream death.
const (
	defaultRetryAttempts = 3
	defaultRetryBase     = 50 * time.Millisecond
	defaultRetryMax      = 2 * time.Second
	defaultChunkTimeout  = 60 * time.Second
)

// workerState is the per-worker position in the failover state
// machine: healthy → down → rejoining → healthy.
type workerState int

const (
	// stateHealthy: in the dispatch set, plans assign shards to it.
	stateHealthy workerState = iota
	// stateDown: probes or a mid-stream death marked it dead; excluded
	// from planning and failover until the prober rejoins it.
	stateDown
	// stateRejoining: a down worker answering probes again, waiting out
	// the prober's consecutive-success threshold before readmission.
	stateRejoining
)

func (s workerState) String() string {
	switch s {
	case stateHealthy:
		return "healthy"
	case stateDown:
		return "down"
	case stateRejoining:
		return "rejoining"
	}
	return "unknown"
}

// alive reports whether the worker can carry traffic.
func (s workerState) alive() bool { return s == stateHealthy }

// Pool is the coordinator's view of the worker fleet: membership,
// health, per-worker meters, and the ExecRemote client the runtime
// calls for every KindRemote node. All methods are safe for concurrent
// use. It implements core.WorkerPool.
type Pool struct {
	mu      sync.Mutex
	workers []*poolWorker

	// sharedFS declares that workers can open the coordinator's files
	// by the same paths, enabling file-range shards (see dfg.Distribute).
	sharedFS bool

	// fp caches the membership fingerprint: planKey consults it on
	// every region (cache hits included), so it must not re-sort and
	// re-build a string per lookup. Membership mutations clear it.
	fp      string
	fpValid bool

	tune tuning

	// faults is the injection layer (nil in production); consulted on
	// every dial.
	faults *Injector

	// trans counts worker state transitions, surfaced in /metrics.
	trans Transitions

	// probing guards against double StartProber; proberCfg sets its
	// interval (see prober.go).
	probing   bool
	proberCfg ProberConfig
}

// tuning is the dispatch-robustness configuration: the
// dial-plus-handshake deadline, the pre-stream retry policy, and the
// inactivity watchdog threshold (0 disables).
type tuning struct {
	dialTimeout   time.Duration
	retryAttempts int
	retryBase     time.Duration
	retryMax      time.Duration
	chunkTimeout  time.Duration
}

// tuned snapshots the current tuning.
func (p *Pool) tuned() tuning {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tune
}

// poolWorker is one member plus its lifetime meters and health-machine
// position.
type poolWorker struct {
	name  string
	state workerState
	stats WorkerStats

	// Prober hysteresis streaks.
	okStreak   int
	failStreak int
}

// WorkerStats is one worker's coordinator-side meter row, surfaced in
// pash-serve's /metrics.
type WorkerStats struct {
	Name string `json:"name"`
	// Healthy means the worker can carry traffic; State is the precise
	// failover-machine position (healthy, down or rejoining).
	Healthy  bool   `json:"healthy"`
	State    string `json:"state"`
	Requests int64  `json:"requests"`
	Failures int64  `json:"failures"`
	// Retries counts pre-stream dispatch attempts that were retried
	// against the same worker after a transient error.
	Retries int64 `json:"retries"`
	// ChunksOut/BytesOut count traffic shipped to the worker;
	// ChunksIn/BytesIn count results received from it.
	ChunksOut int64 `json:"chunks_out"`
	BytesOut  int64 `json:"bytes_out"`
	ChunksIn  int64 `json:"chunks_in"`
	BytesIn   int64 `json:"bytes_in"`
	// Redispatched counts the shards assigned to this worker that fell
	// to the coordinator — it died mid-stream, or was already down, and
	// no surviving peer was left to take them.
	Redispatched int64 `json:"redispatched"`
	// RedispatchedRemote counts the shards a surviving worker took over
	// instead.
	RedispatchedRemote int64 `json:"redispatched_remote"`
	// WireBytesOut/WireBytesIn count the same traffic as transmitted:
	// each chunk plus its 8-byte frame header.
	WireBytesOut int64 `json:"bytes_out_wire"`
	WireBytesIn  int64 `json:"bytes_in_wire"`
	// PlanCacheHits/PlanCacheMisses mirror the worker's plan-cache
	// verdicts (the X-Pash-Plan-Cache response header) as seen by this
	// coordinator.
	PlanCacheHits   int64 `json:"plan_cache_hits"`
	PlanCacheMisses int64 `json:"plan_cache_misses"`
}

// Transitions counts the pool's worker state transitions — the
// prober's visible output. A healthy fleet holds them at zero; a
// flapping worker moves them slowly (hysteresis), never per-probe.
type Transitions struct {
	Down     int64 `json:"down"`
	Rejoined int64 `json:"rejoined"`
}

// NewPool builds a pool over the given worker addresses. An address is
// "host:port", "http://host:port", or "unix:/path/to.sock".
func NewPool(workers ...string) *Pool {
	p := &Pool{proberCfg: DefaultProberConfig(), tune: tuning{
		dialTimeout:   5 * time.Second,
		retryAttempts: defaultRetryAttempts,
		retryBase:     defaultRetryBase,
		retryMax:      defaultRetryMax,
		chunkTimeout:  defaultChunkTimeout,
	}}
	for _, w := range workers {
		p.Add(w)
	}
	return p
}

// SetSharedFS declares (or revokes) the shared-filesystem contract that
// enables file-range shards.
func (p *Pool) SetSharedFS(shared bool) {
	p.mu.Lock()
	p.sharedFS = shared
	p.fpValid = false
	p.mu.Unlock()
}

// SetRetryPolicy overrides the pre-stream dispatch retry policy:
// attempts tries per worker with capped exponential backoff from base
// to max between tries.
func (p *Pool) SetRetryPolicy(attempts int, base, max time.Duration) {
	p.mu.Lock()
	if attempts > 0 {
		p.tune.retryAttempts = attempts
	}
	if base > 0 {
		p.tune.retryBase = base
	}
	if max > 0 {
		p.tune.retryMax = max
	}
	p.mu.Unlock()
}

// SetChunkTimeout arms the per-stream inactivity watchdog: a live
// stream that moves no frame in either direction for d is treated as a
// mid-stream worker death (the partition shape). 0 disables.
func (p *Pool) SetChunkTimeout(d time.Duration) {
	p.mu.Lock()
	p.tune.chunkTimeout = d
	p.mu.Unlock()
}

// SetDialTimeout bounds dialing and the frame-0 handshake.
func (p *Pool) SetDialTimeout(d time.Duration) {
	p.mu.Lock()
	if d > 0 {
		p.tune.dialTimeout = d
	}
	p.mu.Unlock()
}

// SetFaultInjector installs (or, with nil, removes) the fault-injection
// layer. Dev/test only: every subsequent dial consults the injector.
func (p *Pool) SetFaultInjector(inj *Injector) {
	p.mu.Lock()
	p.faults = inj
	p.mu.Unlock()
}

// Add registers a worker (idempotent); new workers start healthy, and a
// known member is left as it is: only the prober and observed deaths
// move its state. Addresses are normalized (surrounding whitespace and a
// trailing slash stripped), and an empty address is ignored, so callers
// can feed Add the raw pieces of a comma-separated flag directly.
func (p *Pool) Add(name string) {
	name = normalizeAddr(name)
	if name == "" {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.findLocked(name) != nil {
		return
	}
	p.fpValid = false
	p.workers = append(p.workers, &poolWorker{name: name, state: stateHealthy})
}

// Join admits a worker at run time. A newcomer is probed once and added
// only if it answers; a known member is not probed, and its state stays
// the prober's to move, so re-registering a down worker readmits it no
// sooner than upAfter answered probes.
func (p *Pool) Join(ctx context.Context, name string) error {
	name = normalizeAddr(name)
	if name == "" {
		return errors.New("dist: empty worker address")
	}
	p.mu.Lock()
	known := p.findLocked(name) != nil
	p.mu.Unlock()
	if known {
		return nil
	}
	if !p.probe(ctx, name) {
		return fmt.Errorf("dist: worker %s failed its health probe", name)
	}
	p.Add(name)
	return nil
}

func normalizeAddr(name string) string {
	return strings.TrimSuffix(strings.TrimSpace(name), "/")
}

// findLocked returns the named member, or nil. Callers hold p.mu.
func (p *Pool) findLocked(name string) *poolWorker {
	for _, w := range p.workers {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Remove drops a worker from the pool entirely.
func (p *Pool) Remove(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fpValid = false
	p.workers = slices.DeleteFunc(p.workers, func(w *poolWorker) bool { return w.name == name })
}

// markDown flags a worker down after a transport failure; future plans
// avoid it (the fingerprint changes) and in-flight dispatch re-routes
// per stream. Mid-stream deaths bypass the prober's hysteresis: an
// observed transport failure is definitive, unlike a missed probe.
func (p *Pool) markDown(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if w := p.findLocked(name); w != nil {
		p.markDownLocked(w)
	}
}

// markDownLocked moves one member to down, counting the transition and
// bumping the fingerprint only when the eligible set actually shrinks.
// Callers hold p.mu.
func (p *Pool) markDownLocked(w *poolWorker) {
	if w.state == stateDown {
		return
	}
	if w.state.alive() {
		p.fpValid = false
	}
	w.state = stateDown
	w.okStreak, w.failStreak = 0, 0
	p.trans.Down++
}

// eligibleLocked lists the workers new plans may target — the healthy
// set — in registration order. Callers hold p.mu.
func (p *Pool) eligibleLocked() []string {
	var healthy []string
	for _, w := range p.workers {
		if w.state.alive() {
			healthy = append(healthy, w.name)
		}
	}
	return healthy
}

// memberNames lists every member, whatever its state.
func (p *Pool) memberNames() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	names := make([]string, len(p.workers))
	for i, w := range p.workers {
		names[i] = w.name
	}
	return names
}

// WorkerNames lists the dispatch-eligible workers in registration
// order — the order dfg.Distribute assigns shards in.
func (p *Pool) WorkerNames() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.eligibleLocked()
}

// SharedFS reports whether file-range shards are enabled.
func (p *Pool) SharedFS() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sharedFS
}

// Fingerprint canonically identifies the membership epoch plans were
// built against; the plan cache key embeds it, so membership changes
// invalidate cached distributed plans by construction. The string is
// computed under one lock (an atomic snapshot of names + sharedFS) and
// cached until the next membership mutation or real state transition —
// planKey calls this on every region, hits included, and probes that
// confirm the status quo must not bump it.
func (p *Pool) Fingerprint() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fpValid {
		return p.fp
	}
	sorted := append([]string(nil), p.eligibleLocked()...)
	sort.Strings(sorted)
	var b strings.Builder
	if p.sharedFS {
		b.WriteString("fs|")
	}
	for _, n := range sorted {
		fmt.Fprintf(&b, "%d:%s|", len(n), n)
	}
	p.fp = b.String()
	p.fpValid = true
	return p.fp
}

// Stats snapshots the per-worker meter rows.
func (p *Pool) Stats() []WorkerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]WorkerStats, 0, len(p.workers))
	for _, w := range p.workers {
		st := w.stats
		st.Name = w.name
		st.Healthy = w.state.alive()
		st.State = w.state.String()
		out = append(out, st)
	}
	return out
}

// Transitions snapshots the worker state-transition counters.
func (p *Pool) Transitions() Transitions {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.trans
}

// note applies a meter update to one worker's row.
func (p *Pool) note(name string, fn func(*WorkerStats)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if w := p.findLocked(name); w != nil {
		fn(&w.stats)
	}
}

func (p *Pool) probe(ctx context.Context, name string) bool {
	conn, err := p.dial(ctx, name)
	if err != nil {
		return false
	}
	defer conn.Close()
	// A worker that accepts but never answers (wedged, or mid-startup)
	// must fail the probe, not hang it: bound the whole exchange.
	deadline := time.Now().Add(p.tuned().dialTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	conn.SetDeadline(deadline)
	fmt.Fprintf(conn, "GET /healthz HTTP/1.1\r\nHost: pash-worker\r\nConnection: close\r\n\r\n")
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// dial opens a connection to a worker address, routing through the
// fault injector when one is installed.
func (p *Pool) dial(ctx context.Context, name string) (net.Conn, error) {
	p.mu.Lock()
	inj := p.faults
	p.mu.Unlock()
	if inj != nil {
		conn, handled, err := inj.dial(name, func() (net.Conn, error) {
			return p.rawDial(ctx, name)
		})
		if handled {
			return conn, err
		}
	}
	return p.rawDial(ctx, name)
}

func (p *Pool) rawDial(ctx context.Context, name string) (net.Conn, error) {
	d := net.Dialer{Timeout: p.tuned().dialTimeout}
	if path, ok := strings.CutPrefix(name, "unix:"); ok {
		return d.DialContext(ctx, "unix", path)
	}
	addr := strings.TrimPrefix(name, "http://")
	return d.DialContext(ctx, "tcp", addr)
}

// backoffWait sleeps the capped exponential backoff for the given
// attempt number, aborting early on context cancellation.
func (p *Pool) backoffWait(ctx context.Context, attempt int) error {
	t := p.tuned()
	d := t.retryBase << attempt
	if d > t.retryMax || d <= 0 {
		d = t.retryMax
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// alive reports whether a worker can carry traffic.
func (p *Pool) alive(name string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	w := p.findLocked(name)
	return w != nil && w.state.alive()
}

// pickSurvivor chooses a re-dispatch target outside the tried set: the
// first healthy one, "" when the alive set is exhausted.
func (p *Pool) pickSurvivor(tried map[string]bool) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, w := range p.workers {
		if !tried[w.name] && w.state.alive() {
			return w.name
		}
	}
	return ""
}
