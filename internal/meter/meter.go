// Package meter is the tenant front door's accounting plane: per-tenant
// quotas, rate limits, and usage metering that never touch a datastore
// on the hot path. It implements the VSA (vector–scalar accumulator)
// idiom — "commit information, not traffic":
//
//   - Scalar (S): the stable, persisted base — a tenant's quota and the
//     usage totals folded in by past commits.
//   - Vector (A_net): the in-memory net change since the last commit —
//     plain atomic counters for jobs run, wall-nanoseconds consumed, and
//     bytes moved through the data plane.
//   - Remaining = S − |A_net|, answered in O(1) from RAM with zero
//     allocations and zero I/O.
//
// A background committer folds each tenant's net delta into its base
// and appends the net effect to a pluggable Sink (a JSONL file to
// start). Commits are watermark-driven with hysteresis: a tenant
// commits when its uncommitted job count reaches the high watermark,
// then disarms until the accumulator drains back to half of it — so sustained load produces one commit per watermark
// crossing, not one write per request. A max-age backstop commits
// long-idle dirty tenants so the sink never lags unboundedly.
//
// Admission combines three gates, each O(1) and allocation-free:
//
//  1. Quota: an exact reserve-style charge — the job that would cross
//     the quota is denied, the one under it is admitted, even under
//     arbitrary concurrency.
//  2. Rate: a per-tenant GCRA token bucket (see bucket.go) with a
//     retry-after hint on denial.
//  3. Capacity: not this package's business — the runtime scheduler
//     sheds on machine saturation; callers report those sheds back
//     here (NoteCapacityShed) so per-tenant rows count all causes.
package meter

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Usage is one tenant's resource consumption in the three metered
// dimensions.
type Usage struct {
	Jobs      int64 `json:"jobs"`
	WallNanos int64 `json:"wall_ns"`
	Bytes     int64 `json:"bytes"`
}

func (u Usage) add(v Usage) Usage {
	return Usage{Jobs: u.Jobs + v.Jobs, WallNanos: u.WallNanos + v.WallNanos, Bytes: u.Bytes + v.Bytes}
}

// Cause classifies why an admission was refused.
type Cause string

const (
	// CauseNone means the admission passed.
	CauseNone Cause = ""
	// CauseQuota: the tenant's job quota is exhausted (HTTP 403).
	CauseQuota Cause = "quota"
	// CauseRate: the tenant's rate limit refused the request (HTTP 429).
	CauseRate Cause = "rate"
	// CauseCapacity: the machine shed the request (HTTP 503); reported
	// by the caller via NoteCapacityShed, never returned by Admit.
	CauseCapacity Cause = "capacity"
)

// Config tunes a Meter. The zero value meters usage with no quota and
// no rate limit, committing with the default watermarks.
type Config struct {
	// DefaultQuota is the job quota installed on first sight of a
	// tenant (0 = unlimited).
	DefaultQuota int64
	// Rate is the sustained per-tenant admission rate in jobs/second
	// (0 = unlimited); Burst is the bucket depth in jobs (default:
	// ceil(Rate), minimum 1).
	Rate  float64
	Burst int
	// HighWatermark is the uncommitted job count that triggers a
	// background commit (default 64); watermark commits re-arm once the
	// accumulator drains to half of it.
	HighWatermark int64
	// CommitInterval is the committer's tick (default 50ms);
	// CommitMaxAge commits any tenant whose oldest uncommitted charge
	// is older than this even below the watermark (default 1s).
	CommitInterval time.Duration
	CommitMaxAge   time.Duration
	// Sink receives committed net deltas (nil = fold in memory only).
	Sink Sink

	// now overrides the clock (tests).
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.HighWatermark <= 0 {
		c.HighWatermark = 64
	}
	if c.CommitInterval <= 0 {
		c.CommitInterval = 50 * time.Millisecond
	}
	if c.CommitMaxAge <= 0 {
		c.CommitMaxAge = time.Second
	}
	if c.Burst <= 0 {
		c.Burst = int(c.Rate + 0.999)
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Meter is the tenant registry plus the background committer. All
// admission-path methods are safe for concurrent use and allocation-
// free after a tenant's first sight.
type Meter struct {
	cfg Config

	mu      sync.RWMutex
	tenants map[string]*Tenant
	list    []*Tenant // committer's stable iteration snapshot

	commits  atomic.Int64 // commit records emitted (all tenants)
	sinkErrs atomic.Int64 // sink writes that failed

	wake     chan struct{} // watermark crossings nudge the committer
	stopOnce sync.Once
	stopCh   chan struct{}
	doneCh   chan struct{}
}

// New builds a meter. Call Start to run the background committer (a
// meter without one still answers quota/rate checks; deltas just
// accumulate until Flush).
func New(cfg Config) *Meter {
	return &Meter{
		cfg:     cfg.withDefaults(),
		tenants: map[string]*Tenant{},
		wake:    make(chan struct{}, 1),
		stopCh:  make(chan struct{}),
		doneCh:  make(chan struct{}),
	}
}

// Tenant is one tenant's accounting row: scalar base, net-delta
// accumulator, rate bucket, and shed counters.
type Tenant struct {
	name string
	m    *Meter

	// quota is the scalar quota base: the total jobs this tenant may
	// ever be admitted for (0 = unlimited). Set once, before the tenant
	// is published.
	quota int64

	// Committed base (S): usage folded in by past commits.
	cJobs, cWall, cBytes atomic.Int64
	// Net delta (A_net): uncommitted usage since the last commit.
	dJobs, dWall, dBytes atomic.Int64

	// armed gates watermark commits (hysteresis): a watermark commit
	// disarms; draining under the low watermark re-arms.
	armed atomic.Bool
	// dirtyNanos is the unix-nano timestamp of the oldest uncommitted
	// charge (0 = clean); the committer's max-age backstop reads it.
	dirtyNanos atomic.Int64

	bucket gcra

	admitted     atomic.Int64
	shedQuota    atomic.Int64
	shedRate     atomic.Int64
	shedCapacity atomic.Int64
	commitCount  atomic.Int64
}

// Tenant returns the accounting row for name, creating it on first
// sight (the only allocating path; subsequent lookups are a read-locked
// map hit).
func (m *Meter) Tenant(name string) *Tenant {
	m.mu.RLock()
	t := m.tenants[name]
	m.mu.RUnlock()
	if t != nil {
		return t
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if t = m.tenants[name]; t != nil {
		return t
	}
	t = &Tenant{name: name, m: m, quota: m.cfg.DefaultQuota}
	t.armed.Store(true)
	t.bucket.init(m.cfg.Rate, m.cfg.Burst)
	m.tenants[name] = t
	m.list = append(m.list, t)
	return t
}

// Name returns the tenant identifier.
func (t *Tenant) Name() string { return t.name }

// Admit runs the quota and rate gates for one job, charging the quota
// reserve on success. On refusal it returns the cause (quota before
// rate: a quota-dead tenant is told so without burning bucket slots)
// and, for rate sheds, how long until the bucket would admit again.
// O(1), allocation-free.
func (t *Tenant) Admit() (Cause, time.Duration) {
	if !t.tryChargeJob() {
		t.shedQuota.Add(1)
		return CauseQuota, 0
	}
	if ok, retry := t.bucket.allow(t.m.cfg.now().UnixNano()); !ok {
		// The reserve must not stick: the job never ran.
		t.dJobs.Add(-1)
		t.shedRate.Add(1)
		return CauseRate, retry
	}
	t.admitted.Add(1)
	t.noteCharge()
	return CauseNone, 0
}

// tryChargeJob reserves one job against the quota, exactly: the add
// happens first and is rolled back on breach, so two racing admissions
// at remaining=1 can never both pass. The committer folds delta into
// base add-first (see fold), which can only over-count transiently —
// denial on a stale read is conservative, over-admission is impossible.
func (t *Tenant) tryChargeJob() bool {
	q := t.quota
	if q <= 0 {
		t.dJobs.Add(1)
		return true
	}
	n := t.dJobs.Add(1)
	if t.cJobs.Load()+n > q {
		t.dJobs.Add(-1)
		return false
	}
	return true
}

// RefundJob returns one admitted job's quota reserve — the caller
// admitted it here but it never ran (capacity shed, drain race, failed
// start). Counterpart of a successful Admit.
func (t *Tenant) RefundJob() {
	t.dJobs.Add(-1)
	t.admitted.Add(-1)
}

// NoteCapacityShed records a machine-level (scheduler/drain) shed for
// this tenant and refunds the job reserve Admit charged.
func (t *Tenant) NoteCapacityShed() {
	t.RefundJob()
	t.shedCapacity.Add(1)
}

// Charge meters a finished job's wall time and data-plane bytes (the
// job itself was charged at admission). O(1), allocation-free.
func (t *Tenant) Charge(wallNanos, bytes int64) {
	if wallNanos > 0 {
		t.dWall.Add(wallNanos)
	}
	if bytes > 0 {
		t.dBytes.Add(bytes)
	}
	t.noteCharge()
}

// noteCharge marks the accumulator dirty and nudges the committer when
// the high watermark is crossed while armed.
func (t *Tenant) noteCharge() {
	if t.dirtyNanos.Load() == 0 {
		t.dirtyNanos.CompareAndSwap(0, t.m.cfg.now().UnixNano())
	}
	if t.armed.Load() && t.dJobs.Load() >= t.m.cfg.HighWatermark {
		select {
		case t.m.wake <- struct{}{}:
		default:
		}
	}
}

// Remaining answers "how many jobs may this tenant still run?" in O(1)
// from RAM: quota base minus committed minus uncommitted. limited is
// false (and n -1) for unlimited tenants.
func (t *Tenant) Remaining() (n int64, limited bool) {
	q := t.quota
	if q <= 0 {
		return -1, false
	}
	n = q - t.cJobs.Load() - t.dJobs.Load()
	if n < 0 {
		n = 0
	}
	return n, true
}

// Used reports the tenant's total usage: committed base plus live
// delta.
func (t *Tenant) Used() Usage {
	return Usage{
		Jobs:      t.cJobs.Load() + t.dJobs.Load(),
		WallNanos: t.cWall.Load() + t.dWall.Load(),
		Bytes:     t.cBytes.Load() + t.dBytes.Load(),
	}
}

// pending snapshots the uncommitted net delta.
func (t *Tenant) pending() Usage {
	return Usage{Jobs: t.dJobs.Load(), WallNanos: t.dWall.Load(), Bytes: t.dBytes.Load()}
}

// fold moves the net delta into the committed base and returns the
// committed amount. Base grows before delta shrinks, so a concurrent
// quota check sees at worst a transiently inflated total (conservative
// denial), never a deflated one (over-admission).
func (t *Tenant) fold(now time.Time) CommitRecord {
	t.dirtyNanos.Store(0)
	dj, dw, db := t.dJobs.Load(), t.dWall.Load(), t.dBytes.Load()
	t.cJobs.Add(dj)
	t.dJobs.Add(-dj)
	t.cWall.Add(dw)
	t.dWall.Add(-dw)
	t.cBytes.Add(db)
	t.dBytes.Add(-db)
	t.commitCount.Add(1)
	return CommitRecord{
		Time:   now,
		Tenant: t.name,
		Net:    Usage{Jobs: dj, WallNanos: dw, Bytes: db},
		Total:  Usage{Jobs: t.cJobs.Load(), WallNanos: t.cWall.Load(), Bytes: t.cBytes.Load()},
	}
}

// CommitTick runs one committer pass at the given time, returning the
// number of tenants committed. Exported for deterministic tests; the
// background loop calls it on every tick and watermark nudge.
//
// Per tenant: re-arm when the accumulator has drained under the low
// watermark; commit when (armed and |A_net| ≥ high watermark) — which
// disarms — or when the oldest uncommitted charge exceeds the max age.
func (m *Meter) CommitTick(now time.Time) int {
	m.mu.RLock()
	list := m.list
	m.mu.RUnlock()
	var recs []CommitRecord
	for _, t := range list {
		mag := t.dJobs.Load()
		if mag < 0 {
			mag = -mag
		}
		if !t.armed.Load() && mag <= m.cfg.HighWatermark/2 {
			t.armed.Store(true)
		}
		watermark := t.armed.Load() && mag >= m.cfg.HighWatermark
		dirty := t.dirtyNanos.Load()
		aged := dirty != 0 && now.UnixNano()-dirty >= int64(m.cfg.CommitMaxAge)
		if !watermark && !aged {
			continue
		}
		if watermark {
			t.armed.Store(false)
		}
		rec := t.fold(now)
		if rec.Net == (Usage{}) {
			continue
		}
		recs = append(recs, rec)
	}
	m.emit(recs)
	return len(recs)
}

// Flush commits every tenant's outstanding delta immediately,
// regardless of watermarks — the drain/shutdown path.
func (m *Meter) Flush() {
	m.mu.RLock()
	list := m.list
	m.mu.RUnlock()
	now := m.cfg.now()
	var recs []CommitRecord
	for _, t := range list {
		rec := t.fold(now)
		if rec.Net == (Usage{}) {
			continue
		}
		recs = append(recs, rec)
	}
	m.emit(recs)
}

func (m *Meter) emit(recs []CommitRecord) {
	if len(recs) == 0 {
		return
	}
	m.commits.Add(int64(len(recs)))
	if m.cfg.Sink == nil {
		return
	}
	if err := m.cfg.Sink.Commit(recs); err != nil {
		m.sinkErrs.Add(1)
	}
}

// Start launches the background committer and returns its stop
// function. Stop flushes outstanding deltas before returning.
func (m *Meter) Start() (stop func()) {
	go func() {
		defer close(m.doneCh)
		tick := time.NewTicker(m.cfg.CommitInterval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				m.CommitTick(m.cfg.now())
			case <-m.wake:
				m.CommitTick(m.cfg.now())
			case <-m.stopCh:
				m.Flush()
				return
			}
		}
	}()
	return func() {
		m.stopOnce.Do(func() { close(m.stopCh) })
		<-m.doneCh
	}
}

// TenantStats is one per-tenant metrics row.
type TenantStats struct {
	Name string `json:"tenant"`
	// Quota is the job quota (0 = unlimited); Remaining is quota minus
	// total usage (-1 = unlimited).
	Quota     int64 `json:"quota,omitempty"`
	Remaining int64 `json:"remaining"`
	// Used is committed base + uncommitted delta; Pending is the
	// uncommitted delta alone (what the next commit will persist).
	Used    Usage `json:"used"`
	Pending Usage `json:"pending"`
	// Admitted counts jobs past the quota and rate gates (refunded ones
	// excluded); the Shed* fields count refusals by cause.
	Admitted     int64 `json:"admitted"`
	ShedQuota    int64 `json:"shed_quota"`
	ShedRate     int64 `json:"shed_rate"`
	ShedCapacity int64 `json:"shed_capacity"`
	// Commits counts background commits of this tenant's net effect.
	Commits int64 `json:"commits"`
}

// Stats snapshots one tenant's row.
func (t *Tenant) Stats() TenantStats {
	rem, _ := t.Remaining()
	return TenantStats{
		Name:         t.name,
		Quota:        t.quota,
		Remaining:    rem,
		Used:         t.Used(),
		Pending:      t.pending(),
		Admitted:     t.admitted.Load(),
		ShedQuota:    t.shedQuota.Load(),
		ShedRate:     t.shedRate.Load(),
		ShedCapacity: t.shedCapacity.Load(),
		Commits:      t.commitCount.Load(),
	}
}

// Stats is the meter-wide snapshot: per-tenant rows (sorted by name)
// plus committer totals.
type Stats struct {
	Tenants    []TenantStats `json:"tenants,omitempty"`
	Commits    int64         `json:"commits"`
	SinkErrors int64         `json:"sink_errors,omitempty"`
}

// Snapshot gathers the meter-wide stats.
func (m *Meter) Snapshot() Stats {
	m.mu.RLock()
	list := m.list
	m.mu.RUnlock()
	st := Stats{Commits: m.commits.Load(), SinkErrors: m.sinkErrs.Load()}
	for _, t := range list {
		st.Tenants = append(st.Tenants, t.Stats())
	}
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Name < st.Tenants[j].Name })
	return st
}
