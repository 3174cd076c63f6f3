package runtime

import (
	"context"
	"errors"
	"fmt"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Scheduler is the shared control plane for a multi-tenant process: N
// concurrent script executions share one machine instead of each
// claiming its configured Width worth of goroutines. It implements two
// separate disciplines:
//
//   - Script admission (Admit/AdmitKey/release): a bounded slot pool
//     over whole script executions. Admit blocks — this is where
//     backpressure on a saturated machine lives. Waiters queue per
//     admission key (the tenant, for a daemon), and freed slots are
//     granted round-robin across the keys with queued work: a burst
//     from one tenant lengthens only its own queue, never the head-of-
//     line wait of a quiet tenant. Only *top-level* entry points (a
//     Session.Run, a daemon request) admit; nested interpreters spawned
//     for command substitution or compound-pipeline stages never do, so
//     admission cannot deadlock against a region the same script is
//     already running.
//
//   - Width tokens (AcquireWidth/release): a pool of data-parallelism
//     tokens sized to the machine. Every region is entitled to run
//     sequentially (width 1) without asking; tokens only pay for the
//     *extra* replicas beyond the first. AcquireWidth never blocks — a
//     region that wants width 8 on a busy machine degrades toward
//     sequential rather than queueing, which keeps pipelines of
//     concurrently-executing stages deadlock-free by construction.
//     A grant lives as long as one region: a stream takes one per
//     window, so between windows it holds none.
type Scheduler struct {
	tokens chan struct{} // extra-replica width tokens

	totalTokens int

	// Admission state: an explicit slot count plus per-key FIFO queues,
	// all under amu. ring lists the keys that currently have waiters in
	// round-robin order; rrIdx is the next key to grant to.
	amu        sync.Mutex
	free       int
	totalSlots int
	queues     map[string][]*admitWaiter
	ring       []string
	rrIdx      int

	// Admission-queue bounds (load shedding). queueLimit caps how many
	// admissions may be blocked waiting at once; queueWait caps how long
	// any one admission may wait. Zero means unbounded (the historical
	// block-forever behaviour). Set before sharing the scheduler.
	queueLimit int
	queueWait  time.Duration

	admitted   atomic.Int64 // scripts admitted so far
	waited     atomic.Int64 // admissions that had to block
	waitNanos  atomic.Int64 // total time spent blocked in Admit
	active     atomic.Int64 // scripts currently admitted
	queued     atomic.Int64 // admissions currently blocked waiting
	sheds      atomic.Int64 // admissions refused by the queue bounds
	holdEWMA   atomic.Int64 // smoothed slot hold time, ns (alpha 1/8)
	tokensOut  atomic.Int64 // width tokens currently held
	widthAsks  atomic.Int64 // AcquireWidth calls
	widthTrims atomic.Int64 // AcquireWidth calls granted less than asked
}

// admitWaiter is one blocked admission. granted is set under amu before
// ready is closed, so a cancelling waiter can tell "I hold a slot I
// must hand back" from "I am still in the queue".
type admitWaiter struct {
	key     string
	ready   chan struct{}
	granted bool
}

// ErrAdmissionShed is the sentinel every shed admission matches: the
// scheduler refused to queue the script because the admission queue was
// full or the wait deadline passed. Callers (the daemon) translate it
// into backpressure toward the client (HTTP 503 + Retry-After) instead
// of letting queued work pile up without bound.
var ErrAdmissionShed = errors.New("runtime: admission shed")

// ShedError reports why an admission was shed. It matches
// ErrAdmissionShed under errors.Is.
type ShedError struct {
	// Reason is "queue-full" or "deadline".
	Reason string
	// QueueDepth is the number of waiters at shed time.
	QueueDepth int
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("runtime: admission shed (%s, %d queued)", e.Reason, e.QueueDepth)
}

// Is makes every ShedError match the ErrAdmissionShed sentinel.
func (e *ShedError) Is(target error) bool { return target == ErrAdmissionShed }

// NewScheduler builds a scheduler with the given width-token pool size;
// tokens <= 0 sizes the pool to the machine (GOMAXPROCS). Script
// admission slots default to the same count; adjust with SetMaxScripts
// before sharing the scheduler.
func NewScheduler(tokens int) *Scheduler {
	if tokens <= 0 {
		tokens = stdruntime.GOMAXPROCS(0)
	}
	s := &Scheduler{
		tokens:      make(chan struct{}, tokens),
		free:        tokens,
		totalSlots:  tokens,
		totalTokens: tokens,
		queues:      map[string][]*admitWaiter{},
	}
	for i := 0; i < tokens; i++ {
		s.tokens <- struct{}{}
	}
	return s
}

// SetMaxScripts resizes the script-admission slot pool. It must be
// called before the scheduler is shared with runners.
func (s *Scheduler) SetMaxScripts(n int) {
	if n <= 0 {
		n = s.totalTokens
	}
	s.amu.Lock()
	s.free = n
	s.totalSlots = n
	s.amu.Unlock()
}

// SetAdmissionQueue bounds the admission queue: at most limit
// admissions may wait for a slot at once, and none for longer than
// maxWait. Excess or expired admissions fail fast with a *ShedError
// instead of queueing. Zero disables the respective bound. Must be
// called before the scheduler is shared with runners.
func (s *Scheduler) SetAdmissionQueue(limit int, maxWait time.Duration) {
	s.queueLimit = limit
	s.queueWait = maxWait
}

// Admit blocks until a script slot is free (or ctx is done, or the
// admission-queue bounds shed the request) and returns a release
// function. Callers must be top-level script executions. Admissions
// with no identity share one anonymous queue key.
func (s *Scheduler) Admit(ctx context.Context) (func(), error) {
	return s.AdmitKey(ctx, "")
}

// AdmitKey is Admit with an admission key — the tenant, for a daemon.
// Waiters queue FIFO within their key and freed slots rotate round-
// robin across keys with queued work, so one key's backlog cannot
// impose head-of-line delay on another's.
func (s *Scheduler) AdmitKey(ctx context.Context, key string) (func(), error) {
	start := time.Now()
	s.amu.Lock()
	if s.free > 0 && len(s.ring) == 0 {
		s.free--
		s.amu.Unlock()
		return s.finishGrant(ctx)
	}
	if lim := s.queueLimit; lim > 0 && int(s.queued.Load()) >= lim {
		depth := int(s.queued.Load())
		s.amu.Unlock()
		s.sheds.Add(1)
		return nil, &ShedError{Reason: "queue-full", QueueDepth: depth}
	}
	w := &admitWaiter{key: key, ready: make(chan struct{})}
	s.enqueueLocked(w)
	s.amu.Unlock()
	s.waited.Add(1)

	wctx := ctx
	if s.queueWait > 0 {
		var cancel context.CancelFunc
		wctx, cancel = context.WithTimeout(ctx, s.queueWait)
		defer cancel()
	}
	select {
	case <-w.ready:
		s.waitNanos.Add(int64(time.Since(start)))
		return s.finishGrant(ctx)
	case <-wctx.Done():
		s.amu.Lock()
		if w.granted {
			// The grant raced the cancellation: the slot is ours and must
			// go straight back to the next waiter (or the free pool), not
			// ride through a doomed execution.
			s.grantNextLocked()
			s.amu.Unlock()
		} else {
			s.dequeueLocked(w)
			s.amu.Unlock()
		}
		if ctx.Err() == nil {
			// The queue-wait deadline expired, not the caller: shed.
			s.sheds.Add(1)
			return nil, &ShedError{Reason: "deadline", QueueDepth: int(s.queued.Load())}
		}
		return nil, fmt.Errorf("runtime: admission: %w", ctx.Err())
	}
}

// finishGrant finalizes a granted slot: a caller already cancelled
// must hand it straight back, everyone else gets the release closure.
// (The slot itself is owned by the caller at this point — no lock held.)
func (s *Scheduler) finishGrant(ctx context.Context) (func(), error) {
	if err := ctx.Err(); err != nil {
		s.amu.Lock()
		s.grantNextLocked()
		s.amu.Unlock()
		return nil, fmt.Errorf("runtime: admission: %w", err)
	}
	s.admitted.Add(1)
	s.active.Add(1)
	held := time.Now()
	var once sync.Once
	return func() {
		once.Do(func() {
			s.active.Add(-1)
			s.noteHold(time.Since(held))
			s.amu.Lock()
			s.grantNextLocked()
			s.amu.Unlock()
		})
	}, nil
}

// enqueueLocked appends a waiter to its key's FIFO, registering the key
// in the round-robin ring on first use. Callers hold amu.
func (s *Scheduler) enqueueLocked(w *admitWaiter) {
	if len(s.queues[w.key]) == 0 {
		s.ring = append(s.ring, w.key)
	}
	s.queues[w.key] = append(s.queues[w.key], w)
	s.queued.Add(1)
}

// dequeueLocked withdraws a still-waiting waiter (cancellation path).
// Callers hold amu.
func (s *Scheduler) dequeueLocked(w *admitWaiter) {
	q := s.queues[w.key]
	for i, cand := range q {
		if cand == w {
			q = append(q[:i], q[i+1:]...)
			break
		}
	}
	if len(q) == 0 {
		delete(s.queues, w.key)
		s.dropRingKeyLocked(w.key)
	} else {
		s.queues[w.key] = q
	}
	s.queued.Add(-1)
}

// dropRingKeyLocked removes a key from the round-robin ring, keeping
// rrIdx pointed at the same next key. Callers hold amu.
func (s *Scheduler) dropRingKeyLocked(key string) {
	for i, k := range s.ring {
		if k == key {
			s.ring = append(s.ring[:i], s.ring[i+1:]...)
			if i < s.rrIdx {
				s.rrIdx--
			}
			return
		}
	}
}

// grantNextLocked hands a freed slot to the head of the next key's
// queue in round-robin order, or banks it in the free pool when nobody
// waits. Callers hold amu.
func (s *Scheduler) grantNextLocked() {
	if len(s.ring) == 0 {
		s.free++
		return
	}
	if s.rrIdx >= len(s.ring) {
		s.rrIdx = 0
	}
	key := s.ring[s.rrIdx]
	q := s.queues[key]
	w := q[0]
	if len(q) == 1 {
		delete(s.queues, key)
		s.ring = append(s.ring[:s.rrIdx], s.ring[s.rrIdx+1:]...)
		// rrIdx already points at the next key.
	} else {
		s.queues[key] = q[1:]
		s.rrIdx++
	}
	s.queued.Add(-1)
	w.granted = true
	close(w.ready)
}

// noteHold folds one finished script's slot hold time into the EWMA
// that EstimateWait consumes (alpha 1/8).
func (s *Scheduler) noteHold(d time.Duration) {
	for {
		old := s.holdEWMA.Load()
		var next int64
		if old == 0 {
			next = int64(d)
		} else {
			next = old + (int64(d)-old)/8
		}
		if s.holdEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}

// EstimateWait predicts how long a new admission would wait right now:
// the work ahead of it (queued waiters plus running scripts) times the
// smoothed slot hold time, divided across the slot pool, clamped to
// [1s, 2min] so shed responses always carry a sane Retry-After hint.
func (s *Scheduler) EstimateWait() time.Duration {
	const floor, ceil = time.Second, 2 * time.Minute
	hold := time.Duration(s.holdEWMA.Load())
	if hold <= 0 {
		return floor
	}
	ahead := s.queued.Load() + s.active.Load()
	slots := int64(s.totalSlots)
	if slots < 1 {
		slots = 1
	}
	est := hold * time.Duration(ahead+1) / time.Duration(slots)
	if est < floor {
		return floor
	}
	if est > ceil {
		return ceil
	}
	return est
}

// AcquireWidth grants an effective parallelism width for one region:
// 1 (always, immediately) plus up to want-1 extra tokens from the pool,
// never blocking. The release function returns the extras.
func (s *Scheduler) AcquireWidth(want int) (int, func()) {
	s.widthAsks.Add(1)
	if want < 1 {
		want = 1
	}
	extra := 0
grab:
	for extra < want-1 {
		select {
		case <-s.tokens:
			extra++
		default:
			break grab
		}
	}
	if 1+extra < want {
		s.widthTrims.Add(1)
	}
	s.tokensOut.Add(int64(extra))
	var once sync.Once
	release := func() {
		once.Do(func() {
			s.tokensOut.Add(int64(-extra))
			for i := 0; i < extra; i++ {
				s.tokens <- struct{}{}
			}
		})
	}
	return 1 + extra, release
}

// SchedulerStats is a point-in-time snapshot for metrics export.
type SchedulerStats struct {
	ScriptSlots   int           `json:"script_slots"`
	ActiveScripts int64         `json:"active_scripts"`
	Admitted      int64         `json:"admitted"`
	Waited        int64         `json:"waited"`
	WaitTime      time.Duration `json:"wait_ns"`
	QueueDepth    int64         `json:"queue_depth"`
	QueueLimit    int           `json:"queue_limit,omitempty"`
	QueueWait     time.Duration `json:"queue_wait_ns,omitempty"`
	Sheds         int64         `json:"sheds"`
	// HoldEWMA is the smoothed time one admitted script holds its slot;
	// EstWait is the derived admission-wait prediction behind the
	// Retry-After hint on shed responses.
	HoldEWMA    time.Duration `json:"hold_ewma_ns,omitempty"`
	EstWait     time.Duration `json:"est_wait_ns,omitempty"`
	WidthTokens int           `json:"width_tokens"`
	TokensInUse int64         `json:"tokens_in_use"`
	WidthAsks   int64         `json:"width_asks"`
	WidthTrims  int64         `json:"width_trims"`
}

// Stats snapshots the scheduler's counters.
func (s *Scheduler) Stats() SchedulerStats {
	return SchedulerStats{
		ScriptSlots:   s.totalSlots,
		ActiveScripts: s.active.Load(),
		Admitted:      s.admitted.Load(),
		Waited:        s.waited.Load(),
		WaitTime:      time.Duration(s.waitNanos.Load()),
		QueueDepth:    s.queued.Load(),
		QueueLimit:    s.queueLimit,
		QueueWait:     s.queueWait,
		Sheds:         s.sheds.Load(),
		HoldEWMA:      time.Duration(s.holdEWMA.Load()),
		EstWait:       s.EstimateWait(),
		WidthTokens:   s.totalTokens,
		TokensInUse:   s.tokensOut.Load(),
		WidthAsks:     s.widthAsks.Load(),
		WidthTrims:    s.widthTrims.Load(),
	}
}
