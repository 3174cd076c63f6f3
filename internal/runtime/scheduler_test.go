package runtime

import (
	"context"
	"errors"
	stdruntime "runtime"
	"sync"
	"testing"
	"time"
)

func TestSchedulerWidthGrants(t *testing.T) {
	s := NewScheduler(8)
	// A lone region gets everything it asks for (1 + 7 extras).
	w, rel := s.AcquireWidth(8)
	if w != 8 {
		t.Fatalf("first acquire = %d, want 8", w)
	}
	// The first acquire consumed 7 extras; a second concurrent region
	// degrades to the one remaining token + its baseline, not blocking.
	w2, rel2 := s.AcquireWidth(8)
	if w2 != 2 {
		t.Fatalf("contended acquire = %d, want 2", w2)
	}
	rel()
	// Tokens came back: a third region gets full width again.
	w3, rel3 := s.AcquireWidth(4)
	if w3 != 4 {
		t.Fatalf("post-release acquire = %d, want 4", w3)
	}
	rel2()
	rel3()
	st := s.Stats()
	if st.TokensInUse != 0 {
		t.Errorf("tokens leaked: %+v", st)
	}
	if st.WidthAsks != 3 || st.WidthTrims != 1 {
		t.Errorf("width counters = %+v", st)
	}
	// Double release is a no-op.
	rel()
	if got := s.Stats().TokensInUse; got != 0 {
		t.Errorf("double release corrupted pool: %d", got)
	}
}

func TestSchedulerWidthNeverExceedsPool(t *testing.T) {
	s := NewScheduler(4)
	var mu sync.Mutex
	extrasOut := 0
	maxExtras := 0
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				w, rel := s.AcquireWidth(4)
				mu.Lock()
				extrasOut += w - 1
				if extrasOut > maxExtras {
					maxExtras = extrasOut
				}
				mu.Unlock()
				stdruntime.Gosched()
				mu.Lock()
				extrasOut -= w - 1
				mu.Unlock()
				rel()
			}
		}()
	}
	wg.Wait()
	if maxExtras > 4 {
		t.Errorf("extras outstanding exceeded pool: %d > 4", maxExtras)
	}
	if st := s.Stats(); st.TokensInUse != 0 {
		t.Errorf("tokens leaked: %+v", st)
	}
}

func TestSchedulerAdmissionBlocksAndReleases(t *testing.T) {
	s := NewScheduler(8)
	s.SetMaxScripts(2)
	rel1, err := s.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := s.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Third admission blocks until a slot frees.
	entered := make(chan struct{})
	go func() {
		// Released before entered closes, so the counters read below
		// never see this script still active.
		rel3, err := s.Admit(context.Background())
		if err == nil {
			rel3()
		}
		close(entered)
	}()
	select {
	case <-entered:
		t.Fatal("third admission did not block at capacity 2")
	case <-time.After(50 * time.Millisecond):
	}
	rel1()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("blocked admission never unblocked after release")
	}
	rel2()
	st := s.Stats()
	if st.Admitted != 3 || st.Waited < 1 {
		t.Errorf("admission counters = %+v", st)
	}
	if st.ActiveScripts != 0 {
		t.Errorf("active scripts leaked: %+v", st)
	}
}

func TestSchedulerAdmissionRespectsContext(t *testing.T) {
	s := NewScheduler(1)
	s.SetMaxScripts(1)
	rel, err := s.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.Admit(ctx); err == nil {
		t.Fatal("admission should fail when the context expires")
	}
}

func TestSchedulerShedsWhenQueueFull(t *testing.T) {
	s := NewScheduler(4)
	s.SetMaxScripts(1)
	s.SetAdmissionQueue(2, 0)
	rel, err := s.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Fill the admission queue to its bound.
	const waiters = 2
	admitted := make(chan func(), waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			r, err := s.Admit(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			admitted <- r
		}()
	}
	deadline := time.After(5 * time.Second)
	for s.Stats().QueueDepth != waiters {
		select {
		case <-deadline:
			t.Fatalf("waiters never queued: %+v", s.Stats())
		case <-time.After(time.Millisecond):
		}
	}

	// One more admission must shed immediately, typed and matchable.
	_, err = s.Admit(context.Background())
	if !errors.Is(err, ErrAdmissionShed) {
		t.Fatalf("over-queue admission error = %v, want ErrAdmissionShed", err)
	}
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != "queue-full" {
		t.Errorf("shed = %+v, want queue-full", shed)
	}
	if st := s.Stats(); st.Sheds != 1 || st.QueueDepth != waiters {
		t.Errorf("stats after shed = %+v", st)
	}

	// The queued waiters were not harmed: releasing drains them in turn.
	rel()
	r1 := <-admitted
	r1()
	r2 := <-admitted
	r2()
	if st := s.Stats(); st.ActiveScripts != 0 || st.QueueDepth != 0 {
		t.Errorf("stats after drain = %+v", st)
	}
}

func TestSchedulerShedsOnQueueDeadline(t *testing.T) {
	s := NewScheduler(4)
	s.SetMaxScripts(1)
	s.SetAdmissionQueue(8, 20*time.Millisecond)
	rel, err := s.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()

	start := time.Now()
	_, err = s.Admit(context.Background())
	if !errors.Is(err, ErrAdmissionShed) {
		t.Fatalf("expired admission error = %v, want ErrAdmissionShed", err)
	}
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != "deadline" {
		t.Errorf("shed = %+v, want deadline", shed)
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Errorf("deadline shed took %s, bound was 20ms", waited)
	}
	// A caller-side cancellation must NOT be reported as a shed: the
	// client went away, the server did not refuse.
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(5 * time.Millisecond); cancel() }()
	_, err = s.Admit(ctx)
	if err == nil || errors.Is(err, ErrAdmissionShed) {
		t.Errorf("caller cancel surfaced as %v, want a plain context error", err)
	}
	if st := s.Stats(); st.Sheds != 1 {
		t.Errorf("sheds = %d, want 1 (cancel must not count)", st.Sheds)
	}
}

// TestSchedulerCancelledWhileQueuedReturnsSlot pins the fix for the
// queued-cancel slot leak: when a waiter's context is cancelled at the
// same moment a slot frees, Go's select may deliver the slot — the
// waiter must hand it straight back instead of holding it through a
// doomed execution.
func TestSchedulerCancelledWhileQueuedReturnsSlot(t *testing.T) {
	for round := 0; round < 50; round++ {
		s := NewScheduler(2)
		s.SetMaxScripts(1)
		rel, err := s.Admit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			r, err := s.Admit(ctx)
			if err == nil {
				r()
			}
			done <- err
		}()
		for s.Stats().QueueDepth != 1 {
			time.Sleep(100 * time.Microsecond)
		}
		// Race the release against the cancellation.
		cancel()
		rel()
		<-done
		// Whatever the select picked, the slot must be available again
		// (a leak would block this admission until the timeout).
		probe, pcancel := context.WithTimeout(context.Background(), 2*time.Second)
		got, err := s.Admit(probe)
		pcancel()
		if err != nil {
			t.Fatalf("round %d: slot leaked after queued cancel: %v", round, err)
		}
		got()
	}
}

// A quiet tenant's admission must not queue behind a noisy tenant's
// backlog: freed slots rotate round-robin across keys, so the quiet
// waiter is granted within the first two grants no matter how deep the
// noisy queue is (structural head-of-line regression).
func TestSchedulerRoundRobinAcrossKeys(t *testing.T) {
	s := NewScheduler(4)
	s.SetMaxScripts(1)
	occupy, err := s.AdmitKey(context.Background(), "noisy")
	if err != nil {
		t.Fatal(err)
	}

	const backlog = 40
	type grant struct {
		key string
		rel func()
	}
	grants := make(chan grant, backlog+1)
	var wg sync.WaitGroup
	enqueue := func(key string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, err := s.AdmitKey(context.Background(), key)
			if err != nil {
				t.Errorf("AdmitKey(%s): %v", key, err)
				return
			}
			grants <- grant{key, rel}
		}()
		// Each waiter must be queued before the next enqueues so the
		// noisy backlog is strictly ahead of the quiet waiter.
		waitForQueued(t, s, func(n int64) bool { return n >= 1 })
	}
	start := s.queued.Load()
	for i := 0; i < backlog; i++ {
		enqueue("noisy")
	}
	waitForQueued(t, s, func(n int64) bool { return n-start >= backlog })
	enqueue("quiet")
	waitForQueued(t, s, func(n int64) bool { return n-start >= backlog+1 })

	// Release the slot and drain grants one at a time: the quiet tenant
	// must be granted first or second (round-robin alternates keys),
	// never behind the 40-deep noisy backlog.
	occupy()
	quietAt := 0
	for i := 1; i <= backlog+1; i++ {
		g := <-grants
		if g.key == "quiet" {
			quietAt = i
		}
		g.rel()
	}
	wg.Wait()
	if quietAt == 0 || quietAt > 2 {
		t.Fatalf("quiet tenant granted at position %d, want <= 2", quietAt)
	}
}

// waitForQueued polls the queue depth until cond holds (the enqueue
// happens inside a goroutine; there is no other join point).
func waitForQueued(t *testing.T, s *Scheduler, cond func(int64) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond(s.queued.Load()) {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached target (now %d)", s.queued.Load())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// Timing companion to the structural test: while a noisy tenant keeps
// a deep backlog queued, a quiet tenant's admission waits are bounded
// by ~one slot-hold time, not by the backlog length. Bounds are
// generous (CI-safe) — the FIFO behaviour this regresses against would
// wait tens of holds, two orders of magnitude past the assert.
func TestSchedulerQuietTenantWaitBounded(t *testing.T) {
	const hold = 2 * time.Millisecond
	s := NewScheduler(4)
	s.SetMaxScripts(1)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Noisy tenant: keep ~30 admissions queued at all times, each
	// holding the slot when granted.
	for i := 0; i < 30; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rel, err := s.AdmitKey(context.Background(), "noisy")
				if err != nil {
					return
				}
				time.Sleep(hold)
				rel()
			}
		}()
	}
	waitForQueued(t, s, func(n int64) bool { return n >= 10 })

	// Quiet tenant: sequential admissions, measuring each wait.
	var worst time.Duration
	for i := 0; i < 20; i++ {
		begin := time.Now()
		rel, err := s.AdmitKey(context.Background(), "quiet")
		waited := time.Since(begin)
		if err != nil {
			t.Fatalf("quiet admission %d: %v", i, err)
		}
		rel()
		if waited > worst {
			worst = waited
		}
	}
	close(stop)
	wg.Wait()
	// Round-robin bounds the quiet wait near one hold (plus scheduling
	// noise); strict FIFO behind a 30-deep backlog would be >= 30*hold.
	if limit := 15 * hold; worst > limit {
		t.Fatalf("quiet tenant worst admission wait %v exceeds %v (head-of-line starvation)", worst, limit)
	}
}

// EstimateWait derives the Retry-After hint from live state: clamped
// to the 1s floor when idle or unmeasured, and growing with queue
// depth once slot-hold times are known.
func TestSchedulerEstimateWait(t *testing.T) {
	s := NewScheduler(4)
	s.SetMaxScripts(1)
	if got := s.EstimateWait(); got != time.Second {
		t.Fatalf("idle EstimateWait = %v, want the 1s floor", got)
	}
	// Feed the EWMA a known hold time, then pile up queued work.
	s.holdEWMA.Store(int64(10 * time.Second))
	rel, err := s.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	cancels := make([]context.CancelFunc, 0, 5)
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels = append(cancels, cancel)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r, err := s.AdmitKey(ctx, "t"); err == nil {
				r()
			}
		}()
	}
	waitForQueued(t, s, func(n int64) bool { return n >= 5 })
	// 5 queued + 1 active + 1 = 7 ahead, one slot, 10s hold each.
	if got, want := s.EstimateWait(), 70*time.Second; got != want {
		t.Fatalf("loaded EstimateWait = %v, want %v", got, want)
	}
	rel()
	for _, c := range cancels {
		c()
	}
	wg.Wait()
	st := s.Stats()
	if st.EstWait <= 0 || st.HoldEWMA <= 0 {
		t.Fatalf("stats missing wait-estimate fields: %+v", st)
	}
}

// The PR-7 queued-cancel regression, extended across admission keys: a
// keyed waiter whose cancellation races its grant must hand the slot
// back to the next key's waiter, never strand it.
func TestSchedulerKeyedCancelReturnsSlot(t *testing.T) {
	s := NewScheduler(4)
	s.SetMaxScripts(1)
	for round := 0; round < 50; round++ {
		rel, err := s.AdmitKey(context.Background(), "a")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		racedDone := make(chan struct{})
		go func() {
			defer close(racedDone)
			if r, err := s.AdmitKey(ctx, "b"); err == nil {
				r()
			}
		}()
		waitForQueued(t, s, func(n int64) bool { return n >= 1 })
		// Race the grant against the cancellation.
		go rel()
		cancel()
		<-racedDone
		// Whatever won, the slot must be whole again: a third keyed
		// admission succeeds immediately.
		ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
		rel3, err := s.AdmitKey(ctx2, "c")
		cancel2()
		if err != nil {
			t.Fatalf("round %d: slot stranded after racing cancel: %v", round, err)
		}
		rel3()
	}
}
