package dist

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"
)

// proberPool builds a pool over n live httptest workers plus an
// installed injector; tests flip a worker "down" by pointing a refuse
// fault at it (probes dial through the injector like everything else).
func proberPool(t *testing.T, n int) (*Pool, *Injector, []string) {
	t.Helper()
	var names []string
	for i := 0; i < n; i++ {
		ts := httptest.NewServer(NewWorker(nil, t.TempDir()).Handler())
		t.Cleanup(ts.Close)
		names = append(names, ts.URL)
	}
	pool := NewPool(names...)
	pool.SetDialTimeout(2 * time.Second)
	inj := NewInjector(1)
	pool.SetFaultInjector(inj)
	return pool, inj, names
}

func transitionsTotal(tr Transitions) int64 {
	return tr.Down + tr.Rejoined
}

// TestProberHysteresisDeterministic walks one worker through the full
// outage cycle tick by tick, pinning exactly when the dispatch set and
// the fingerprint are allowed to move: not before downAfter (3)
// consecutive misses, not before upAfter (2) consecutive hits, and never
// on the intermediate down→rejoining step.
func TestProberHysteresisDeterministic(t *testing.T) {
	pool, inj, names := proberPool(t, 2)
	ctx := context.Background()
	flapper := names[0]

	fpStart := pool.Fingerprint()

	// Misses 1 and 2: within hysteresis, nothing may move.
	inj.Set(flapper, FaultSpec{Kind: FaultRefuse})
	for i := 1; i <= 2; i++ {
		if alive := pool.ProbeTick(ctx); alive != 2 {
			t.Fatalf("miss %d: %d alive, want 2 (hysteresis not yet exhausted)", i, alive)
		}
		if fp := pool.Fingerprint(); fp != fpStart {
			t.Fatalf("miss %d: fingerprint moved before DownAfter", i)
		}
		if tot := transitionsTotal(pool.Transitions()); tot != 0 {
			t.Fatalf("miss %d: %d transitions before DownAfter", i, tot)
		}
	}
	// Miss 3: down, exactly one transition, fingerprint moves.
	if alive := pool.ProbeTick(ctx); alive != 1 {
		t.Fatalf("miss 3: %d alive, want 1", alive)
	}
	fpDown := pool.Fingerprint()
	if fpDown == fpStart {
		t.Fatal("miss 3: fingerprint did not move when the eligible set shrank")
	}
	if tr := pool.Transitions(); tr.Down != 1 || transitionsTotal(tr) != 1 {
		t.Fatalf("miss 3: transitions = %+v, want exactly one Down", tr)
	}

	// More misses while down: steady state, no churn.
	for i := 0; i < 3; i++ {
		pool.ProbeTick(ctx)
	}
	if fp := pool.Fingerprint(); fp != fpDown {
		t.Fatal("steady-down probes moved the fingerprint")
	}
	if tr := pool.Transitions(); transitionsTotal(tr) != 1 {
		t.Fatalf("steady-down probes added transitions: %+v", tr)
	}

	// Hit 1: rejoining, but not yet eligible — fingerprint frozen.
	inj.Clear(flapper)
	if alive := pool.ProbeTick(ctx); alive != 1 {
		t.Fatalf("hit 1: %d alive, want 1 (rejoin threshold not met)", alive)
	}
	if fp := pool.Fingerprint(); fp != fpDown {
		t.Fatal("hit 1: down→rejoining moved the fingerprint")
	}
	for _, st := range pool.Stats() {
		if st.Name == flapper && st.State != "rejoining" {
			t.Fatalf("hit 1: flapper state = %s, want rejoining", st.State)
		}
	}
	// Hit 2: readmitted.
	if alive := pool.ProbeTick(ctx); alive != 2 {
		t.Fatalf("hit 2: %d alive, want 2", alive)
	}
	if fp := pool.Fingerprint(); fp != fpStart {
		t.Fatal("hit 2: fingerprint after rejoin differs from the original 2-worker epoch")
	}
	if tr := pool.Transitions(); tr.Rejoined != 1 || transitionsTotal(tr) != 2 {
		t.Fatalf("hit 2: transitions = %+v, want Down=1 Rejoined=1", tr)
	}

	// A single miss after rejoin must not evict again (streak reset).
	inj.Set(flapper, FaultSpec{Kind: FaultRefuse, Times: 1})
	if alive := pool.ProbeTick(ctx); alive != 2 {
		t.Fatal("one post-rejoin miss evicted the worker (streak carried over?)")
	}
}

// TestProberFlappingProperty drives a randomly flapping worker through
// hundreds of probe rounds and checks the hysteresis contract globally:
// the eligible set and the fingerprint move together, they never move
// without a counted transition, consecutive eligibility flips are at
// least downAfter (resp. upAfter) ticks apart, and a stable peer is
// never disturbed. Failures reproduce from the printed seed.
func TestProberFlappingProperty(t *testing.T) {
	seed := int64(20260807)
	rng := rand.New(rand.NewSource(seed))
	pool, inj, names := proberPool(t, 3)
	ctx := context.Background()
	flapper, stable := names[0], names[1]

	ticks := 300
	if testing.Short() {
		ticks = 80
	}
	eligible := func() bool {
		for _, n := range pool.WorkerNames() {
			if n == flapper {
				return true
			}
		}
		return false
	}

	up := true
	lastFlip := 0 // tick index of the last eligibility change
	wasEligible := eligible()
	prevFP := pool.Fingerprint()
	prevTrans := transitionsTotal(pool.Transitions())

	for tick := 1; tick <= ticks; tick++ {
		if rng.Intn(2) == 0 {
			up = !up
			if up {
				inj.Clear(flapper)
			} else {
				inj.Set(flapper, FaultSpec{Kind: FaultRefuse})
			}
		}
		pool.ProbeTick(ctx)

		fp := pool.Fingerprint()
		trans := transitionsTotal(pool.Transitions())
		isEligible := eligible()

		if (fp != prevFP) != (isEligible != wasEligible) {
			t.Fatalf("seed %d tick %d: fingerprint moved=%v but eligibility moved=%v",
				seed, tick, fp != prevFP, isEligible != wasEligible)
		}
		if fp != prevFP && trans == prevTrans {
			t.Fatalf("seed %d tick %d: fingerprint moved without a counted transition", seed, tick)
		}
		if isEligible != wasEligible {
			gap := tick - lastFlip
			min := downAfter
			if isEligible {
				min = upAfter
			}
			if lastFlip > 0 && gap < min {
				t.Fatalf("seed %d tick %d: eligibility flipped after %d ticks, threshold %d — oscillating faster than hysteresis allows",
					seed, tick, gap, min)
			}
			lastFlip = tick
		}
		for _, st := range pool.Stats() {
			if st.Name == stable && st.State != "healthy" {
				t.Fatalf("seed %d tick %d: stable worker dragged to %s", seed, tick, st.State)
			}
		}
		prevFP, prevTrans, wasEligible = fp, trans, isEligible
	}
	if lastFlip == 0 {
		t.Fatalf("seed %d: flapper never changed eligibility in %d ticks — property not exercised", seed, ticks)
	}
}

// TestProberStartStop: the background goroutine probes on its own —
// a worker that dies rejoins with no registration or listing call — and
// double-starting is a no-op.
func TestProberStartStop(t *testing.T) {
	pool, inj, names := proberPool(t, 2)
	pool.SetProberConfig(ProberConfig{Interval: 10 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := pool.StartProber(ctx)
	defer stop()
	stop2 := pool.StartProber(ctx) // second start: no-op
	defer stop2()

	inj.Set(names[0], FaultSpec{Kind: FaultRefuse})
	waitFor(t, time.Second, func() bool { return len(pool.WorkerNames()) == 1 })
	inj.Clear(names[0])
	waitFor(t, time.Second, func() bool { return len(pool.WorkerNames()) == 2 })
	if tr := pool.Transitions(); tr.Down < 1 || tr.Rejoined < 1 {
		t.Fatalf("transitions = %+v, want at least one Down and one Rejoined", tr)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached before timeout")
}
