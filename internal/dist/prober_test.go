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
	return tr.Down + tr.Rejoined + tr.Degraded + tr.Restored
}

// TestProberHysteresisDeterministic walks one worker through the full
// outage cycle tick by tick, pinning exactly when the dispatch set and
// the fingerprint are allowed to move: not before DownAfter consecutive
// misses, not before UpAfter consecutive hits, and never on the
// intermediate down→rejoining step.
func TestProberHysteresisDeterministic(t *testing.T) {
	pool, inj, names := proberPool(t, 2)
	pool.SetProberConfig(ProberConfig{DownAfter: 3, UpAfter: 2, MinSamples: 1 << 30})
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
// least DownAfter (resp. UpAfter) ticks apart, and a stable peer is
// never disturbed. Failures reproduce from the printed seed.
func TestProberFlappingProperty(t *testing.T) {
	const (
		downAfter = 3
		upAfter   = 2
	)
	seed := int64(20260807)
	rng := rand.New(rand.NewSource(seed))
	pool, inj, names := proberPool(t, 3)
	pool.SetProberConfig(ProberConfig{DownAfter: downAfter, UpAfter: upAfter, MinSamples: 1 << 30})
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

// TestProberSlowWorkerDetection: a worker whose per-chunk EWMA is far
// above the pool median degrades after SlowAfter ticks (steering plans
// away while staying alive for failover), and recovers to healthy once
// its decayed EWMA holds under the threshold for UpAfter ticks. The
// sub-millisecond row is a fast pool: whole-stream times under 1 ms must
// still rank the workers, not all read 0 and blind the detector.
func TestProberSlowWorkerDetection(t *testing.T) {
	for _, row := range []struct {
		name         string
		slow, fast   time.Duration // one stream's service time
		slowN, fastN int           // its chunks
	}{
		{"milliseconds", 100 * time.Millisecond, 4 * time.Millisecond, 1, 1},
		{"sub-millisecond", 900 * time.Microsecond, 100 * time.Microsecond, 1, 4},
	} {
		t.Run(row.name, func(t *testing.T) {
			pool, _, names := proberPool(t, 3)
			pool.SetProberConfig(ProberConfig{DownAfter: 3, UpAfter: 2, SlowFactor: 4, SlowAfter: 2, MinSamples: 1})
			ctx := context.Background()
			slow := names[0]

			pool.noteService(slow, row.slow, row.slowN)
			for _, n := range names[1:] {
				pool.noteService(n, row.fast, row.fastN)
			}

			// Tick 1: slow streak starts, nothing moves yet.
			pool.ProbeTick(ctx)
			if got := len(pool.WorkerNames()); got != 3 {
				t.Fatalf("tick 1: eligible = %d, want 3 (SlowAfter not reached)", got)
			}
			// Tick 2: degraded — out of planning, still alive.
			pool.ProbeTick(ctx)
			if tr := pool.Transitions(); tr.Degraded != 1 {
				t.Fatalf("tick 2: transitions = %+v, want Degraded=1", tr)
			}
			for _, n := range pool.WorkerNames() {
				if n == slow {
					t.Fatal("tick 2: degraded worker still in the dispatch set")
				}
			}
			for _, st := range pool.Stats() {
				if st.Name == slow {
					if st.State != "degraded" || !st.Healthy {
						t.Fatalf("tick 2: slow worker row = {state:%s healthy:%v}, want degraded+alive", st.State, st.Healthy)
					}
				}
			}

			// Degraded workers get no traffic, so recovery rides the EWMA
			// decay: within a bounded number of ticks the worker must be
			// restored.
			for i := 0; i < 40; i++ {
				pool.ProbeTick(ctx)
				if pool.Transitions().Restored == 1 {
					break
				}
			}
			if tr := pool.Transitions(); tr.Restored != 1 {
				t.Fatalf("slow worker never restored: %+v", tr)
			}
			if got := len(pool.WorkerNames()); got != 3 {
				t.Fatalf("after restore: eligible = %d, want 3", got)
			}
		})
	}
}

// TestProberStartStop: the background goroutine probes on its own —
// a worker that dies rejoins with zero manual CheckHealth calls — and
// double-starting is a no-op.
func TestProberStartStop(t *testing.T) {
	pool, inj, names := proberPool(t, 2)
	pool.SetProberConfig(ProberConfig{Interval: 10 * time.Millisecond, DownAfter: 2, UpAfter: 2, MinSamples: 1 << 30})
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
