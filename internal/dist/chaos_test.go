package dist_test

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/pash"
)

func waitForCond(t *testing.T, timeout time.Duration, cond func() bool) {
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

// The chaos suite drives the real coordinator + worker stack through
// every injectable fault class and holds it to the no-corruption
// contract: the stream either completes byte-identical to local
// execution or fails with a clean error — never silently wrong or
// silently short output. Run under -race in CI (`go test -race -run
// Chaos ./internal/dist/`).

// chaosPool builds a pool over n live workers with a fault injector
// installed and timeouts tightened so partitions resolve in test time.
func chaosPool(t *testing.T, n int, dir string, seed int64) (*pash.WorkerPool, *dist.Injector) {
	t.Helper()
	pool := startWorkers(t, n, dir)
	inj := dist.NewInjector(seed)
	pool.SetFaultInjector(inj)
	pool.SetDialTimeout(500 * time.Millisecond)
	pool.SetChunkTimeout(500 * time.Millisecond)
	pool.SetRetryPolicy(3, 10*time.Millisecond, 100*time.Millisecond)
	return pool, inj
}

func sumStats(pool *pash.WorkerPool) (requests, local, remote, retries int64, down int) {
	for _, st := range pool.Stats() {
		requests += st.Requests
		local += st.Redispatched
		remote += st.RedispatchedRemote
		retries += st.Retries
		if !st.Healthy {
			down++
		}
	}
	return
}

// TestChaosFaultMatrix: every fault class, at widths 1 and 8, against
// a coordinator with two workers. Output must be byte-identical to
// local execution in every cell; the fault must actually have engaged
// (a cell whose fault never fired is vacuous and fails as such, it does
// not pass); mid-stream classes must then have recovered via the
// surviving worker (zero local fallback), and pre-stream classes via
// same-worker retry (zero evictions).
func TestChaosFaultMatrix(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "in.txt"), []byte(makeInput(25000, 3)), 0o644); err != nil {
		t.Fatal(err)
	}
	script := `cat in.txt | tr A-Z a-z | grep the | sort`

	cases := []struct {
		name string
		spec dist.FaultSpec
		// preStream: the fault fires before any response byte, so it
		// must be absorbed by retry against the same worker.
		preStream bool
	}{
		{"refuse", dist.FaultSpec{Kind: dist.FaultRefuse, Times: 2}, true},
		{"partition-dial", dist.FaultSpec{Kind: dist.FaultPartition, Times: 1}, true},
		{"kill-first-byte", dist.FaultSpec{Kind: dist.FaultKill, Times: 1}, false},
		// AfterBytes thresholds count one connection's response bytes as
		// transmitted (frame headers and HTTP chunking included). At width 8 the
		// smallest non-empty shard response here is ~13 KB, so every
		// threshold sits past the response header and inside every
		// shard's stream: whichever connection gets there first engages
		// the fault.
		{"kill-mid-stream", dist.FaultSpec{Kind: dist.FaultKill, AfterBytes: 6_000, Times: 1}, false},
		{"partition-mid-stream", dist.FaultSpec{Kind: dist.FaultPartition, AfterBytes: 5_000, Times: 1}, false},
		{"truncate-first-byte", dist.FaultSpec{Kind: dist.FaultTruncate, Times: 1}, false},
		{"truncate-mid-stream", dist.FaultSpec{Kind: dist.FaultTruncate, AfterBytes: 8_000, Times: 1}, false},
		{"corrupt-frame", dist.FaultSpec{Kind: dist.FaultCorrupt, AfterBytes: 4_000, Times: 1}, false},
		{"slow-worker", dist.FaultSpec{Kind: dist.FaultSlow, Latency: 2 * time.Millisecond}, false},
	}

	for _, tc := range cases {
		for _, width := range []int{1, 8} {
			local := runScript(t, script, dir, width, nil)
			pool, inj := chaosPool(t, 2, dir, 7)
			target := pool.WorkerNames()[0]
			inj.Set(target, tc.spec)

			got := runScript(t, script, dir, width, pool)
			if got != local {
				t.Fatalf("%s width=%d: output diverged under fault (%d vs %d bytes) — corruption",
					tc.name, width, len(got), len(local))
			}
			requests, localRd, remoteRd, retries, down := sumStats(pool)
			if localRd != 0 {
				t.Errorf("%s width=%d: %d chunks fell back to the coordinator with a healthy peer up",
					tc.name, width, localRd)
			}
			if requests == 0 {
				// Width 1 compiles to a sequential plan with no remote
				// nodes: nothing dials, so the fault cannot fire. The
				// byte-equality check above is the whole contract here.
				continue
			}
			if inj.Engaged(target) == 0 {
				t.Errorf("%s width=%d: vacuous: fault never engaged", tc.name, width)
				continue
			}
			switch {
			case tc.preStream:
				if retries == 0 {
					t.Errorf("%s width=%d: pre-stream fault absorbed without a counted retry", tc.name, width)
				}
				if down != 0 {
					t.Errorf("%s width=%d: pre-stream fault evicted %d workers (should retry in place)",
						tc.name, width, down)
				}
			case tc.spec.Kind == dist.FaultSlow:
				if down != 0 {
					t.Errorf("%s width=%d: slow (not dead) worker was evicted", tc.name, width)
				}
			default:
				if remoteRd == 0 {
					t.Errorf("%s width=%d: mid-stream fault recovered without surviving-worker re-dispatch",
						tc.name, width)
				}
			}
		}
	}
}

// TestChaosRandomizedRounds: seeded random fault/width/worker
// combinations over the whole script corpus. Every round must end
// byte-identical to local execution — the property the whole recovery
// ladder exists to preserve.
func TestChaosRandomizedRounds(t *testing.T) {
	seed := int64(99)
	rng := rand.New(rand.NewSource(seed))
	rounds := 8
	if testing.Short() {
		rounds = 3
	}
	kinds := []dist.FaultKind{dist.FaultRefuse, dist.FaultKill, dist.FaultSlow, dist.FaultTruncate, dist.FaultCorrupt}
	for round := 0; round < rounds; round++ {
		dir := t.TempDir()
		input := makeInput(1000+rng.Intn(25000), rng.Int63())
		if err := os.WriteFile(filepath.Join(dir, "in.txt"), []byte(input), 0o644); err != nil {
			t.Fatal(err)
		}
		workers := 2 + rng.Intn(3)
		width := 1 + rng.Intn(8)
		script := distScripts[rng.Intn(len(distScripts))]
		spec := dist.FaultSpec{
			Kind:       kinds[rng.Intn(len(kinds))],
			AfterBytes: int64(rng.Intn(60_000)),
			Times:      1 + rng.Intn(2),
		}
		if spec.Kind == dist.FaultSlow {
			spec.Latency = time.Duration(1+rng.Intn(3)) * time.Millisecond
			spec.Jitter = time.Millisecond
		}

		local := runScript(t, script, dir, width, nil)
		pool, inj := chaosPool(t, workers, dir, rng.Int63())
		pool.SetSharedFS(rng.Intn(2) == 0)
		names := pool.WorkerNames()
		target := names[rng.Intn(len(names))]
		if rng.Intn(4) == 0 {
			target = "*" // whole-fleet fault, bounded by Times
		}
		inj.Set(target, spec)

		got := runScript(t, script, dir, width, pool)
		if got != local {
			t.Fatalf("seed %d round %d (kind=%v after=%d times=%d workers=%d width=%d target=%q script=%q): diverged (%d vs %d bytes)",
				seed, round, spec.Kind, spec.AfterBytes, spec.Times, workers, width, target, script, len(got), len(local))
		}
	}
}

// TestChaosFlappingWorkerRejoins is the acceptance path: a worker
// drops (every dial refused), the prober drains it from planning, work
// keeps flowing through the survivor; the fault clears, and the prober
// readmits it — no coordinator restart, no manual poke — after which
// it demonstrably carries traffic again.
func TestChaosFlappingWorkerRejoins(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "in.txt"), []byte(makeInput(8000, 5)), 0o644); err != nil {
		t.Fatal(err)
	}
	script := `cat in.txt | tr A-Z a-z | grep the | sort`
	local := runScript(t, script, dir, 8, nil)

	pool, inj := chaosPool(t, 2, dir, 11)
	pool.SetProberConfig(dist.ProberConfig{Interval: 15 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := pool.StartProber(ctx)
	defer stop()
	flapper := pool.WorkerNames()[0]

	// Outage: the prober must drain the flapper without help.
	inj.Set(flapper, dist.FaultSpec{Kind: dist.FaultRefuse})
	waitForCond(t, 3*time.Second, func() bool { return len(pool.WorkerNames()) == 1 })
	if got := runScript(t, script, dir, 8, pool); got != local {
		t.Fatalf("output diverged while flapper was down (%d vs %d bytes)", len(got), len(local))
	}

	// Recovery: clearing the fault must be sufficient — rejoin is the
	// prober's job, not the operator's.
	inj.Clear(flapper)
	waitForCond(t, 3*time.Second, func() bool { return len(pool.WorkerNames()) == 2 })
	if tr := pool.Transitions(); tr.Down < 1 || tr.Rejoined < 1 {
		t.Fatalf("transitions = %+v, want at least one Down and one Rejoined", tr)
	}

	var before int64
	for _, st := range pool.Stats() {
		if st.Name == flapper {
			before = st.Requests
		}
	}
	if got := runScript(t, script, dir, 8, pool); got != local {
		t.Fatalf("output diverged after rejoin (%d vs %d bytes)", len(got), len(local))
	}
	for _, st := range pool.Stats() {
		if st.Name == flapper && st.Requests == before {
			t.Fatal("rejoined worker carried no traffic — rejoin was cosmetic")
		}
	}
}
