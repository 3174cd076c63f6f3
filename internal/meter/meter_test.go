package meter

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic Config.now hook.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1700000000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// memSink records commits in memory.
type memSink struct {
	mu   sync.Mutex
	recs []CommitRecord
}

func (s *memSink) Commit(recs []CommitRecord) error {
	s.mu.Lock()
	s.recs = append(s.recs, recs...)
	s.mu.Unlock()
	return nil
}

func (s *memSink) all() []CommitRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]CommitRecord(nil), s.recs...)
}

// Concurrent charges must sum exactly — the VSA accumulator may lose
// no deltas under contention (run with -race).
func TestConcurrentChargesSumExactly(t *testing.T) {
	m := New(Config{})
	tn := m.Tenant("acme")
	const workers, perWorker = 16, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if cause, _ := tn.Admit(); cause != CauseNone {
					t.Errorf("unlimited tenant shed with cause %q", cause)
					return
				}
				tn.Charge(3, 7)
			}
		}()
	}
	wg.Wait()
	// Interleave commits with a second charging wave: folding must not
	// drop in-flight deltas either.
	var wg2 sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			for i := 0; i < perWorker; i++ {
				tn.Admit()
				tn.Charge(3, 7)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				m.CommitTick(time.Now())
			}
		}
	}()
	wg2.Wait()
	close(done)
	m.Flush()

	const total = 2 * workers * perWorker
	got := tn.Used()
	want := Usage{Jobs: total, WallNanos: 3 * total, Bytes: 7 * total}
	if got != want {
		t.Fatalf("Used() = %+v, want %+v", got, want)
	}
	if p := tn.pending(); p != (Usage{}) {
		t.Fatalf("pending after Flush = %+v, want zero", p)
	}
}

// Quota enforcement is exact at the boundary: the job under the quota
// is admitted, the one that would cross it is denied — sequentially
// and under arbitrary concurrency.
func TestQuotaExactBoundary(t *testing.T) {
	const quota = 100
	m := New(Config{DefaultQuota: quota})
	tn := m.Tenant("bound")
	for i := 0; i < quota; i++ {
		if cause, _ := tn.Admit(); cause != CauseNone {
			t.Fatalf("admission %d/%d denied with cause %q", i+1, quota, cause)
		}
	}
	if rem, limited := tn.Remaining(); !limited || rem != 0 {
		t.Fatalf("Remaining at quota = (%d, %v), want (0, true)", rem, limited)
	}
	if cause, _ := tn.Admit(); cause != CauseQuota {
		t.Fatalf("admission past quota: cause %q, want %q", cause, CauseQuota)
	}

	// Concurrent: 2×quota racers against a fresh tenant — exactly
	// quota must pass, even with commits folding mid-race.
	m2 := New(Config{DefaultQuota: quota, HighWatermark: 8})
	tn2 := m2.Tenant("race")
	var admitted, denied int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				m2.CommitTick(time.Now())
			}
		}
	}()
	for i := 0; i < 2*quota; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cause, _ := tn2.Admit()
			mu.Lock()
			if cause == CauseNone {
				admitted++
			} else {
				denied++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	close(stop)
	if admitted != quota || denied != quota {
		t.Fatalf("concurrent boundary: admitted=%d denied=%d, want %d/%d", admitted, denied, quota, quota)
	}
}

// A refunded job gives its quota reserve back: shed-after-admit paths
// must not burn quota the tenant never used.
func TestRefundRestoresQuota(t *testing.T) {
	m := New(Config{DefaultQuota: 1})
	tn := m.Tenant("r")
	if cause, _ := tn.Admit(); cause != CauseNone {
		t.Fatalf("first admit denied: %q", cause)
	}
	if cause, _ := tn.Admit(); cause != CauseQuota {
		t.Fatalf("second admit: cause %q, want quota", cause)
	}
	tn.NoteCapacityShed() // the first job never ran
	if cause, _ := tn.Admit(); cause != CauseNone {
		t.Fatalf("admit after refund denied: %q", cause)
	}
	st := tn.Stats()
	if st.ShedCapacity != 1 || st.Admitted != 1 {
		t.Fatalf("stats after refund: %+v", st)
	}
}

// Watermark commit + hysteresis per the VSA contract: a commit fires
// when the uncommitted delta reaches the high watermark and disarms;
// below the watermark nothing commits (until max-age); draining under
// the low watermark re-arms.
func TestWatermarkCommitAndHysteresis(t *testing.T) {
	clk := newFakeClock()
	sink := &memSink{}
	m := New(Config{
		HighWatermark: 10,
		CommitMaxAge:  time.Hour, // keep the age backstop out of this test
		Sink:          sink,
		now:           clk.now,
	})
	tn := m.Tenant("w")
	for i := 0; i < 9; i++ {
		tn.Admit()
	}
	if n := m.CommitTick(clk.now()); n != 0 {
		t.Fatalf("commit below watermark: %d tenants committed", n)
	}
	tn.Admit() // the 10th crosses the watermark
	if n := m.CommitTick(clk.now()); n != 1 {
		t.Fatalf("commit at watermark: %d tenants, want 1", n)
	}
	if tn.armed.Load() {
		t.Fatal("tenant still armed after watermark commit")
	}
	recs := sink.all()
	if len(recs) != 1 || recs[0].Net.Jobs != 10 {
		t.Fatalf("sink records = %+v, want one with net 10 jobs", recs)
	}
	// The fold drained the delta to zero (≤ low watermark), so the next
	// pass re-arms without committing.
	if n := m.CommitTick(clk.now()); n != 0 {
		t.Fatalf("re-arm pass committed %d tenants", n)
	}
	if !tn.armed.Load() {
		t.Fatal("tenant not re-armed after draining under low watermark")
	}
	// And the next watermark crossing commits again.
	for i := 0; i < 10; i++ {
		tn.Admit()
	}
	if n := m.CommitTick(clk.now()); n != 1 {
		t.Fatalf("second watermark commit: %d tenants, want 1", n)
	}
}

// The max-age backstop commits a long-idle dirty tenant even far below
// the watermark, so the sink never lags unboundedly.
func TestCommitMaxAgeBackstop(t *testing.T) {
	clk := newFakeClock()
	sink := &memSink{}
	m := New(Config{
		HighWatermark: 1000,
		CommitMaxAge:  time.Second,
		Sink:          sink,
		now:           clk.now,
	})
	tn := m.Tenant("idle")
	tn.Admit()
	if n := m.CommitTick(clk.now()); n != 0 {
		t.Fatalf("fresh delta committed early: %d", n)
	}
	clk.advance(2 * time.Second)
	if n := m.CommitTick(clk.now()); n != 1 {
		t.Fatalf("aged delta not committed: %d", n)
	}
	if recs := sink.all(); len(recs) != 1 || recs[0].Net.Jobs != 1 {
		t.Fatalf("sink records = %+v", recs)
	}
}

// Under sustained load, commits fire on watermark crossings only: the
// commit count stays ~jobs/watermark, nowhere near one per request.
func TestCommitCountBoundedUnderSustainedLoad(t *testing.T) {
	clk := newFakeClock()
	m := New(Config{HighWatermark: 64, CommitMaxAge: time.Hour, now: clk.now})
	tn := m.Tenant("load")
	const jobs = 64 * 100
	for i := 0; i < jobs; i++ {
		tn.Admit()
		// A committer pass after every admission — the worst case for a
		// flappy design — must still only commit on crossings.
		m.CommitTick(clk.now())
	}
	commits := tn.Stats().Commits
	// Exactly jobs/watermark crossings, +1 slack for the re-arm pass
	// pattern; one-per-request would be 6400.
	if want := int64(jobs / 64); commits < want || commits > want+1 {
		t.Fatalf("commits = %d over %d jobs (watermark 64), want ~%d", commits, jobs, want)
	}
}

// The admitted hot path — quota check, rate check, charge — is O(1)
// and allocation-free: no datastore, no file I/O, no per-request
// garbage.
func TestAdmitHotPathAllocationFree(t *testing.T) {
	m := New(Config{DefaultQuota: 1 << 40, Rate: 1e12, Burst: 1 << 30})
	tn := m.Tenant("hot")
	tn.Admit() // warm the dirty stamp
	if avg := testing.AllocsPerRun(1000, func() {
		if cause, _ := tn.Admit(); cause != CauseNone {
			t.Fatalf("hot-path admission denied: %q", cause)
		}
		tn.Charge(100, 200)
		tn.Remaining()
	}); avg != 0 {
		t.Fatalf("hot path allocates %.1f per admission, want 0", avg)
	}
}

// GCRA rate limiting: a full bucket admits the burst back-to-back,
// then denies with a retry-after hint, and conforms again once the
// clock advances one interval.
func TestRateLimitBurstAndRecovery(t *testing.T) {
	clk := newFakeClock()
	m := New(Config{Rate: 10, Burst: 3, now: clk.now}) // 100ms interval
	tn := m.Tenant("rl")
	for i := 0; i < 3; i++ {
		if cause, _ := tn.Admit(); cause != CauseNone {
			t.Fatalf("burst admission %d denied: %q", i+1, cause)
		}
	}
	cause, retry := tn.Admit()
	if cause != CauseRate {
		t.Fatalf("over-burst admission: cause %q, want rate", cause)
	}
	if retry <= 0 || retry > 200*time.Millisecond {
		t.Fatalf("retry-after = %v, want (0, 200ms]", retry)
	}
	// A rate denial must not consume quota or count as admitted.
	if st := tn.Stats(); st.ShedRate != 1 || st.Used.Jobs != 3 {
		t.Fatalf("stats after rate shed: %+v", st)
	}
	clk.advance(retry)
	if cause, _ := tn.Admit(); cause != CauseNone {
		t.Fatalf("admission after recovery denied: %q", cause)
	}
}

// The file sink's JSONL log round-trips: records read back sum to the
// committed usage.
func TestFileSinkRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "usage.jsonl")
	sink, err := NewFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	m := New(Config{HighWatermark: 4, CommitMaxAge: time.Hour, Sink: sink, now: clk.now})
	tn := m.Tenant("disk")
	for i := 0; i < 8; i++ {
		tn.Admit()
		tn.Charge(10, 20)
		m.CommitTick(clk.now())
	}
	m.Flush()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	var sum Usage
	var last CommitRecord
	n := 0
	for dec.More() {
		var rec CommitRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("record %d: %v", n, err)
		}
		if rec.Tenant != "disk" {
			t.Fatalf("record %d tenant = %q", n, rec.Tenant)
		}
		sum = sum.add(rec.Net)
		last = rec
		n++
	}
	want := Usage{Jobs: 8, WallNanos: 80, Bytes: 160}
	if sum != want {
		t.Fatalf("summed nets = %+v, want %+v", sum, want)
	}
	if last.Total != want {
		t.Fatalf("final running total = %+v, want %+v", last.Total, want)
	}
	if n < 2 {
		t.Fatalf("expected multiple watermark commits, got %d records", n)
	}
}

// The background committer flushes outstanding deltas on stop.
func TestBackgroundCommitterFlushOnStop(t *testing.T) {
	sink := &memSink{}
	m := New(Config{CommitInterval: time.Hour, CommitMaxAge: time.Hour, Sink: sink})
	tn := m.Tenant("bg")
	stop := m.Start()
	tn.Admit()
	tn.Charge(1, 2)
	stop()
	recs := sink.all()
	if len(recs) != 1 || recs[0].Net != (Usage{Jobs: 1, WallNanos: 1, Bytes: 2}) {
		t.Fatalf("records after stop = %+v", recs)
	}
}
