package serve_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/serve"
	"repro/pash"
)

// flakyWorker is a worker whose /healthz answers 200 while ok is set and
// 500 otherwise, and counts every probe it receives.
type flakyWorker struct {
	ok     atomic.Bool
	probes atomic.Int64
	addr   string
}

func startFlakyWorker(t *testing.T) *flakyWorker {
	t.Helper()
	fw := &flakyWorker{}
	fw.ok.Store(true)
	inner := dist.NewWorker(nil, t.TempDir()).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fw.probes.Add(1)
			if !fw.ok.Load() {
				http.Error(w, "sick", http.StatusInternalServerError)
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	fw.addr = ts.URL
	return fw
}

func workersServer(t *testing.T, pool *pash.WorkerPool) http.Handler {
	t.Helper()
	srv := serve.New(pash.NewSession(pash.DefaultOptions(2)), nil)
	srv.AttachWorkers(pool)
	return srv.Handler()
}

func workerState(t *testing.T, pool *pash.WorkerPool, name string) string {
	t.Helper()
	for _, st := range pool.Stats() {
		if st.Name == name {
			return st.State
		}
	}
	t.Fatalf("%s is not a member", name)
	return ""
}

// TestWorkersListingSendsNoProbe: GET /workers only reads. A worker whose
// /healthz fails keeps its state, the pool its transitions and its
// fingerprint, and the worker sees no probe.
func TestWorkersListingSendsNoProbe(t *testing.T) {
	fw := startFlakyWorker(t)
	pool := pash.NewWorkerPool(fw.addr)
	h := workersServer(t, pool)
	fw.ok.Store(false)

	state, trans, fp := workerState(t, pool, fw.addr), pool.Transitions(), pool.Fingerprint()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/workers", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), fw.addr) {
		t.Fatalf("GET /workers = %d %q", rec.Code, rec.Body.String())
	}
	if n := fw.probes.Load(); n != 0 {
		t.Errorf("GET /workers sent %d probes", n)
	}
	if got := workerState(t, pool, fw.addr); got != state {
		t.Errorf("state %s -> %s", state, got)
	}
	if got := pool.Transitions(); got != trans {
		t.Errorf("transitions %+v -> %+v", trans, got)
	}
	if got := pool.Fingerprint(); got != fp {
		t.Errorf("fingerprint %q -> %q", fp, got)
	}
}

// TestRegisterUnreachableLeavesMembership: an address that answers no
// probe is refused and never joins.
func TestRegisterUnreachableLeavesMembership(t *testing.T) {
	fw := startFlakyWorker(t)
	pool := pash.NewWorkerPool(fw.addr)
	pool.SetDialTimeout(500 * time.Millisecond)
	h := workersServer(t, pool)
	fp := pool.Fingerprint()

	rec := httptest.NewRecorder()
	form := url.Values{"url": {"unix:" + t.TempDir() + "/nobody.sock"}}
	req := httptest.NewRequest(http.MethodPost, "/workers/register", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	h.ServeHTTP(rec, req)
	if rec.Code == http.StatusOK {
		t.Fatalf("registering an unreachable worker answered 200: %q", rec.Body.String())
	}
	if st := pool.Stats(); len(st) != 1 || st[0].Name != fw.addr {
		t.Errorf("membership changed: %+v", st)
	}
	if got := pool.Fingerprint(); got != fp {
		t.Errorf("fingerprint %q -> %q", fp, got)
	}
}

// TestReregisterLeavesDownMemberToProber: a down member that registers
// again is acknowledged, not probed, and stays down until the prober
// has seen it answer upAfter (2) probes in a row.
func TestReregisterLeavesDownMemberToProber(t *testing.T) {
	fw := startFlakyWorker(t)
	pool := pash.NewWorkerPool(fw.addr)
	h := workersServer(t, pool)
	ctx := context.Background()

	fw.ok.Store(false)
	for i := 0; i < 3; i++ {
		pool.ProbeTick(ctx)
	}
	if got := workerState(t, pool, fw.addr); got != "down" {
		t.Fatalf("after three missed probes the worker is %s, want down", got)
	}
	fw.ok.Store(true)
	probes := fw.probes.Load()
	rejoined := pool.Transitions().Rejoined

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/workers/register?url="+url.QueryEscape(fw.addr), nil)
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("re-register = %d %q", rec.Code, rec.Body.String())
	}
	if n := fw.probes.Load() - probes; n != 0 {
		t.Errorf("re-registering a known member sent %d probes", n)
	}
	if got := workerState(t, pool, fw.addr); got != "down" {
		t.Fatalf("re-registered worker is %s, want down until the prober readmits it", got)
	}
	pool.ProbeTick(ctx)
	if got := workerState(t, pool, fw.addr); got != "rejoining" {
		t.Fatalf("after one answered probe the worker is %s, want rejoining", got)
	}
	pool.ProbeTick(ctx)
	if got := workerState(t, pool, fw.addr); got != "healthy" {
		t.Fatalf("after two answered probes the worker is %s, want healthy", got)
	}
	if got := pool.Transitions().Rejoined - rejoined; got != 1 {
		t.Errorf("Rejoined moved by %d, want 1", got)
	}
}

// TestDeregisterRemovesMember: a draining worker deregisters itself and
// leaves the dispatch set at once.
func TestDeregisterRemovesMember(t *testing.T) {
	fw, other := startFlakyWorker(t), startFlakyWorker(t)
	pool := pash.NewWorkerPool(fw.addr, other.addr)
	h := workersServer(t, pool)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/workers/deregister?url="+url.QueryEscape(fw.addr), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("deregister = %d %q", rec.Code, rec.Body.String())
	}
	if names := pool.WorkerNames(); len(names) != 1 || names[0] != other.addr {
		t.Errorf("dispatch set after deregistering %s: %v", fw.addr, names)
	}
}
