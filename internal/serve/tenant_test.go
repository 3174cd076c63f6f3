package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/meter"
	"repro/pash"
)

// postAs runs a script as the given tenant and returns the response
// (caller closes the body).
func postAs(t testing.TB, ts *httptest.Server, tenant, script, stdin string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost,
		ts.URL+"/run?script="+queryEscape(script), strings.NewReader(stdin))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Pash-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// A tenant over its job quota is refused with 403 + cause "quota" —
// and the refusal is free: no scheduler admission, no plan compiled,
// no width tokens, no quota burned past the line.
func TestServeTenantQuotaShedsWith403(t *testing.T) {
	sess := pash.NewSession(pash.DefaultOptions(4))
	sched := pash.NewScheduler(4)
	srv := New(sess, sched)
	srv.SetMeter(meter.New(meter.Config{DefaultQuota: 2}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		resp := postAs(t, ts, "alice", "echo ok", "")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d under quota: status %d", i+1, resp.StatusCode)
		}
	}
	planHitsBefore := sess.PlanCacheStats()
	schedBefore := sched.Stats()

	resp := postAs(t, ts, "alice", "echo ok", "")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("over-quota status = %d (%q), want 403", resp.StatusCode, body)
	}
	if cause := resp.Header.Get("X-Pash-Shed-Cause"); cause != "quota" {
		t.Errorf("shed cause = %q, want quota", cause)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Errorf("quota shed carries Retry-After %q; waiting cannot help", ra)
	}

	// The refusal touched nothing downstream of the meter.
	if after := sched.Stats(); after.Admitted != schedBefore.Admitted {
		t.Errorf("quota shed acquired a scheduler slot: %d -> %d", schedBefore.Admitted, after.Admitted)
	}
	if after := sess.PlanCacheStats(); after != planHitsBefore {
		t.Errorf("quota shed touched the plan cache: %+v -> %+v", planHitsBefore, after)
	}
	m := srv.Snapshot()
	if m.Meter == nil || len(m.Meter.Tenants) != 1 {
		t.Fatalf("metrics missing tenant rows: %+v", m.Meter)
	}
	row := m.Meter.Tenants[0]
	if row.Name != "alice" || row.Admitted != 2 || row.ShedQuota != 1 || row.Remaining != 0 {
		t.Errorf("tenant row = %+v", row)
	}

	// A different tenant is unaffected: quotas are per tenant.
	resp2 := postAs(t, ts, "bob", "echo ok", "")
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("other tenant blocked by alice's quota: status %d", resp2.StatusCode)
	}
}

// A rate-limited tenant is refused with 429 + cause "rate" and a
// Retry-After saying when the bucket next conforms; the denial burns
// no quota.
func TestServeTenantRateShedsWith429(t *testing.T) {
	sess := pash.NewSession(pash.DefaultOptions(4))
	srv := New(sess, pash.NewScheduler(4))
	// 1 job burst at a rate slow enough that the bucket cannot recover
	// mid-test.
	srv.SetMeter(meter.New(meter.Config{DefaultQuota: 100, Rate: 0.1, Burst: 1}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postAs(t, ts, "carol", "echo ok", "")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("burst request: status %d", resp.StatusCode)
	}

	resp = postAs(t, ts, "carol", "echo ok", "")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate status = %d (%q), want 429", resp.StatusCode, body)
	}
	if cause := resp.Header.Get("X-Pash-Shed-Cause"); cause != "rate" {
		t.Errorf("shed cause = %q, want rate", cause)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("rate shed Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	row := srv.Snapshot().Meter.Tenants[0]
	if row.ShedRate != 1 || row.Used.Jobs != 1 {
		t.Errorf("rate shed burned quota or went uncounted: %+v", row)
	}
}

// Capacity sheds stay 503 + cause "capacity", now with a Retry-After
// derived from scheduler state — and they refund the tenant's quota
// reserve (the job never ran).
func TestServeCapacityShedRefundsQuota(t *testing.T) {
	sess := pash.NewSession(pash.DefaultOptions(4))
	sched := pash.NewScheduler(4)
	sched.SetMaxScripts(1)
	sched.SetAdmissionQueue(1, 0)
	srv := New(sess, sched)
	srv.SetMeter(meter.New(meter.Config{DefaultQuota: 100}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the single slot with a stdin-blocked job, and the single
	// queue spot with a second client.
	pr1, pw1 := io.Pipe()
	pr2, pw2 := io.Pipe()
	var wg sync.WaitGroup
	for _, pr := range []io.Reader{pr1, pr2} {
		wg.Add(1)
		go func(body io.Reader) {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodPost, ts.URL+"/run?script="+queryEscape("wc -l"), body)
			req.Header.Set("X-Pash-Tenant", "dave")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}(pr)
	}
	deadline := time.After(10 * time.Second)
	for srv.Snapshot().Scheduler.QueueDepth != 1 {
		select {
		case <-deadline:
			t.Fatalf("queue never filled: %+v", srv.Snapshot().Scheduler)
		case <-time.After(2 * time.Millisecond):
		}
	}

	// Third client: queue-full capacity shed.
	resp := postAs(t, ts, "dave", "echo ok", "")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("capacity shed status = %d (%q), want 503", resp.StatusCode, body)
	}
	if cause := resp.Header.Get("X-Pash-Shed-Cause"); cause != "capacity" {
		t.Errorf("shed cause = %q, want capacity", cause)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("capacity shed Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}

	pw1.Write([]byte("x\n"))
	pw1.Close()
	pw2.Write([]byte("x\n"))
	pw2.Close()
	wg.Wait()

	row := srv.Snapshot().Meter.Tenants[0]
	if row.ShedCapacity != 1 {
		t.Errorf("capacity shed not attributed to tenant: %+v", row)
	}
	// Quota: 2 ran + 1 refunded => 2 used, 98 remaining.
	if row.Used.Jobs != 2 || row.Remaining != 98 {
		t.Errorf("capacity shed burned the quota reserve: %+v", row)
	}
	if row.Used.WallNanos <= 0 {
		t.Errorf("completed jobs metered no wall time: %+v", row)
	}
}

// Drain sheds keep their Retry-After hint and cause tag.
func TestServeDrainShedKeepsRetryAfter(t *testing.T) {
	sess := pash.NewSession(pash.DefaultOptions(4))
	srv := New(sess, pash.NewScheduler(4))
	srv.SetMeter(meter.New(meter.Config{DefaultQuota: 100}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	srv.Drain()
	resp := postAs(t, ts, "erin", "echo ok", "")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drain shed status = %d, want 503", resp.StatusCode)
	}
	if cause := resp.Header.Get("X-Pash-Shed-Cause"); cause != "capacity" {
		t.Errorf("drain shed cause = %q, want capacity", cause)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("drain shed Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	// A pre-admission drain shed never reached the meter's gates, so
	// nothing to refund and nothing burned.
	if row := srv.Snapshot().Meter.Tenants; len(row) != 0 {
		if row[0].Used.Jobs != 0 {
			t.Errorf("drain shed burned quota: %+v", row[0])
		}
	}
}

// The default tenant identity applies when no header or parameter is
// given, and the tenant= parameter works as the header's fallback.
func TestServeTenantIdentityResolution(t *testing.T) {
	sess := pash.NewSession(pash.DefaultOptions(4))
	srv := New(sess, pash.NewScheduler(4))
	srv.SetMeter(meter.New(meter.Config{}))
	srv.SetDefaultTenant("house")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postAs(t, ts, "", "echo a", "") // no identity -> default
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	resp, err := http.Post(ts.URL+"/run?tenant=qp&script="+queryEscape("echo b"), "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	names := map[string]bool{}
	for _, row := range srv.Snapshot().Meter.Tenants {
		names[row.Name] = true
	}
	if !names["house"] || !names["qp"] {
		t.Errorf("tenant rows = %v, want house and qp", names)
	}
}

// Tenant isolation under mixed concurrent load: every tenant's
// requests complete byte-identically with zero sheds when capacity
// covers the offered load — one tenant's traffic never corrupts or
// refuses another's (run with -race in CI).
func TestServeTenantIsolationUnderLoad(t *testing.T) {
	sess := pash.NewSession(pash.DefaultOptions(4))
	sched := pash.NewScheduler(8)
	sched.SetMaxScripts(4)
	srv := New(sess, sched)
	srv.SetMeter(meter.New(meter.Config{DefaultQuota: 10000}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const tenants, perTenant = 4, 12
	var wg sync.WaitGroup
	errs := make(chan error, tenants*perTenant)
	for tn := 0; tn < tenants; tn++ {
		name := fmt.Sprintf("tenant-%d", tn)
		for r := 0; r < perTenant; r++ {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				// Hot-key skew: tenant-0 sends a distinct (heavier)
				// pipeline; the others share one shape.
				script, want := "echo "+name+" | tr a-z A-Z", strings.ToUpper(name)+"\n"
				resp := postAs(t, ts, name, script, "")
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d (cause %q)", name, resp.StatusCode, resp.Header.Get("X-Pash-Shed-Cause"))
					return
				}
				if string(body) != want {
					errs <- fmt.Errorf("%s: output %q, want %q", name, body, want)
				}
			}(name)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	m := srv.Snapshot()
	if m.Sheds != 0 {
		t.Errorf("cross-tenant sheds under covered load: %d", m.Sheds)
	}
	if len(m.Meter.Tenants) != tenants {
		t.Fatalf("tenant rows = %d, want %d", len(m.Meter.Tenants), tenants)
	}
	for _, row := range m.Meter.Tenants {
		if row.Admitted != perTenant || row.ShedQuota+row.ShedRate+row.ShedCapacity != 0 {
			t.Errorf("tenant row under load: %+v", row)
		}
	}
}

// Jobs admitted through the front door carry their tenant in the
// /metrics job rows.
func TestServeJobRowsCarryTenant(t *testing.T) {
	sess := pash.NewSession(pash.DefaultOptions(4))
	srv := New(sess, pash.NewScheduler(4))
	srv.SetMeter(meter.New(meter.Config{}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/run?script="+queryEscape("wc -l"), pr)
		req.Header.Set("X-Pash-Tenant", "frank")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	deadline := time.After(10 * time.Second)
	for {
		jobs := srv.Snapshot().Jobs
		if len(jobs) == 1 && jobs[0].Tenant == "frank" {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("job row never showed tenant: %+v", jobs)
		case <-time.After(2 * time.Millisecond):
		}
	}
	pw.Write([]byte("x\n"))
	pw.Close()
	<-done
}
