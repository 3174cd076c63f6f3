package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/pash"
)

func newTestServer(t testing.TB, dir string) (*Server, *httptest.Server) {
	t.Helper()
	sess := pash.NewSession(pash.DefaultOptions(4))
	sess.Dir = dir
	srv := New(sess, pash.NewScheduler(4))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// runRemote posts a script (stdin in the body when given) and returns
// stdout, the trailer exit code, and the trailer error message.
func runRemote(t testing.TB, ts *httptest.Server, script, stdin string) (string, string, string) {
	t.Helper()
	url := ts.URL + "/run?script=" + queryEscape(script)
	resp, err := http.Post(url, "application/octet-stream", strings.NewReader(stdin))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), resp.Trailer.Get("X-Pash-Exit-Code"), resp.Trailer.Get("X-Pash-Error")
}

func queryEscape(s string) string {
	var sb strings.Builder
	for _, b := range []byte(s) {
		switch {
		case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b >= '0' && b <= '9',
			b == '-', b == '_', b == '.', b == '~':
			sb.WriteByte(b)
		default:
			fmt.Fprintf(&sb, "%%%02X", b)
		}
	}
	return sb.String()
}

func TestServeRunScriptInBody(t *testing.T) {
	_, ts := newTestServer(t, "")
	resp, err := http.Post(ts.URL+"/run", "text/plain", strings.NewReader("echo hello | tr a-z A-Z"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if string(out) != "HELLO\n" {
		t.Errorf("body-script output = %q", out)
	}
	if code := resp.Trailer.Get("X-Pash-Exit-Code"); code != "0" {
		t.Errorf("exit trailer = %q", code)
	}
}

func TestServeStdinStreamAndExitCode(t *testing.T) {
	_, ts := newTestServer(t, "")
	out, code, errMsg := runRemote(t, ts, "grep alpha | wc -l", "alpha\nbeta\nalpha x\n")
	if strings.TrimSpace(out) != "2" || code != "0" || errMsg != "" {
		t.Errorf("out=%q code=%q err=%q", out, code, errMsg)
	}
	// Non-zero exit propagates through the trailer (even with no
	// output bytes, which exercises the forced-chunked path).
	_, code, _ = runRemote(t, ts, "false", "")
	if code != "1" {
		t.Errorf("failing script exit trailer = %q", code)
	}
}

// TestServeConcurrentClients is the e2e acceptance test: many clients
// multiplexed over one daemon must each get byte-identical output to a
// sequential local run.
func TestServeConcurrentClients(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&sb, "w%d line %d\n", i%7, i)
	}
	if err := os.WriteFile(filepath.Join(dir, "d.txt"), []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	scripts := []string{
		"cut -d ' ' -f1 d.txt | sort | uniq -c",
		"grep w3 d.txt | wc -l",
		"sort d.txt | head -n 5",
		"tr a-z A-Z < d.txt | grep W5 | wc -l",
	}
	// Local sequential reference.
	want := make([]string, len(scripts))
	for i, src := range scripts {
		s := pash.NewSession(pash.SequentialOptions())
		s.Dir = dir
		var out bytes.Buffer
		if code, err := s.Run(context.Background(), src, strings.NewReader(""), &out, os.Stderr); err != nil || code != 0 {
			t.Fatalf("reference %q: code=%d err=%v", src, code, err)
		}
		want[i] = out.String()
	}

	srv, ts := newTestServer(t, dir)
	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			i := c % len(scripts)
			out, code, errMsg := runRemote(t, ts, scripts[i], "")
			if code != "0" || errMsg != "" {
				errs <- fmt.Errorf("client %d: code=%q err=%q", c, code, errMsg)
				return
			}
			if out != want[i] {
				errs <- fmt.Errorf("client %d diverged:\n--- want:\n%s--- got:\n%s", c, want[i], out)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m := srv.Snapshot()
	if m.Requests != clients || m.Failures != 0 {
		t.Errorf("metrics: %+v", m)
	}
	if m.PlanCache.Hits == 0 {
		t.Errorf("daemon plan cache never hit across %d clients: %+v", clients, m.PlanCache)
	}
	if m.Scheduler == nil || m.Scheduler.Admitted != clients {
		t.Errorf("scheduler metrics: %+v", m.Scheduler)
	}
}

func TestServeMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, "")
	if _, _, errMsg := runRemote(t, ts, "echo x", ""); errMsg != "" {
		t.Fatalf("run: %s", errMsg)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Requests != 1 || m.BytesOut != 2 || m.Scheduler == nil {
		t.Errorf("metrics = %+v", m)
	}
	// Health endpoint.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != 200 {
		t.Errorf("healthz = %d", hr.StatusCode)
	}
}

func TestServeRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, "")
	resp, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /run = %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/run", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty script = %d", resp.StatusCode)
	}
	// Oversized scripts are rejected, never truncated-and-run.
	big := "echo " + strings.Repeat("x", 1<<20)
	resp, err = http.Post(ts.URL+"/run", "text/plain", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized script = %d, want 413", resp.StatusCode)
	}
}

// TestServePerRequestOptions is the e2e test for the per-request width:
// the override applies to one request only, reaches the planner (a
// distinct plan-cache key per width), an invalid value is rejected with
// 400 before execution, and planner internals are not a request's to
// set: split= and fusion= select nothing and mint no plan-cache entry.
// (The option combinations themselves run through the pash API:
// TestStartWithOptions.)
func TestServePerRequestOptions(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&sb, "w%d line %d\n", i%7, i)
	}
	if err := os.WriteFile(filepath.Join(dir, "d.txt"), []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, dir)
	script := "sort d.txt | uniq -c | head -n 3"

	post := func(params string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/run?script="+queryEscape(script)+"&"+params,
			"application/octet-stream", strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp, string(out)
	}

	// Valid overrides: every width must produce the same bytes.
	var want string
	for i, params := range []string{"width=1", "width=8", "width=3"} {
		resp, out := post(params)
		if resp.StatusCode != 200 || resp.Trailer.Get("X-Pash-Exit-Code") != "0" {
			t.Fatalf("%s: status=%d exit=%q", params, resp.StatusCode, resp.Trailer.Get("X-Pash-Exit-Code"))
		}
		if i == 0 {
			want = out
		} else if out != want {
			t.Errorf("%s diverged:\n--- want:\n%s--- got:\n%s", params, want, out)
		}
	}
	// The overrides reached the planner: each width compiled its own
	// plan (same region fingerprint, different keys).
	before := srv.Snapshot().PlanCache
	if before.Misses < 3 {
		t.Errorf("expected 3 widths to reach the planner as 3 plan-cache misses, got %+v", before)
	}
	// Planner internals ride no request: the old knobs are inert and the
	// plan for this width is served from the cache (width 1, which the
	// measured history never re-widths).
	if resp, out := post("width=1&split=general&fusion=off"); resp.StatusCode != 200 || out != want {
		t.Errorf("split=/fusion= parameters: status=%d out=%q", resp.StatusCode, out)
	}
	if after := srv.Snapshot().PlanCache; after.Misses != before.Misses {
		t.Errorf("split=/fusion= minted a plan-cache entry: %+v -> %+v", before, after)
	}

	// Invalid values: 400, no execution.
	before = srv.Snapshot().PlanCache
	for _, params := range []string{"width=0", "width=banana", "width=9999"} {
		resp, _ := post(params)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", params, resp.StatusCode)
		}
	}
	if after := srv.Snapshot().PlanCache; after.Misses != before.Misses || after.Hits != before.Hits {
		t.Errorf("invalid options still planned something: %+v -> %+v", before, after)
	}

	// Headers work as the query-param alternative.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/run?script="+queryEscape(script), strings.NewReader(""))
	req.Header.Set("X-Pash-Width", "2")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(out) != want {
		t.Errorf("header override: status=%d out=%q", resp.StatusCode, out)
	}
}

// TestServeParseErrorRejected: unparsable scripts get a clean 400 (the
// Job API validates syntax before the response commits) instead of a
// trailer error on an empty 200.
func TestServeParseErrorRejected(t *testing.T) {
	_, ts := newTestServer(t, "")
	resp, err := http.Post(ts.URL+"/run", "text/plain", strings.NewReader("for do done ("))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("parse error status = %d, want 400", resp.StatusCode)
	}
}

// TestServeLiveJobRows: an in-flight request appears as a running job
// row in /metrics and disappears once it completes.
func TestServeLiveJobRows(t *testing.T) {
	srv, ts := newTestServer(t, "")
	pr, pw := io.Pipe()
	type result struct {
		out  string
		code string
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/run?script="+queryEscape("wc -l"), "application/octet-stream", pr)
		if err != nil {
			done <- result{}
			return
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		done <- result{out: string(out), code: resp.Trailer.Get("X-Pash-Exit-Code")}
	}()

	deadline := time.After(5 * time.Second)
	for {
		m := srv.Snapshot()
		if len(m.Jobs) == 1 && m.Jobs[0].Running && m.Jobs[0].Script == "wc -l" {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("running job never surfaced in metrics: %+v", m.Jobs)
		case <-time.After(2 * time.Millisecond):
		}
	}
	pw.Write([]byte("a\nb\nc\n"))
	pw.Close()
	r := <-done
	if strings.TrimSpace(r.out) != "3" || r.code != "0" {
		t.Errorf("request result = %+v", r)
	}
	if m := srv.Snapshot(); len(m.Jobs) != 0 {
		t.Errorf("finished job still listed: %+v", m.Jobs)
	}
}

// TestServeRequestCancellation: a client disconnecting mid-script
// cancels its job; the daemon drains back to zero active jobs.
func TestServeRequestCancellation(t *testing.T) {
	srv, ts := newTestServer(t, "")
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/run", strings.NewReader("while true; do true; done"))
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		errCh <- err
	}()

	deadline := time.After(5 * time.Second)
	for srv.Snapshot().Active == 0 {
		select {
		case <-deadline:
			t.Fatal("request never became active")
		case <-time.After(2 * time.Millisecond):
		}
	}
	cancel()
	<-errCh
	for srv.Snapshot().Active != 0 {
		select {
		case <-deadline:
			t.Fatalf("cancelled request never drained: %+v", srv.Snapshot())
		case <-time.After(2 * time.Millisecond):
		}
	}
	if m := srv.Snapshot(); len(m.Jobs) != 0 {
		t.Errorf("cancelled job still listed: %+v", m.Jobs)
	}
}

// BenchmarkServeThroughput measures requests through the full daemon
// stack: HTTP, admission, plan cache (hot after the first iteration),
// execution, streamed response.
func BenchmarkServeThroughput(b *testing.B) {
	dir := b.TempDir()
	var sb strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&sb, "w%d payload line %d\n", i%13, i)
	}
	if err := os.WriteFile(filepath.Join(dir, "d.txt"), []byte(sb.String()), 0o644); err != nil {
		b.Fatal(err)
	}
	_, ts := newTestServer(b, dir)
	script := queryEscape("cut -d ' ' -f1 d.txt | sort | uniq -c | sort -rn | head -n 5")
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := http.Post(ts.URL+"/run?script="+script, "application/octet-stream", strings.NewReader(""))
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if code := resp.Trailer.Get("X-Pash-Exit-Code"); code != "0" {
				b.Errorf("exit = %q", code)
				return
			}
		}
	})
}

// TestServeKeepAliveUnreadBody: requests whose job leaves the body
// unread — a script that reads no stdin, a region whose input open
// fails, a refused stream — keep their keep-alive connection usable:
// 50 POSTs over one connection all answer, and the server logs no panic.
func TestServeKeepAliveUnreadBody(t *testing.T) {
	ts := httptest.NewUnstartedServer(New(pash.NewSession(pash.DefaultOptions(4)), pash.NewScheduler(4)).Handler())
	var logged bytes.Buffer
	var mu sync.Mutex
	ts.Config.ErrorLog = log.New(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return logged.Write(p)
	}), "", 0)
	var conns atomic.Int64
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()

	body := strings.Repeat("unread line\n", 100)
	for i := 0; i < 50; i++ {
		path, want := "/run?script="+queryEscape("echo hi"), "hi\n"
		switch i % 4 {
		case 1:
			path, want = "/run?script=true", ""
		case 2:
			path, want = "/run?script="+queryEscape("cat missing.txt"), ""
		case 3:
			path, want = "/stream?script="+queryEscape("sort | uniq -c"), "" // 400
		}
		resp, err := client.Post(ts.URL+path, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatalf("request %d (%s): %v", i, path, err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("request %d (%s): reading the response: %v", i, path, err)
		}
		if want != "" && string(out) != want {
			t.Errorf("request %d (%s): %q, want %q", i, path, out, want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if strings.Contains(logged.String(), "panic") {
		t.Errorf("the server logged a panic:\n%s", logged.String())
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("50 requests used %d connections, want 1", n)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
