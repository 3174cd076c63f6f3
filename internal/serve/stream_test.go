package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/meter"
	"repro/internal/stream"
	"repro/pash"
)

// streamRemote posts a body-source streaming request and returns the
// raw response body plus trailers.
func streamRemote(t testing.TB, ts *httptest.Server, query, body string) (string, string, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/stream?"+query, "application/octet-stream", strings.NewReader(body))
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

func TestServeStreamBodySource(t *testing.T) {
	_, ts := newTestServer(t, "")

	var body strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&body, "line %d alpha\n", i)
	}
	// Small size trigger, long time trigger: windows cut by bytes only.
	out, code, errMsg := streamRemote(t, ts,
		"script="+queryEscape("wc -l")+"&window-bytes=256&window=1h", body.String())
	if code != "0" || errMsg != "" {
		t.Fatalf("exit = %q, err = %q", code, errMsg)
	}
	lines := strings.Fields(out)
	if len(lines) < 2 {
		t.Fatalf("expected multiple windowed emissions, got %q", out)
	}
	// Cumulative emissions must be strictly increasing and end at the
	// total line count.
	prev := 0
	for _, l := range lines {
		n, err := strconv.Atoi(l)
		if err != nil || n <= prev {
			t.Fatalf("emissions not a running count: %q", out)
		}
		prev = n
	}
	if prev != 200 {
		t.Errorf("final cumulative count = %d, want 200", prev)
	}
}

func TestServeStreamDeltaBodySource(t *testing.T) {
	_, ts := newTestServer(t, "")
	body := "alpha one\nbeta two\nalpha three\n"
	out, code, _ := streamRemote(t, ts,
		"script="+queryEscape("grep alpha | tr a-z A-Z")+"&window-bytes=8&window=1h", body)
	if code != "0" {
		t.Fatalf("exit = %q", code)
	}
	if out != "ALPHA ONE\nALPHA THREE\n" {
		t.Errorf("delta stream output = %q", out)
	}
}

func TestServeStreamRejectsUnstreamable(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "f"), []byte("x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, dir)
	for _, script := range []string{"sort | uniq -c", "grep a && grep b", "wc -l > out.txt", "cat f | wc -l", "wc -l f"} {
		resp, err := http.Post(ts.URL+"/stream?script="+queryEscape(script),
			"application/octet-stream", strings.NewReader("x\n"))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("script %q: status = %d, want 400", script, resp.StatusCode)
		}
	}
	// Bad parameters are 400 too, and so is a follow source with a body
	// source's emit-mode checkpoint to resume.
	if err := stream.SaveCheckpoint(filepath.Join(dir, "delta.ckpt"), &stream.Checkpoint{Emit: stream.EmitName(false)}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"script=wc&window=nope", "script=wc&window-bytes=0", "script=wc&resume=1",
		"script=wc&follow=f&checkpoint=delta.ckpt&resume=1"} {
		resp, err := http.Post(ts.URL+"/stream?"+q, "application/octet-stream", strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: status = %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestServeStreamFollowAndMetrics(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, dir)

	path := filepath.Join(dir, "grow.log")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/stream?script="+queryEscape("wc -l")+"&follow="+queryEscape(path)+"&window=20ms", nil)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		out  string
		code int
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- result{}
			return
		}
		out, _ := io.ReadAll(resp.Body) // read error expected on cancel
		resp.Body.Close()
		done <- result{out: string(out), code: resp.StatusCode}
	}()

	// Feed the file and wait for the job to show up in /metrics with
	// live streaming stats.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	deadline := time.Now().Add(5 * time.Second)
	sawStream := false
	for time.Now().Before(deadline) && !sawStream {
		fmt.Fprintf(f, "row at %v\n", time.Now().UnixNano())
		m := fetchStreamMetrics(t, ts)
		if m.Streams >= 1 {
			for _, j := range m.Jobs {
				if j.Stream != nil && j.Stream.Windows > 0 && j.Stream.RowsPerSec > 0 {
					sawStream = true
				}
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !sawStream {
		t.Error("no live streaming job row with windows and rows/sec in /metrics")
	}

	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("follow stream did not terminate on client cancel")
	}
}

func fetchStreamMetrics(t testing.TB, ts *httptest.Server) Metrics {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestServeStreamJailed: a sandboxed daemon plans a stream inside the
// job's jail, as /run runs a script there. A command substitution that
// reads outside it, and a follow= or checkpoint= path that leaves the
// session directory, get 400 and leak nothing; relative paths resolve
// under the session directory.
func TestServeStreamJailed(t *testing.T) {
	outside := t.TempDir()
	if err := os.WriteFile(filepath.Join(outside, "secret.txt"), []byte("needle\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(outside, "jail")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "app.log"), []byte("a\nb\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, dir)
	srv.SetDefaultLimits(pash.JobLimits{Sandbox: true})
	for _, q := range []string{
		"script=" + queryEscape("grep $(cat ../secret.txt)"),
		"script=wc&follow=../secret.txt",
		"script=wc&follow=" + queryEscape(filepath.Join(outside, "secret.txt")),
		"script=wc&checkpoint=../job.ckpt",
	} {
		resp, err := http.Post(ts.URL+"/stream?"+q, "application/octet-stream", strings.NewReader("needle\nhay\n"))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || strings.Contains(string(body), "needle\n") {
			t.Errorf("%s: status %d, body %q; want 400 and nothing leaked", q, resp.StatusCode, body)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/stream?script=wc%20-l&follow=app.log&checkpoint=job.ckpt&window-bytes=1&window=1h", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow=app.log under the session directory: status %d", resp.StatusCode)
	}
	// The second emission is the running count after both lines, and
	// the job checkpoints before it emits the next window.
	buf := make([]byte, 0, 8)
	for !strings.HasSuffix(string(buf), "2\n") {
		var b [8]byte
		n, err := resp.Body.Read(b[:])
		if err != nil {
			t.Fatalf("emitted %q, then %v", buf, err)
		}
		buf = append(buf, b[:n]...)
	}
	waitForFile(t, filepath.Join(dir, "job.ckpt"))
}

// TestServeStreamPlansOnce: a /stream request plans its script once, so
// a command substitution in it runs once.
func TestServeStreamPlansOnce(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, dir)
	out, code, errMsg := streamRemote(t, ts, "script="+queryEscape("grep $(echo x >> log.txt; echo a)"), "a\nb\n")
	if code != "0" || out != "a\n" {
		t.Fatalf("exit %q (%s), output %q", code, errMsg, out)
	}
	if log, err := os.ReadFile(filepath.Join(dir, "log.txt")); err != nil || string(log) != "x\n" {
		t.Errorf("log.txt = %q, %v; want the substitution to have run once", log, err)
	}
}

// TestServeStreamRefusalRefunds: a stream Start refuses hands back its
// admission slot and its tenant's job, as a /run parse error does, so
// under a quota of one the next good stream is admitted.
func TestServeStreamRefusalRefunds(t *testing.T) {
	srv, ts := newTestServer(t, "")
	srv.SetMeter(meter.New(meter.Config{DefaultQuota: 1}))
	resp, err := http.Post(ts.URL+"/stream?script="+queryEscape("sort | uniq -c"), "application/octet-stream", strings.NewReader("x\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unstreamable: status %d, want 400", resp.StatusCode)
	}
	out, code, errMsg := streamRemote(t, ts, "script=wc%20-l", "x\ny\n")
	if code != "0" || strings.TrimSpace(out) != "2" {
		t.Errorf("the next stream: exit %q (%s), output %q", code, errMsg, out)
	}
	if st := srv.Snapshot().Scheduler; st != nil && st.ActiveScripts != 0 {
		t.Errorf("%d admission slots still held", st.ActiveScripts)
	}
}

func waitForFile(t *testing.T, path string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if _, err := os.Stat(path); err == nil {
			return
		}
	}
	t.Fatalf("%s never appeared", path)
}
